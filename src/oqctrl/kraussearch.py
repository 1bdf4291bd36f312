"""Bounded breadth-first search for channel sequences steering one state to
another, with an exact arithmetic kernel.

States and channels live over the field Q(sqrt(2)): every scalar is
``a + b sqrt(2)`` with exact rational ``a, b`` (arbitrary-precision
integers), which covers rational matrix entries and the Hadamard gate's
``1/sqrt(2)`` without rounding.  A positive answer comes with a replayable
certificate; a negative answer is only ever "not found up to the depth
bound" -- no bounded search can certify unreachability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

_SQRT2 = 1.4142135623730951
# default float-mode hit tolerance (max-abs); visited states key on a tol/10 grid
SEARCH_TOL = 1e-9


class Sqrt2Rational:
    """Exact scalar a + b*sqrt(2) with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @classmethod
    def parse(cls, literal) -> "Sqrt2Rational":
        """Accepts int, Fraction, "p/q" strings and
        {"rational": "p/q", "sqrt2": "r/s"} objects."""
        if isinstance(literal, Sqrt2Rational):
            return literal
        if isinstance(literal, dict):
            return cls(Fraction(literal.get("rational", 0)), Fraction(literal.get("sqrt2", 0)))
        if isinstance(literal, (int, str, Fraction)):
            return cls(Fraction(literal))
        raise TypeError(f"cannot parse exact scalar from {literal!r}")

    def __add__(self, other):
        return Sqrt2Rational(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return Sqrt2Rational(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        return Sqrt2Rational(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __neg__(self):
        return Sqrt2Rational(-self.a, -self.b)

    def __truediv__(self, other):
        norm = other.a * other.a - 2 * other.b * other.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        inv = Sqrt2Rational(other.a / norm, -other.b / norm)
        return self * inv

    def __eq__(self, other):
        return isinstance(other, Sqrt2Rational) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * _SQRT2

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a}+{self.b}*sqrt2"


_ZERO = Sqrt2Rational()
_ONE = Sqrt2Rational(1)


class ExactComplex:
    """Complex number with Q(sqrt(2)) real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=_ZERO, im=_ZERO):
        self.re = re if isinstance(re, Sqrt2Rational) else Sqrt2Rational.parse(re)
        self.im = im if isinstance(im, Sqrt2Rational) else Sqrt2Rational.parse(im)

    def __add__(self, other):
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self):
        return ExactComplex(self.re, -self.im)

    def __eq__(self, other):
        return isinstance(other, ExactComplex) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({self.re!r}, {self.im!r})"


class RationalComplexMatrix:
    """Immutable square matrix over Q(sqrt(2)) + i Q(sqrt(2))."""

    __slots__ = ("entries", "dim")

    def __init__(self, entries: Sequence[Sequence[ExactComplex]]):
        rows = tuple(tuple(e for e in row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        self.entries = rows
        self.dim = n

    @classmethod
    def from_literals(cls, rows) -> "RationalComplexMatrix":
        """Rows of [re, im] literal pairs (see Sqrt2Rational.parse)."""
        return cls(
            [[ExactComplex(Sqrt2Rational.parse(x), Sqrt2Rational.parse(y)) for x, y in row]
             for row in rows]
        )

    @classmethod
    def identity(cls, n: int) -> "RationalComplexMatrix":
        return cls(
            [[ExactComplex(_ONE if i == j else _ZERO) for j in range(n)] for i in range(n)]
        )

    def __matmul__(self, other: "RationalComplexMatrix") -> "RationalComplexMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        n = self.dim
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = ExactComplex()
                for k in range(n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return RationalComplexMatrix(rows)

    def __add__(self, other: "RationalComplexMatrix") -> "RationalComplexMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return RationalComplexMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def dagger(self) -> "RationalComplexMatrix":
        n = self.dim
        return RationalComplexMatrix(
            [[self.entries[j][i].conj() for j in range(n)] for i in range(n)]
        )

    def trace(self) -> ExactComplex:
        acc = ExactComplex()
        for i in range(self.dim):
            acc = acc + self.entries[i][i]
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, RationalComplexMatrix)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def to_numpy(self) -> np.ndarray:
        return np.array([[complex(e) for e in row] for row in self.entries])


def _check_exact_channel(kraus: Sequence[RationalComplexMatrix]) -> int:
    if len(kraus) == 0:
        raise ValueError("channel needs at least one Kraus operator")
    n = kraus[0].dim
    acc = None
    for k in kraus:
        if k.dim != n:
            raise ValueError("Kraus operators must share one dimension")
        term = k.dagger() @ k
        acc = term if acc is None else acc + term
    if acc != RationalComplexMatrix.identity(n):
        raise ValueError("channel is not exactly trace preserving")
    return n


@dataclass(frozen=True)
class ChannelAlphabet:
    """Finite indexed family of exactly trace-preserving channels."""

    channels: tuple[tuple[RationalComplexMatrix, ...], ...]

    def __post_init__(self):
        if len(self.channels) == 0:
            raise ValueError("alphabet must contain at least one channel")
        if len({_check_exact_channel(ops) for ops in self.channels}) != 1:
            raise ValueError("all channels must share one dimension")

    @classmethod
    def from_kraus_lists(
        cls, channels: Iterable[Sequence[RationalComplexMatrix]]
    ) -> "ChannelAlphabet":
        return cls(tuple(tuple(ops) for ops in channels))

    @property
    def dim(self) -> int:
        return self.channels[0][0].dim

    @property
    def size(self) -> int:
        return len(self.channels)


def apply_channel_exact(
    kraus: Sequence[RationalComplexMatrix],
    rho: RationalComplexMatrix,
    checked: bool = False,
) -> RationalComplexMatrix:
    """Exact sum_i K_i rho K_i^dag; the trace comes out exactly preserved.

    ``checked=True`` skips the trace-preservation check, for operator lists
    a :class:`ChannelAlphabet` has already checked on construction.
    """
    if not checked:
        _check_exact_channel(kraus)
    if kraus[0].dim != rho.dim:
        raise ValueError("channel and state dimensions differ")
    acc = None
    for k in kraus:
        term = k @ rho @ k.dagger()
        acc = term if acc is None else acc + term
    return acc


def require_hermitian(rho: RationalComplexMatrix, name: str = "state") -> RationalComplexMatrix:
    """``rho`` itself, after checking that it equals its adjoint exactly."""
    if rho != rho.dagger():
        raise ValueError(f"{name} is not exactly Hermitian")
    return rho


def _upper(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def _coordinates(m: RationalComplexMatrix) -> list[Sqrt2Rational]:
    """The d^2 real coordinates of a Hermitian matrix: its diagonal, then the
    real and the imaginary parts of its upper triangle."""
    e, upper = m.entries, _upper(m.dim)
    return (
        [e[k][k].re for k in range(m.dim)]
        + [e[i][j].re for i, j in upper]
        + [e[i][j].im for i, j in upper]
    )


def _hermitian_basis(d: int) -> list[RationalComplexMatrix]:
    """The Hermitian matrices whose coordinates are the unit vectors."""
    one, i_unit = ExactComplex(_ONE), ExactComplex(_ZERO, _ONE)

    def matrix(cells: dict) -> RationalComplexMatrix:
        return RationalComplexMatrix(
            [[cells.get((i, j), ExactComplex()) for j in range(d)] for i in range(d)]
        )

    return (
        [matrix({(k, k): one}) for k in range(d)]
        + [matrix({(i, j): one, (j, i): one}) for i, j in _upper(d)]
        + [matrix({(i, j): i_unit, (j, i): i_unit.conj()}) for i, j in _upper(d)]
    )


def _over_one_denominator(values: Sequence[Sqrt2Rational]) -> tuple[list[int], list[int], int]:
    """Integers A, B and den > 0 with values = (A + B sqrt(2)) / den."""
    den = math.lcm(*(f.denominator for v in values for f in (v.a, v.b)))
    return [int(v.a * den) for v in values], [int(v.b * den) for v in values], den


def _lowest_terms(rows: np.ndarray) -> np.ndarray:
    """Integer rows (A, B, den) divided by their gcd: one canonical row per state."""
    return rows // np.gcd.reduce(rows, axis=1)[:, None]


class _ExactLattice:
    """Exact search states as integer rows (A, B, den), meaning
    (A + B sqrt(2)) / den on Hermitian coordinates, in lowest terms; the row is
    the state's injective key.  Each channel acts as the real superoperator
    (P + Q sqrt(2)) / D on those coordinates, derived once from
    apply_channel_exact on the coordinate basis, so a step is an integer
    product [[P, 2Q], [Q, P]] (A, B) over den * D.  The certificate replay
    uses apply_channel_exact itself.
    """

    def __init__(self, alphabet: ChannelAlphabet, rho_initial, rho_target, tol: float):
        self.channels, self.rho_initial, self.rho_target = alphabet.channels, rho_initial, rho_target
        basis = _hermitian_basis(alphabet.dim)
        n = len(basis)
        products, dens = [], []
        for kraus in alphabet.channels:
            images = [apply_channel_exact(kraus, e, checked=True) for e in basis]
            p, q, den = _over_one_denominator([c for image in images for c in _coordinates(image)])
            # the values run column by column: reshape and transpose to (row, column)
            p, q = (np.array(x, dtype=object).reshape(n, n).T for x in (p, q))
            products.append(np.block([[p, 2 * q], [q, p]]).T)
            dens.append(den)
        self.step = np.concatenate(products, axis=1)
        self.dens = np.array(dens, dtype=object)
        self.start = self.encode([rho_initial])
        self.goal = self.keys(self.encode([rho_target]))[0]

    @staticmethod
    def encode(matrices) -> np.ndarray:
        rows = []
        for m in matrices:
            a, b, den = _over_one_denominator(_coordinates(require_hermitian(m)))
            rows.append(a + b + [den])
        return _lowest_terms(np.array(rows, dtype=object))

    @staticmethod
    def keys(rows: np.ndarray, tol: float = 0.0) -> list:
        return list(map(tuple, rows.tolist()))

    def children(self, level: np.ndarray) -> np.ndarray:
        width = level.shape[1] - 1
        ab = (level[:, :-1] @ self.step).reshape(-1, width)
        den = np.multiply.outer(level[:, -1], self.dens).reshape(-1, 1)
        return _lowest_terms(np.concatenate([ab, den], axis=1))

    def first_hit(self, level, keys: list) -> int | None:
        return keys.index(self.goal) if self.goal in keys else None

    def replay(self, sequence: tuple[int, ...]) -> bool:
        state = self.rho_initial
        for i in sequence:
            state = apply_channel_exact(self.channels[i], state, checked=True)
        return state == self.rho_target


class _FloatStack:
    """Float search states as one (F, d, d) complex stack per BFS level.  A
    state hits the target within ``tol`` (max-abs) and is keyed by the bytes
    of its int64 entries on a grid of width tol/10, so two close states can
    share a key and one of them is pruned."""

    def __init__(self, alphabet: ChannelAlphabet, rho_initial, rho_target, tol: float):
        self.channels = [[k.to_numpy() for k in ops] for ops in alphabet.channels]
        self.tol = tol
        self.start = self.encode([rho_initial])
        self.goal = rho_target.to_numpy()

    @staticmethod
    def encode(matrices) -> np.ndarray:
        return np.array([
            m.to_numpy() if isinstance(m, RationalComplexMatrix) else np.asarray(m, complex)
            for m in matrices
        ])

    @staticmethod
    def keys(stack: np.ndarray, tol: float) -> list:
        grid = tol / 10.0
        rows = np.concatenate(
            [np.round(part / grid).astype(np.int64).reshape(len(stack), -1)
             for part in (stack.real, stack.imag)],
            axis=1,
        )
        return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()

    @staticmethod
    def apply(kraus, stack: np.ndarray) -> np.ndarray:
        return sum((k @ stack) @ k.conj().T for k in kraus)

    def children(self, level: np.ndarray) -> np.ndarray:
        out = np.stack([self.apply(kraus, level) for kraus in self.channels], axis=1)
        return out.reshape(-1, *level.shape[1:])

    def first_hit(self, level: np.ndarray, keys: list) -> int | None:
        hits = np.flatnonzero(np.max(np.abs(level - self.goal), axis=(1, 2)) <= self.tol)
        return int(hits[0]) if hits.size else None

    def replay(self, sequence: tuple[int, ...]) -> bool:
        state = self.start
        for i in sequence:
            state = self.apply(self.channels[i], state)
        return self.first_hit(state, []) == 0


_KERNELS = {"exact": _ExactLattice, "float": _FloatStack}


def _kernel(mode: str, tol: float) -> type:
    """The kernel class of a search mode; the one place a mode and a
    tolerance are checked."""
    if mode not in _KERNELS:
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    return _KERNELS[mode]


def canonical_state_key(rho, mode: str = "exact", tol: float = SEARCH_TOL):
    """Deduplication key for visited states.

    Exact mode: the lowest-terms integer row of a Hermitian state's
    coordinates over Q(sqrt(2)) (injective).  Float mode: the bytes of the
    entries rounded onto a grid of width tol/10 -- collisions are possible,
    so float keying is pruning only and certificates are replayed.
    """
    kernel = _kernel(mode, tol)
    return kernel.keys(kernel.encode([rho]), tol)[0]


class SearchMemoryError(RuntimeError):
    """State budget exceeded; carries frontier statistics."""

    def __init__(self, msg, states_explored, frontier_size, depth):
        super().__init__(msg)
        self.states_explored = states_explored
        self.frontier_size = frontier_size
        self.depth = depth


@dataclass(frozen=True)
class SearchOutcome:
    """Either a certificate sequence or a bounded negative answer.

    ``found`` with ``sequence = (i_1, ..., i_M)`` means replaying the
    channels in that order maps the initial state to the target; otherwise
    the instance records that no sequence up to ``depth_limit`` works, which
    is *not* a claim of unreachability.
    """

    found: bool
    sequence: tuple[int, ...] | None
    depth_limit: int
    states_explored: int
    replay_verified: bool = False


def bounded_reachability(
    alphabet: ChannelAlphabet,
    rho_initial: RationalComplexMatrix,
    rho_target: RationalComplexMatrix,
    max_depth: int,
    mode: str = "exact",
    tol: float = SEARCH_TOL,
    max_states: int = 1_000_000,
) -> SearchOutcome:
    """Breadth-first search over channel compositions up to ``max_depth``.

    The search is level-synchronous: each depth steps the whole frontier
    through every channel at once, then walks the children in (parent,
    channel index) order, testing each for a hit before deduplicating it by
    canonical key and counting it against ``max_states`` -- the order of a
    FIFO search, so a positive answer is a shortest certificate with ties
    broken lexicographically.  Both states must be exactly Hermitian.  In
    float mode the keying is heuristic pruning; every certificate is
    verified by replay before it is returned.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    kernel_class = _kernel(mode, tol)
    require_hermitian(rho_initial, "initial state")
    require_hermitian(rho_target, "target state")
    kernel = kernel_class(alphabet, rho_initial, rho_target, tol)
    width = alphabet.size

    def certify(sequence: tuple[int, ...]) -> SearchOutcome:
        if not kernel.replay(sequence):
            raise AssertionError("certificate failed replay verification")
        return SearchOutcome(True, sequence, max_depth, len(visited), replay_verified=True)

    start_key = canonical_state_key(rho_initial, mode, tol)
    visited = {start_key}
    if kernel.first_hit(kernel.start, [start_key]) is not None:
        return certify(())

    level, sequences = kernel.start, [()]
    for depth in range(1, max_depth + 1):
        if not sequences:
            break
        children = kernel.children(level)
        keys = kernel.keys(children, tol)
        hit = kernel.first_hit(children, keys)
        kept = []
        for c in range(len(keys) if hit is None else hit):
            if keys[c] in visited:
                continue
            visited.add(keys[c])
            if len(visited) > max_states:
                # a FIFO frontier: the level's parents after this one, and
                # the children queued so far
                frontier = len(sequences) - c // width - 1 + len(kept)
                raise SearchMemoryError(
                    f"state budget {max_states} exceeded at depth {depth} (frontier {frontier})",
                    states_explored=len(visited),
                    frontier_size=frontier,
                    depth=depth,
                )
            kept.append(c)
        if hit is not None:
            return certify(sequences[hit // width] + (hit % width,))
        level = children[kept]
        sequences = [sequences[c // width] + (c % width,) for c in kept]
    return SearchOutcome(False, None, max_depth, len(visited))
