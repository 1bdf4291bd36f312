"""Bounded breadth-first search for channel sequences steering one state to
another, with an exact arithmetic kernel.

States and channels are exact matrices over Q(sqrt(2)) + i Q(sqrt(2)): every
real and imaginary part is ``a + b sqrt(2)`` with exact rational ``a, b``
(arbitrary-precision integers), which covers rational matrix entries and the
Hadamard gate's ``1/sqrt(2)`` without rounding.  A positive answer comes with
a replayable certificate; a negative answer is only ever "not found up to the
depth bound" -- no bounded search can certify unreachability.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .core import hermitian_units, require_finite

_FRACTION = np.frompyfunc(Fraction, 2, 1)
_SQRT2 = 1.4142135623730951
# default float-mode hit tolerance (max-abs); visited states key on a tol/10 grid
SEARCH_TOL = 1e-9


def _scalar(literal) -> tuple[Fraction, Fraction]:
    """(a, b) with literal = a + b sqrt(2), from an int, a Fraction, a "p/q"
    string or a {"rational": "p/q", "sqrt2": "r/s"} object; never a boolean
    or a float."""
    parts = literal if isinstance(literal, dict) else {"rational": literal}
    a, b = parts.get("rational", 0), parts.get("sqrt2", 0)
    # JSON booleans are ints to Python, but no literal is one; a float would
    # be read as its binary fraction, not as the decimal it was written as
    if any(isinstance(x, (bool, float)) for x in (a, b)) or not isinstance(
        literal, (dict, int, str, Fraction)
    ):
        raise TypeError(f"cannot parse exact scalar from {literal!r}")
    return Fraction(a), Fraction(b)


def _over_one_denominator(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Python integers AB, shaped like the rationals ``values``, and den > 0
    with values = AB / den."""
    den = math.lcm(*(f.denominator for f in values.flat))
    ints = [f.numerator * (den // f.denominator) for f in values.flat]
    return np.array(ints, dtype=object).reshape(values.shape), den


class RationalComplexMatrix:
    """Immutable square matrix over Q(sqrt(2)) + i Q(sqrt(2)): a (4, d, d)
    object array ``parts`` of Fractions, entry (j, k) being
    x + y sqrt(2) + i (z + w sqrt(2)) with (x, y, z, w) = parts[:, j, k].

    A product puts each operand's parts over one integer denominator, runs
    its 16 part products on the Python-int numerators and divides once at
    the end, so every entry comes out an exact Fraction in lowest terms."""

    __slots__ = ("parts",)
    # numpy operators defer to this class, so ``m @ array`` raises TypeError
    __array_ufunc__ = None

    def __init__(self, parts: np.ndarray):
        parts.flags.writeable = False
        self.parts = parts

    @property
    def dim(self) -> int:
        return self.parts.shape[1]

    @classmethod
    def from_literals(cls, rows) -> "RationalComplexMatrix":
        """Rows of [re, im] literal pairs (see ``_scalar``)."""
        n = len(rows) if isinstance(rows, (list, tuple)) else 0
        if n == 0 or any(not isinstance(row, (list, tuple)) or len(row) != n for row in rows):
            raise ValueError("matrix must be a nonempty square list of rows")
        parts = np.empty((4, n, n), dtype=object)
        for j, row in enumerate(rows):
            for k, pair in enumerate(row):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ValueError(f"entry ({j}, {k}) must be a [re, im] pair, got {pair!r}")
                parts[:, j, k] = _scalar(pair[0]) + _scalar(pair[1])
        return cls(parts)

    @classmethod
    def identity(cls, n: int) -> "RationalComplexMatrix":
        parts = np.full((4, n, n), Fraction(0), dtype=object)
        np.fill_diagonal(parts[0], Fraction(1))
        return cls(parts)

    def __matmul__(self, other: "RationalComplexMatrix") -> "RationalComplexMatrix":
        if not isinstance(other, RationalComplexMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        (x, y, z, w), den_a = _over_one_denominator(self.parts)
        (p, q, r, s), den_b = _over_one_denominator(other.parts)
        return RationalComplexMatrix(_FRACTION(np.stack([
            x @ p + 2 * (y @ q) - z @ r - 2 * (w @ s),
            x @ q + y @ p - z @ s - w @ r,
            x @ r + 2 * (y @ s) + z @ p + 2 * (w @ q),
            x @ s + y @ r + z @ q + w @ p,
        ]), den_a * den_b))

    def __add__(self, other: "RationalComplexMatrix") -> "RationalComplexMatrix":
        if not isinstance(other, RationalComplexMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return RationalComplexMatrix(self.parts + other.parts)

    def dagger(self) -> "RationalComplexMatrix":
        t = self.parts.transpose(0, 2, 1)
        return RationalComplexMatrix(np.concatenate([t[:2], -t[2:]]))

    def __eq__(self, other):
        return isinstance(other, RationalComplexMatrix) and np.array_equal(self.parts, other.parts)

    def to_numpy(self) -> np.ndarray:
        x, y, z, w = self.parts.astype(float)
        out = np.empty(x.shape, dtype=complex)
        out.real, out.imag = x + y * _SQRT2, z + w * _SQRT2
        return out


def _check_exact_channel(kraus: Sequence[RationalComplexMatrix]) -> int:
    if len(kraus) == 0:
        raise ValueError("channel needs at least one Kraus operator")
    n = kraus[0].dim
    if any(k.dim != n for k in kraus):
        raise ValueError("Kraus operators must share one dimension")
    if reduce(operator.add, (k.dagger() @ k for k in kraus)) != RationalComplexMatrix.identity(n):
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
    return reduce(operator.add, (k @ rho @ k.dagger() for k in kraus))


def require_hermitian(rho: RationalComplexMatrix, name: str = "state") -> RationalComplexMatrix:
    """``rho`` itself, after checking that it equals its adjoint exactly."""
    if rho != rho.dagger():
        raise ValueError(f"{name} is not exactly Hermitian")
    return rho


def _coordinates(m: RationalComplexMatrix) -> np.ndarray:
    """The d^2 real coordinates Re Tr(U_a^dag m) / Tr(U_a^dag U_a) of a
    Hermitian matrix on the units U_a of :func:`core.hermitian_units`, as a
    (2, d^2) array of their rational and sqrt(2) parts."""
    units = hermitian_units(m.dim).reshape(m.dim**2, -1)
    re, im = (part.astype(int).astype(object) for part in (units.real, units.imag))
    parts, den = _over_one_denominator(m.parts.reshape(4, -1))
    return _FRACTION(parts[:2] @ re.T + parts[2:] @ im.T, den * np.sum(re * re + im * im, axis=1))


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
        # core's Hermitian units as exact matrices: their coordinates are the unit vectors
        units = hermitian_units(alphabet.dim)
        literals = np.stack([units.real, units.imag], axis=-1).astype(int).tolist()
        basis = [RationalComplexMatrix.from_literals(rows) for rows in literals]
        products, dens = [], []
        for kraus in alphabet.channels:
            # column c holds the coordinates of the image of basis matrix c
            images = [_coordinates(apply_channel_exact(kraus, e, checked=True)) for e in basis]
            (p, q), den = _over_one_denominator(np.stack(images, axis=2))
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
            ab, den = _over_one_denominator(_coordinates(require_hermitian(m)))
            rows.append([*ab.ravel(), den])
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
    require_finite(tol, "tol")
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
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1, got {max_states!r}")
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

    # kept_levels[d] holds the child indices (parent * width + channel)
    # that form level d + 1; a certificate walks them back from a hit
    level, kept_levels = kernel.start, []
    for depth in range(1, max_depth + 1):
        if not len(level):
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
                frontier = len(level) - c // width - 1 + len(kept)
                raise SearchMemoryError(
                    f"state budget {max_states} exceeded at depth {depth} (frontier {frontier})",
                    states_explored=len(visited),
                    frontier_size=frontier,
                    depth=depth,
                )
            kept.append(c)
        if hit is not None:
            sequence = [hit]
            for parents in reversed(kept_levels):
                sequence.append(parents[sequence[-1] // width])
            return certify(tuple(c % width for c in reversed(sequence)))
        level = children[kept]
        kept_levels.append(kept)
    return SearchOutcome(False, None, max_depth, len(visited))
