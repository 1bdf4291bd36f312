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

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

_SQRT2 = 1.4142135623730951


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

    def key(self) -> tuple:
        """Canonical hashable form (Fractions are auto-reduced)."""
        return tuple(
            (e.re.a, e.re.b, e.im.a, e.im.b) for row in self.entries for e in row
        )

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
    """Finite indexed family of exactly trace-preserving channels.

    ``unitary[k]`` flags single-operator unitary channels; flags are checked
    on construction against the operator lists.
    """

    channels: tuple[tuple[RationalComplexMatrix, ...], ...]
    unitary: tuple[bool, ...]

    def __post_init__(self):
        if len(self.channels) == 0:
            raise ValueError("alphabet must contain at least one channel")
        if len(self.unitary) != len(self.channels):
            raise ValueError("one unitary flag per channel required")
        dims = set()
        for ops, flag in zip(self.channels, self.unitary):
            dims.add(_check_exact_channel(ops))
            if flag and len(ops) != 1:
                raise ValueError("a unitary channel must consist of a single operator")
        if len(dims) != 1:
            raise ValueError("all channels must share one dimension")

    @classmethod
    def from_kraus_lists(
        cls, channels: Iterable[Sequence[RationalComplexMatrix]]
    ) -> "ChannelAlphabet":
        chans = tuple(tuple(ops) for ops in channels)
        flags = tuple(
            len(ops) == 1 and ops[0].dagger() @ ops[0] == RationalComplexMatrix.identity(ops[0].dim)
            for ops in chans
        )
        return cls(chans, flags)

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


def _grid_key(arr, tol: float) -> tuple:
    arr = np.asarray(arr, complex)
    grid = tol / 10.0
    re = np.round(arr.real / grid).astype(np.int64)
    im = np.round(arr.imag / grid).astype(np.int64)
    return (arr.shape[0],) + tuple(re.ravel()) + tuple(im.ravel())


# One (encode, step, hit, key) kernel per search mode.  ``encode`` puts an
# exact matrix (a state or a Kraus operator) in the mode's terms; exact states
# compare and key on their reduced entries, float states hit within tol
# (max-abs) and key on a tol/10 grid.  The exact step looks apply_channel_exact
# up at call time, so a patched or traced version is the one that runs.
_KERNELS = {
    "exact": (
        lambda m: m,
        lambda kraus, st: apply_channel_exact(kraus, st, checked=True),
        lambda st, goal, tol: st == goal,
        lambda st, tol: st.key(),
    ),
    "float": (
        RationalComplexMatrix.to_numpy,
        lambda kraus, st: sum(k @ st @ k.conj().T for k in kraus),
        lambda st, goal, tol: bool(np.max(np.abs(st - goal)) <= tol),
        _grid_key,
    ),
}


def _kernel(mode: str) -> tuple:
    """(encode, step, hit, key) of a search mode; the one place a mode is checked."""
    if mode not in _KERNELS:
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    return _KERNELS[mode]


def canonical_state_key(rho, mode: str = "exact", tol: float = 1e-9):
    """Deduplication key for visited states.

    Exact mode: the fully reduced rational entry tuple (injective).  Float
    mode: entries rounded onto a grid of width tol/10 -- collisions are
    possible, so float keying is pruning only and certificates are replayed.
    """
    encode, _, _, key = _kernel(mode)
    return key(encode(rho) if isinstance(rho, RationalComplexMatrix) else rho, tol)


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
    tol: float = 1e-9,
    max_states: int = 1_000_000,
) -> SearchOutcome:
    """Breadth-first search over channel compositions up to ``max_depth``.

    Expansion follows alphabet index order with a FIFO frontier, so a
    positive answer is a shortest certificate and ties break
    lexicographically.  Visited states are deduplicated by canonical key; in
    float mode the keying is heuristic pruning and every certificate is
    verified by replay before it is returned.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    encode, step, hit, _ = _kernel(mode)
    channels = [[encode(k) for k in ops] for ops in alphabet.channels]
    start, goal = encode(rho_initial), encode(rho_target)

    def certify(sequence: tuple[int, ...]) -> SearchOutcome:
        state = start
        for i in sequence:
            state = step(channels[i], state)
        if not hit(state, goal, tol):
            raise AssertionError("certificate failed replay verification")
        return SearchOutcome(True, sequence, max_depth, len(visited), replay_verified=True)

    visited = {canonical_state_key(start, mode, tol)}
    if hit(start, goal, tol):
        return certify(())

    frontier = deque([(start, ())])
    while frontier:
        state, seq = frontier.popleft()
        if len(seq) >= max_depth:
            continue
        for i in range(alphabet.size):
            nxt = step(channels[i], state)
            nxt_seq = seq + (i,)
            if hit(nxt, goal, tol):
                return certify(nxt_seq)
            k = canonical_state_key(nxt, mode, tol)
            if k in visited:
                continue
            visited.add(k)
            if len(visited) > max_states:
                raise SearchMemoryError(
                    f"state budget {max_states} exceeded at depth {len(nxt_seq)} "
                    f"(frontier {len(frontier)})",
                    states_explored=len(visited),
                    frontier_size=len(frontier),
                    depth=len(nxt_seq),
                )
            frontier.append((nxt, nxt_seq))
    return SearchOutcome(False, None, max_depth, len(visited))


def brute_force_min_length(
    alphabet: ChannelAlphabet,
    rho_initial: RationalComplexMatrix,
    rho_target: RationalComplexMatrix,
    max_depth: int,
    mode: str = "exact",
    tol: float = 1e-9,
) -> int | None:
    """Minimal certificate length by exhaustive enumeration (test oracle).

    Enumerates every composition sequence without deduplication; returns the
    smallest length whose endpoint hits the target, or None.
    """
    encode, step, hit, _ = _kernel(mode)
    channels = [[encode(k) for k in ops] for ops in alphabet.channels]
    start, goal = encode(rho_initial), encode(rho_target)
    level = [start]
    if hit(start, goal, tol):
        return 0
    for depth in range(1, max_depth + 1):
        nxt_level = []
        for st in level:
            for i in range(alphabet.size):
                nxt = step(channels[i], st)
                if hit(nxt, goal, tol):
                    return depth
                nxt_level.append(nxt)
        level = nxt_level
    return None
