"""Test oracles for the bounded channel search, stepping one state at a time.

``bounded_reachability_fifo`` is a FIFO breadth-first search and
``brute_force_min_length`` an exhaustive enumeration without deduplication.
Both apply a channel per state -- ``apply_channel_exact`` on exact matrices,
or ``sum_k K rho K^dag`` on one numpy matrix -- and so share no kernel with
``kraussearch.bounded_reachability``, which steps whole levels on an integer
lattice or on a numpy stack.

``fraction_product`` is the exact matrix product on ``Fraction`` objects,
part by part, as ``RationalComplexMatrix.__matmul__`` computed it before it
moved to integer numerators over one denominator.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from oqctrl.kraussearch import (
    RationalComplexMatrix,
    SearchMemoryError,
    SearchOutcome,
    apply_channel_exact,
)


def exact_key(m: RationalComplexMatrix) -> tuple:
    """Canonical hashable form of an exact matrix (Fractions are auto-reduced)."""
    return tuple(m.parts.flat)


def fraction_product(a: RationalComplexMatrix, b: RationalComplexMatrix) -> RationalComplexMatrix:
    """a @ b with every part product and sum taken on Fraction objects."""
    x, y, z, w = a.parts
    p, q, r, s = b.parts
    return RationalComplexMatrix(np.stack([
        x @ p + 2 * (y @ q) - z @ r - 2 * (w @ s),
        x @ q + y @ p - z @ s - w @ r,
        x @ r + 2 * (y @ s) + z @ p + 2 * (w @ q),
        x @ s + y @ r + z @ q + w @ p,
    ]))


def _grid_key(arr, tol: float) -> tuple:
    arr = np.asarray(arr, complex)
    grid = tol / 10.0
    re = np.round(arr.real / grid).astype(np.int64)
    im = np.round(arr.imag / grid).astype(np.int64)
    return (arr.shape[0],) + tuple(re.ravel()) + tuple(im.ravel())


# (encode, step, hit, key) per mode: exact states compare and key on their
# reduced entries, float states hit within tol (max-abs) and key on a tol/10 grid
_KERNELS = {
    "exact": (
        lambda m: m,
        lambda kraus, st: apply_channel_exact(kraus, st, checked=True),
        lambda st, goal, tol: st == goal,
        lambda st, tol: exact_key(st),
    ),
    "float": (
        RationalComplexMatrix.to_numpy,
        lambda kraus, st: sum(k @ st @ k.conj().T for k in kraus),
        lambda st, goal, tol: bool(np.max(np.abs(st - goal)) <= tol),
        _grid_key,
    ),
}


def _kernel(mode: str) -> tuple:
    if mode not in _KERNELS:
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    return _KERNELS[mode]


def bounded_reachability_fifo(
    alphabet,
    rho_initial: RationalComplexMatrix,
    rho_target: RationalComplexMatrix,
    max_depth: int,
    mode: str = "exact",
    tol: float = 1e-9,
    max_states: int = 1_000_000,
) -> SearchOutcome:
    """Breadth-first search with a FIFO queue of (state, sequence) pairs,
    expanding children in alphabet index order."""
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    encode, step, hit, key = _kernel(mode)
    channels = [[encode(k) for k in ops] for ops in alphabet.channels]
    start, goal = encode(rho_initial), encode(rho_target)

    def certify(sequence: tuple[int, ...]) -> SearchOutcome:
        state = start
        for i in sequence:
            state = step(channels[i], state)
        if not hit(state, goal, tol):
            raise AssertionError("certificate failed replay verification")
        return SearchOutcome(True, sequence, max_depth, len(visited), replay_verified=True)

    visited = {key(start, tol)}
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
            k = key(nxt, tol)
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
    alphabet,
    rho_initial: RationalComplexMatrix,
    rho_target: RationalComplexMatrix,
    max_depth: int,
    mode: str = "exact",
    tol: float = 1e-9,
) -> int | None:
    """Minimal certificate length by exhaustive enumeration.

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
