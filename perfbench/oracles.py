"""Reference computations that share no code with oqctrl.

* GKSL propagation: the generator is assembled by applying the master
  equation, with its jump operators written out, to each row-major basis
  matrix, and each segment is integrated by classical Runge-Kutta steps.
* Gate fidelity: Choi matrices are formed directly from the channel's action
  on the matrix units.
* Bloch-ball binning of a point cloud.
* Kraus-map search: the qubit channels act on Bloch vectors over Q(sqrt 2),
  written as pairs of Fractions (exact) or as float arrays (float mode).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# --------------------------------------------------------------------------
# GKSL propagation


def jump_operators(couplings, occupations) -> list[np.ndarray]:
    """sqrt(rate) |j><i| for every ordered level pair i != j.

    The rate is A_ij (n_ij + 1) downwards (i > j) and A_ij n_ij upwards, where
    n_ij is the occupation of the unordered pair; ``occupations`` is one
    number shared by all pairs or one per pair in lexicographic order.
    """
    a = np.asarray(couplings, dtype=float)
    dim = a.shape[0]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    occ = np.broadcast_to(np.asarray(occupations, dtype=float), (len(pairs),))
    ops = []
    for (lo, hi), n in zip(pairs, occ):
        for src, dst in ((lo, hi), (hi, lo)):
            rate = a[src, dst] * (n + (1.0 if src > dst else 0.0))
            if rate > 0:
                c = np.zeros((dim, dim), dtype=complex)
                c[dst, src] = math.sqrt(rate)
                ops.append(c)
    return ops


def gksl_rhs(h: np.ndarray, jumps, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_L (L rho L^dag - {L^dag L, rho}/2)."""
    out = -1j * (h @ rho - rho @ h)
    for c in jumps:
        cd = c.conj().T
        out += c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c)
    return out


def gksl_generator(h: np.ndarray, jumps) -> np.ndarray:
    """Matrix of gksl_rhs on row-major vectorised matrices."""
    dim = h.shape[0]
    gen = np.empty((dim * dim, dim * dim), dtype=complex)
    for k in range(dim * dim):
        unit = np.zeros(dim * dim, dtype=complex)
        unit[k] = 1.0
        gen[:, k] = gksl_rhs(h, jumps, unit.reshape(dim, dim)).ravel()
    return gen


def rk4_propagator(gen: np.ndarray, duration: float, max_step: float = 1e-3) -> np.ndarray:
    """Propagator of dv/dt = gen v after ``duration``, by RK4 steps.

    For a constant linear right-hand side one RK4 step is the matrix
    I + hG + (hG)^2/2 + (hG)^3/6 + (hG)^4/24, so the steps are composed by
    repeated squaring instead of one at a time.
    """
    steps = max(1, math.ceil(duration / max_step))
    hg = gen * (duration / steps)
    step = np.eye(gen.shape[0], dtype=complex)
    term = np.eye(gen.shape[0], dtype=complex)
    for k in range(1, 5):
        term = term @ hg / k
        step = step + term
    return np.linalg.matrix_power(step, steps)


def segment_propagators(energies, dipole, couplings, epsilon, segments) -> list[np.ndarray]:
    """One RK4 propagator per (dt, u, n) segment."""
    h0 = np.diag(np.asarray(energies, dtype=float)).astype(complex)
    v = np.asarray(dipole, dtype=complex)
    out = []
    for dt, u, n in segments:
        jumps = [math.sqrt(epsilon) * c for c in jump_operators(couplings, n)]
        out.append(rk4_propagator(gksl_generator(h0 + u * v, jumps), dt))
    return out


def propagate(rho0, propagators) -> np.ndarray:
    """rho0 carried through the propagators in order."""
    dim = np.shape(rho0)[0]
    v = np.asarray(rho0, dtype=complex).ravel()
    for p in propagators:
        v = p @ v
    return v.reshape(dim, dim)


def choi(channel, dim: int) -> np.ndarray:
    """sum_ij E_ij (x) channel(E_ij) for a map given as a callable."""
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            out += np.kron(unit, channel(unit))
    return out


def gate_infidelity(propagators, target: np.ndarray) -> float:
    """1 - Tr[Choi(Phi) Choi(U)] / N^2 for the channel Phi of the propagators."""
    dim = target.shape[0]
    c_phi = choi(lambda e: propagate(e, propagators), dim)
    c_u = choi(lambda e: target @ e @ target.conj().T, dim)
    return 1.0 - float(np.real(np.trace(c_phi @ c_u))) / dim**2


# --------------------------------------------------------------------------
# Bloch-ball binning


def bin_counts(points: np.ndarray, resolution: int) -> np.ndarray:
    """Points per cell of the cube [-1, 1]^3 cut into resolution^3 cells,
    flattened with x slowest."""
    idx = np.floor((points + 1.0) * 0.5 * resolution).astype(np.int64)
    idx = np.clip(idx, 0, resolution - 1)
    flat = (idx[:, 0] * resolution + idx[:, 1]) * resolution + idx[:, 2]
    return np.bincount(flat, minlength=resolution**3)


def in_ball_cells(resolution: int) -> np.ndarray:
    """Flattened mask of the cells whose centre lies in the unit ball."""
    c = -1.0 + (2.0 * np.arange(resolution) + 1.0) / resolution
    r2 = c[:, None, None] ** 2 + c[None, :, None] ** 2 + c[None, None, :] ** 2
    return (r2 <= 1.0).ravel()


# --------------------------------------------------------------------------
# Kraus-map search on Bloch vectors
#
# An element a + b sqrt(2) of Q(sqrt 2) is the pair (a, b) of Fractions.

HALF = Fraction(1, 2)


def q_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def q_sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def q_scale(p, r: Fraction):
    return (p[0] * r, p[1] * r)


def q_inv_sqrt2(p):
    """p / sqrt(2) = (a + b sqrt 2) sqrt(2) / 2 = b + (a/2) sqrt 2."""
    return (p[1], p[0] * HALF)


def hadamard_bloch(r):
    """H rho H: (x, y, z) -> (z, -y, x)."""
    x, y, z = r
    return (z, q_scale(y, Fraction(-1)), x)


def t_gate_bloch(r):
    """T rho T^dag with T = diag(1, e^{i pi/4}): a pi/4 turn about z."""
    x, y, z = r
    return (q_inv_sqrt2(q_sub(x, y)), q_inv_sqrt2(q_add(x, y)), z)


def bit_flip_mix_bloch(r, flip: Fraction = Fraction(9, 25)):
    """rho -> flip X rho X + (1 - flip) rho: y and z shrink by 1 - 2 flip."""
    x, y, z = r
    keep = 1 - 2 * flip
    return (x, q_scale(y, keep), q_scale(z, keep))


def q_vec(x, y, z):
    return tuple((Fraction(c), Fraction(0)) for c in (x, y, z))


def exact_levels(maps, start, depth: int) -> list[set]:
    """Distinct Bloch vectors reached by every sequence of exactly d maps,
    d = 0..depth.  Sequences ending in the same state have the same
    continuations, so each level is enumerated as a set."""
    levels = [{start}]
    for _ in range(depth):
        levels.append({m(r) for r in levels[-1] for m in maps})
    return levels


def float_maps():
    """Matrices A with r -> A r for H, T and the 3/5-4/5 bit-flip mix."""
    s = 1.0 / math.sqrt(2.0)
    keep = 1.0 - 2.0 * 9.0 / 25.0
    return [
        np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]),
        np.array([[s, -s, 0.0], [s, s, 0.0], [0.0, 0.0, 1.0]]),
        np.diag([1.0, keep, keep]),
    ]


def float_min_distance(start, target, depth: int, grid: float = 1e-12) -> float:
    """Smallest max-entry distance |rho - rho_target| over every sequence of
    at most ``depth`` maps.

    Per-level states closer than ``grid`` are merged; the maps do not expand
    distances, so merging cannot move the minimum by more than ``grid``.
    """
    mats = float_maps()
    level = np.asarray([start], dtype=float)
    target = np.asarray(target, dtype=float)
    best = np.inf
    for d in range(depth + 1):
        diff = level - target
        dist = 0.5 * np.maximum(np.abs(diff[:, 2]), np.hypot(diff[:, 0], diff[:, 1]))
        best = min(best, float(dist.min()))
        if d < depth:
            keys = np.round(level / grid).astype(np.int64)
            _, first = np.unique(keys, axis=0, return_index=True)
            level = np.concatenate([level[np.sort(first)] @ m.T for m in mats])
    return best
