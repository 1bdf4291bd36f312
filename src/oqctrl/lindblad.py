"""GKSL (Lindblad) generators and piecewise-constant propagation.

The master equation implemented here is

    drho/dt = -i [H0 + u V, rho] + eps * sum_{i != j} gamma_ij D[C_ij](rho)

with ``D[C] rho = C rho C^dag - (1/2){C^dag C, rho}``.  The dissipation
channel attached to the ordered level pair ``(i, j)`` moves population from
level ``i`` to level ``j`` (jump operator ``C_ij = |j><i|``) at the rate

    gamma_ij = A_ij * (n_ij + kappa_ij),   kappa_ij = 1 if i > j else 0,

so channels descending the level ladder carry a spontaneous component while
upward channels are driven purely by the environment occupation ``n_ij``.
For the two-level system with ``A = gamma`` this reduces to the damped qubit
with downward rate ``gamma (n + 1)`` and upward rate ``gamma n``.

Superoperators act on column-stacked density matrices (``core.vec``).
inGRAPE and the qubit reachable-set sampler propagate with the real triple
(L0, Du, Dn) of L(u, n) = L0 + u Du + n Dn from :func:`affine_generator`.
Every segment map, here and in those two, is exponentiated by
``core.expm_stack``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    PAULI_X,
    STRUCTURAL_TOL,
    DimensionMismatchError,
    ValidationReport,
    expm_stack,
    herm,
    hermitian_coordinates,
    require_finite,
    unvec,
    validate_density,
    vec,
    __getattr__,  # the lazy name expm, looked up by perfbench's tracer only
)

VALIDATION_TOL = 1e-7  # propagated states farther off the state space fail
DEGENERACY_TOL = 1e-9  # relative singular-value floor of a second null direction


class PropagationFailure(RuntimeError):
    """A propagated state failed validation (numerical blow-up)."""


class DegenerateNullSpaceError(RuntimeError):
    """The generator has more than one stationary direction."""


def transition_pairs(n: int) -> list[tuple[int, int]]:
    """Unordered level pairs (i, j), i < j, in lexicographic order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class SystemModel:
    """Level energies and the control (dipole) operator.

    ``energies`` are angular frequencies (hbar = 1); the free Hamiltonian is
    ``diag(energies)`` and the coherent control couples through ``dipole``.
    """

    energies: np.ndarray
    dipole: np.ndarray

    def __post_init__(self):
        e = require_finite(np.asarray(self.energies, dtype=float), "energies")
        v = require_finite(np.asarray(self.dipole, dtype=complex), "dipole")
        if e.ndim != 1 or e.size < 2:
            raise DimensionMismatchError("energies must be a vector of length >= 2")
        if v.shape != (e.size, e.size):
            raise DimensionMismatchError("dipole operator shape does not match energies")
        if np.max(np.abs(v - v.conj().T)) > STRUCTURAL_TOL:
            raise ValueError("dipole operator must be Hermitian")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "dipole", v)

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def h0(self) -> np.ndarray:
        return np.diag(self.energies).astype(complex)

    def hamiltonian(self, u: float) -> np.ndarray:
        return self.h0 + u * self.dipole


@dataclass(frozen=True)
class DecoherenceModel:
    """Per-transition coupling constants and overall interaction strength.

    ``couplings[i, j]`` is the spectral weight A_ij of the (i, j) transition;
    it must be symmetric (the weight depends only on |omega_ij|) with
    nonnegative entries.  ``epsilon`` scales the whole dissipator.
    """

    couplings: np.ndarray
    epsilon: float = 1.0

    def __post_init__(self):
        a = require_finite(np.asarray(self.couplings, dtype=float), "couplings")
        require_finite(self.epsilon, "epsilon")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatchError("couplings must be a square matrix")
        if not np.allclose(a, a.T, atol=STRUCTURAL_TOL):
            raise ValueError("couplings must be symmetric in (i, j)")
        if np.any(a < 0):
            raise ValueError("couplings must be nonnegative")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        object.__setattr__(self, "couplings", a)

    @property
    def dim(self) -> int:
        return self.couplings.shape[0]


def decoherence_rate(model: DecoherenceModel, i: int, j: int, n: float) -> float:
    """Rate gamma_ij = A_ij (n + kappa_ij) of the (i, j) dissipation channel.

    For i > j this is spontaneous plus induced emission; for i < j it is
    induced absorption, which vanishes in vacuum (n = 0).
    """
    if i == j:
        raise ValueError("decoherence rate needs two distinct levels")
    if n < 0:
        raise ValueError("occupation n must be nonnegative")
    if not (0 <= i < model.dim and 0 <= j < model.dim):
        raise DimensionMismatchError("level index out of range")
    return float(model.couplings[i, j] * (n + float(i > j)))


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant controls on a strictly increasing time grid.

    ``durations[m]`` is the length of segment m; ``u[m]`` its coherent
    amplitude.  ``n`` holds the environment occupations: either shape (M,)
    for a single occupation shared by all transitions, or shape (M, P) with
    one column per unordered transition pair in lexicographic order.
    """

    durations: np.ndarray
    u: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        d = require_finite(np.atleast_1d(np.asarray(self.durations, dtype=float)), "durations")
        uu = require_finite(np.atleast_1d(np.asarray(self.u, dtype=float)), "u")
        nn = require_finite(np.asarray(self.n, dtype=float), "n")
        if nn.ndim == 0:
            nn = np.full(d.shape, float(nn))
        if d.ndim != 1 or uu.shape != d.shape:
            raise DimensionMismatchError("durations and u must be equal-length vectors")
        if nn.shape[0] != d.size and d.size > 0:
            raise DimensionMismatchError("n must have one row per segment")
        if np.any(d <= 0):
            raise ValueError("segment durations must be positive")
        if np.any(nn < 0):
            raise ValueError("occupations must be nonnegative")
        object.__setattr__(self, "durations", d)
        object.__setattr__(self, "u", uu)
        object.__setattr__(self, "n", nn)

    @property
    def n_segments(self) -> int:
        return self.durations.size

    @property
    def boundaries(self) -> np.ndarray:
        """t_0 = 0 < t_1 < ... < t_M."""
        return np.concatenate([[0.0], np.cumsum(self.durations)])


def _jump_superoperator(c: np.ndarray) -> np.ndarray:
    """Superoperator of D[C] under column stacking."""
    n = c.shape[0]
    eye = np.eye(n)
    cdc = c.conj().T @ c
    return np.kron(c.conj(), c) - 0.5 * np.kron(eye, cdc) - 0.5 * np.kron(cdc.T, eye)


def hamiltonian_superoperator(h: np.ndarray) -> np.ndarray:
    """Superoperator of -i[H, .] under column stacking."""
    n = h.shape[0]
    eye = np.eye(n)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def build_liouvillian(
    system: SystemModel,
    decoherence: DecoherenceModel,
    u: float,
    n: float | Sequence[float],
) -> np.ndarray:
    """Generator L with d vec(rho)/dt = L vec(rho) for constant controls.

    ``n`` is a single occupation shared by every transition or a vector with
    one entry per unordered pair from :func:`transition_pairs`.  The trace
    functional is a left null vector of the result.
    """
    nd = system.dim
    if decoherence.dim != nd:
        raise DimensionMismatchError("system and decoherence model dimensions differ")
    pairs = transition_pairs(nd)
    occ = np.asarray(n, dtype=float)
    if occ.ndim == 0:
        occ = np.full(len(pairs), float(occ))
    if occ.shape != (len(pairs),):
        raise DimensionMismatchError(f"need {len(pairs)} occupations, got shape {occ.shape}")
    if np.any(occ < 0):
        raise ValueError("occupations must be nonnegative")

    gen = hamiltonian_superoperator(system.hamiltonian(u))
    for p, (i, j) in enumerate(pairs):
        # channel i -> j (jump |j><i|) and its reverse share the occupation
        for src, dst in ((i, j), (j, i)):
            rate = decoherence_rate(decoherence, src, dst, occ[p])
            if rate == 0.0:
                continue
            c = np.zeros((nd, nd), dtype=complex)
            c[dst, src] = 1.0
            gen += decoherence.epsilon * rate * _jump_superoperator(c)
    return gen


def affine_generator(
    system: SystemModel, decoherence: DecoherenceModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L0, Du, Dn): the generator at u = n = 0 and its two directions for an
    occupation n shared by every transition, each the real matrix T L T^dag
    in Hermitian coordinates (T from ``core.hermitian_basis``)."""
    l0 = build_liouvillian(system, decoherence, 0.0, 0.0)
    dn = build_liouvillian(system, decoherence, 0.0, 1.0) - l0
    du = hamiltonian_superoperator(system.dipole)
    return hermitian_coordinates(l0), hermitian_coordinates(du), hermitian_coordinates(dn)


def propagate_segment(liouvillian: np.ndarray, rho, dt: float) -> np.ndarray:
    """Evolve rho for time dt under a constant generator, exp(L dt) vec(rho).

    The output is re-symmetrized to suppress roundoff drift away from
    Hermiticity; the trace is preserved by the generator itself.  No library
    code calls this (:func:`propagate_schedule` exponentiates its segments in
    one stack); the tests and perfbench's TARGETS use it.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    m = np.asarray(rho, dtype=complex)
    if dt == 0.0:
        return m.copy()
    out = unvec(expm_stack((liouvillian * dt)[None])[0] @ vec(m))
    return herm(out)


def propagate_schedule(
    system: SystemModel,
    decoherence: DecoherenceModel,
    schedule: ControlSchedule,
    rho0,
) -> list[np.ndarray]:
    """States at the schedule boundaries, starting from rho0.

    The M segment maps exp(L_m dt_m) come from one ``core.expm_stack`` call,
    which raises ValueError if a map is not finite.  Raises
    :class:`PropagationFailure` if any intermediate state leaves the state
    space by more than ``VALIDATION_TOL`` (which signals a numerical
    blow-up; it cannot happen for well-posed inputs).
    """
    report = validate_density(rho0, VALIDATION_TOL)
    if not report.ok:
        raise PropagationFailure(f"initial state invalid ({report.worst})")
    states = [np.asarray(rho0, dtype=complex).copy()]
    d2 = states[0].size
    exponents = np.empty((schedule.n_segments, d2, d2), dtype=complex)
    for m in range(schedule.n_segments):
        # one shared occupation or one per level pair, as build_liouvillian takes it
        gen = build_liouvillian(system, decoherence, float(schedule.u[m]), schedule.n[m])
        exponents[m] = gen * float(schedule.durations[m])
    for m, segment in enumerate(expm_stack(exponents)):
        nxt = herm(unvec(segment @ vec(states[-1])))
        report = validate_density(nxt, VALIDATION_TOL)
        if not report.ok:
            raise PropagationFailure(
                f"state after segment {m} invalid ({report.worst}); "
                f"herm={report.hermiticity_error:.2e} trace={report.trace_error:.2e} "
                f"min_eig={report.min_eigenvalue:.2e}"
            )
        states.append(nxt)
    return states


def qubit_system(omega: float, mu: float) -> SystemModel:
    """Two-level model: energies (0, omega), control operator mu sigma_x."""
    return SystemModel(energies=np.array([0.0, omega]), dipole=mu * PAULI_X)


def qubit_decoherence(gamma: float) -> DecoherenceModel:
    """Two-level decoherence with coupling gamma on the single transition."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return DecoherenceModel(couplings=np.array([[0.0, gamma], [gamma, 0.0]]), epsilon=1.0)


def cardano_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a real 3x3 matrix from its characteristic cubic.

    The cubic is solved in closed form: depressed form t^3 + p t + q,
    one-real-root branch through real cube roots, three-real-root branch
    through the trigonometric form (avoiding complex cube-root branch cuts
    at the casus irreducibilis), and an explicit repeated-root branch when
    the discriminant sits below its double-precision noise floor.  Two
    Newton steps on the characteristic polynomial polish each root.
    """
    m = require_finite(np.asarray(matrix, dtype=float), "matrix entries")
    if m.shape != (3, 3):
        raise DimensionMismatchError("expected a 3x3 real matrix")

    tr = m[0, 0] + m[1, 1] + m[2, 2]
    minors = (
        m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
    )
    det = (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )
    b, c, d = -tr, minors, -det

    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    scale = max(1.0, abs(p) ** 0.5, abs(q) ** (1.0 / 3.0))
    disc = (0.5 * q) ** 2 + (p / 3.0) ** 3
    # |disc| below ~eps * scale^6 is indistinguishable from a repeated root.
    noise = 1e-14 * scale**6

    if disc > noise:
        s = np.sqrt(disc)
        uu = np.cbrt(-0.5 * q + s)
        vv = np.cbrt(-0.5 * q - s)
        t_real = uu + vv
        roots = np.array(
            [
                t_real,
                -0.5 * t_real + 0.5j * np.sqrt(3.0) * (uu - vv),
                -0.5 * t_real - 0.5j * np.sqrt(3.0) * (uu - vv),
            ]
        )
    elif disc < -noise:
        amp = 2.0 * np.sqrt(-p / 3.0)
        theta = np.arccos(np.clip(3.0 * q / (p * amp), -1.0, 1.0)) / 3.0
        roots = (amp * np.cos(theta - 2.0 * np.pi * np.arange(3) / 3.0)).astype(complex)
    else:
        if abs(p) <= 3.0 * noise ** (1.0 / 3.0):
            t_triple = np.cbrt(-q)
            roots = np.array([t_triple, t_triple, t_triple], dtype=complex)
        else:
            t_single = 3.0 * q / p
            t_double = -0.5 * t_single
            roots = np.array([t_single, t_double, t_double], dtype=complex)

    roots = roots + shift

    def charpoly(z):
        return z**3 + b * z**2 + c * z + d

    # Newton polish, accepting a step only when it reduces the residual
    # (at multiple roots f and f' are both noise and the raw step is junk).
    for _ in range(2):
        f = charpoly(roots)
        fp = 3.0 * roots**2 + 2.0 * b * roots + c
        safe = np.abs(fp) > 1e-30
        cand = np.where(safe, roots - f / np.where(safe, fp, 1.0), roots)
        better = np.abs(charpoly(cand)) < np.abs(f)
        roots = np.where(better, cand, roots)
    return roots


def stationary_state(
    system: SystemModel,
    decoherence: DecoherenceModel,
    u: float,
    n: float | Sequence[float],
) -> np.ndarray:
    """Null-space state of the generator: L vec(rho_ss) = 0.

    Raises :class:`DegenerateNullSpaceError` when the generator has more than
    one stationary direction (the second-smallest singular value also sits at
    the noise floor) -- the degeneracy is reported, not resolved.
    """
    gen = build_liouvillian(system, decoherence, u, n)
    norm = max(1.0, float(np.linalg.norm(gen, 2)))
    _, s, vh = np.linalg.svd(gen)
    if s[-2] < DEGENERACY_TOL * norm:
        raise DegenerateNullSpaceError(
            f"null space is (at least) two-dimensional: sigma={s[-2:].tolist()}"
        )
    candidate = herm(unvec(vh[-1].conj()))
    tr = float(np.trace(candidate).real)
    if abs(tr) < 1e-8:
        raise DegenerateNullSpaceError("null vector is traceless; no stationary state found")
    rho_ss = candidate / tr
    report: ValidationReport = validate_density(rho_ss, VALIDATION_TOL)
    if not report.ok:
        raise DegenerateNullSpaceError(f"null-space candidate is not a state ({report.worst})")
    return rho_ss
