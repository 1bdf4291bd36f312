"""Core quantum state and channel primitives.

Conventions used throughout the package:

* density matrices are plain ``numpy`` arrays of ``complex128``, Hermitian,
  unit trace, positive semidefinite;
* a Kraus map is a sequence of square matrices ``K_i`` with
  ``sum_i K_i^dag K_i = I``;
* qubit states map to Bloch vectors via ``rho = (I + r . sigma)/2`` with
  ``r_a = Tr(rho sigma_a)``;
* superoperators act on column-stacked states: ``vec(A)[i + N*j] = A[i, j]``.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

# Structural validation (Hermiticity, trace, positivity) default tolerance.
STRUCTURAL_TOL = 1e-9
# Relative size of an imaginary part that real Hermitian coordinates drop as
# roundoff (observed: below 1e-16 on random GKSL generators, d <= 4).
ROUNDOFF_TOL = 1e-13
# Armijo backtracking of the Stiefel ascent and the pulse descent:
# sufficient-change constant and step shrink factor.
ARMIJO_C = 1e-4
BACKTRACK = 0.5
# Trial-step limits of the two line searches: the largest first trial, the
# smallest spectral step (the pulse descent's is its underflow step) and the
# step below which the search gives up (underflow).
PULSE_STEP_CAP = 1e4
PULSE_STEP_UNDERFLOW = 1e-16
STIEFEL_STEP_CAP = 1e3
STIEFEL_STEP_FLOOR = 1e-10
STIEFEL_STEP_UNDERFLOW = 1e-14
# matrix entries that expm_stack exponentiates at a time (512 4x4 slices),
# which bounds its temporaries to about ten arrays of that size
EXPM_CHUNK_ELEMENTS = 8192
# Taylor-16 threshold: the largest theta with sum_{k>16} |c_k| theta^(k-1)
# <= 2^-53 for log(e^-x T_16(x)) = sum_k c_k x^k, a backward error within
# unit roundoff (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31, 970
# (2009)); T_16's coefficients 1/k! start at 1, so exp(0) is I bit for bit
_THETA_16 = 0.780287
_TAYLOR_16 = 1.0 / np.cumprod([1.0, *range(1, 17)])

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class DimensionMismatchError(ValueError):
    """Operands have incompatible or malformed dimensions."""


def _as_square(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def require_finite(value, name: str):
    """``value`` (a number or an array) if every entry is finite, else a
    ValueError naming ``name``: the package's one spelling of that rule."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")
    return value


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dag)/2."""
    return 0.5 * (a + a.conj().T)


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v)
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise DimensionMismatchError(f"vector of length {v.size} is not a square matrix")
    return v.reshape(n, n, order="F")


def hermitian_units(d: int) -> np.ndarray:
    """The d^2 units U_a (entries 0, +-1, +-i) on which d x d Hermitian
    matrices have real coordinates, the one place this layout is spelled:
    E_kk, then E_jk + E_kj, then i(E_kj - E_jk), over the pairs j < k in
    ``np.triu_indices`` order.  A Hermitian A has the coordinates
    Re Tr(U_a^dag A) / Tr(U_a^dag U_a): A_kk, then Re A_jk, then Im A_kj."""
    j, k = np.triu_indices(d, 1)
    diag, re = np.arange(d), d + np.arange(j.size)
    im = re + j.size
    units = np.zeros((d * d, d, d), dtype=complex)
    units[diag, diag, diag] = 1.0
    units[re, j, k] = units[re, k, j] = 1.0
    units[im, k, j], units[im, j, k] = 1j, -1j
    return units


def hermitian_basis(d: int) -> np.ndarray:
    """Coordinate map T of the orthonormal basis B_a of the
    :func:`hermitian_units`, the off-diagonal ones scaled by 1/sqrt(2).  Row a
    of T is vec(B_a)^dag, so T vec(A) are the coordinates Tr(B_a A) -- A_kk,
    sqrt(2) Re A_jk, sqrt(2) Im A_kj -- and T is unitary.  For a qubit the
    off-diagonal coordinates are x/sqrt(2) and y/sqrt(2) of the Bloch vector."""
    basis = hermitian_units(d)
    basis[d:] *= np.sqrt(0.5)
    return basis.transpose(0, 2, 1).reshape(d * d, d * d).conj()


def hermitian_coordinates(superop: np.ndarray) -> np.ndarray:
    """T S T^dag (T from :func:`hermitian_basis`) for a superoperator S that
    maps Hermitian matrices to Hermitian ones: a real matrix.  Raises
    ValueError when the imaginary part it drops is above roundoff, that is
    when S does not preserve Hermiticity or has an entry that is not finite."""
    require_finite(superop, "superoperator")
    t = hermitian_basis(int(round(np.sqrt(superop.shape[0]))))
    s = t @ superop @ t.conj().T
    dropped = float(np.max(np.abs(s.imag)))
    if dropped > ROUNDOFF_TOL * max(1.0, float(np.max(np.abs(s.real)))):
        raise ValueError(
            f"superoperator does not preserve Hermiticity: imaginary part {dropped:.3e} "
            "in Hermitian coordinates"
        )
    return np.ascontiguousarray(s.real)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a density-matrix validation.

    ``worst`` names the largest violation among ``hermiticity``, ``trace``
    and ``positivity`` (``finite`` for a NaN or infinite entry); the
    magnitudes are kept so callers can report how badly a state failed.
    """

    ok: bool
    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float
    worst: str


def validate_density(rho, tol: float = STRUCTURAL_TOL) -> ValidationReport:
    """Check the Hermiticity, trace and positivity invariants of a state.

    The positivity test runs on the symmetrized matrix (rho + rho^dag)/2 so
    a Hermiticity failure does not masquerade as a negative eigenvalue; it
    is skipped (``min_eigenvalue`` NaN) for a state with a non-finite entry.
    """
    if require_finite(tol, "tol") <= 0:
        raise ValueError("tol must be positive")
    m = _as_square(rho, "rho")
    if m.shape[0] < 2:
        raise DimensionMismatchError("density matrix must have dimension >= 2")
    herm_err = float(np.max(np.abs(m - m.conj().T)))
    trace_err = float(abs(np.trace(m) - 1.0))
    if not np.all(np.isfinite(m)):
        return ValidationReport(False, herm_err, trace_err, float("nan"), "finite")
    min_eig = float(np.linalg.eigvalsh(herm(m)).min())
    violations = {
        "hermiticity": herm_err,
        "trace": trace_err,
        "positivity": max(0.0, -min_eig),
    }
    worst = max(violations, key=violations.get)
    ok = herm_err <= tol and trace_err <= tol and min_eig >= -tol
    return ValidationReport(ok, herm_err, trace_err, min_eig, worst)


def bloch_from_density(rho) -> np.ndarray:
    """Bloch vector (x, y, z) of a qubit state, r_a = Tr(rho sigma_a)."""
    m = _as_square(rho, "rho")
    if m.shape != (2, 2):
        raise DimensionMismatchError("Bloch mapping requires a 2x2 state")
    return np.array([np.trace(m @ p).real for p in (PAULI_X, PAULI_Y, PAULI_Z)])


def density_from_bloch(r) -> np.ndarray:
    """Qubit state (I + r . sigma)/2 for a Bloch vector inside the unit ball."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise DimensionMismatchError("Bloch vector must have three components")
    norm = float(np.linalg.norm(r))
    if norm > 1.0 + STRUCTURAL_TOL:
        raise ValueError(f"Bloch vector has norm {norm} > 1")
    return 0.5 * (np.eye(2, dtype=complex) + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z)


def kraus_constraint_residual(kraus: Sequence[np.ndarray]) -> float:
    """Frobenius norm of sum_i K_i^dag K_i - I.

    Zero exactly when the operators form a trace-preserving map; invariant
    under unitary remixing of the operator list.
    """
    if len(kraus) == 0:
        raise ValueError("empty Kraus operator list")
    ops = [_as_square(k, "Kraus operator") for k in kraus]
    n = ops[0].shape[0]
    for k in ops[1:]:
        if k.shape != (n, n):
            raise DimensionMismatchError("Kraus operators must share one dimension")
    return float(np.linalg.norm(sum(k.conj().T @ k for k in ops) - np.eye(n)))


def apply_kraus(kraus: Sequence[np.ndarray], rho) -> np.ndarray:
    """Apply the channel rho -> sum_i K_i rho K_i^dag.

    Raises if the operator list misses the trace-preservation constraint by
    more than ``STRUCTURAL_TOL``.
    """
    m = _as_square(rho, "rho")
    residual = kraus_constraint_residual(kraus)
    if residual > STRUCTURAL_TOL:
        raise ValueError(
            f"Kraus constraint residual {residual:.3e} exceeds tolerance {STRUCTURAL_TOL:.3e}"
        )
    if np.asarray(kraus[0]).shape[0] != m.shape[0]:
        raise DimensionMismatchError("Kraus operators and state have different dimensions")
    out = np.zeros_like(m)
    for k in kraus:
        k = np.asarray(k, dtype=complex)
        out += k @ m @ k.conj().T
    return out


def expectation(rho, observable) -> float:
    """Tr(rho O); real for Hermitian inputs."""
    m = _as_square(rho, "rho")
    o = _as_square(observable, "observable")
    if m.shape != o.shape:
        raise DimensionMismatchError("state and observable have different dimensions")
    return float(np.trace(m @ o).real)


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix, Wishart construction."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = a @ a.conj().T
    return m / np.trace(m).real


def expm_stack(a) -> np.ndarray:
    """exp(A_i) of every slice of a real or complex (k, n, n) stack: the
    package's one matrix exponential, behind inGRAPE's segment and adjoint
    stacks, ``lindblad.propagate_schedule`` and the Bloch sampler's maps.

    Taylor-16 scaling and squaring with no linear solve, the power s_i taken
    per slice from its 1-norm (the least s_i >= 0 with ||A_i||_1 / 2^s_i <=
    theta_16).  A chunk of ``EXPM_CHUNK_ELEMENTS`` entries is sorted by s_i,
    so squaring step j multiplies its leading slices, those with s_i > j.
    Every step acts on each slice alone, so a slice's result is bit for bit
    the same whichever slices share the call.  A result that is not finite
    raises ValueError("matrix exponential must be finite").
    """
    a = np.asarray(a)
    if a.ndim != 3 or not 0 < a.shape[1] == a.shape[2]:
        raise DimensionMismatchError(f"expm_stack needs a (k, n, n) stack, got shape {a.shape}")
    out = np.empty(a.shape, np.result_type(a.dtype, np.float64))
    rows = max(1, EXPM_CHUNK_ELEMENTS // a.shape[1] ** 2)
    for first in range(0, a.shape[0], rows):
        chunk = a[first:first + rows]
        norm = reduce(np.maximum, reduce(np.add, np.abs(chunk).transpose(1, 0, 2)).T)
        mantissa, exponent = np.frexp(norm / _THETA_16)  # norm: the 1-norms, as folds for speed
        s = np.maximum(exponent - (mantissa == 0.5), 0)  # ceil(log2(.)), exactly
        order = np.argsort(-s, kind="stable")
        s = s[order]
        r = _taylor_16(chunk[order] * np.ldexp(1.0, -s)[:, None, None])
        for c in np.searchsorted(-s, -np.arange(s[0])):  # step j: the c slices with s_i > j
            r[:c] = r[:c] @ r[:c]
        out[first:first + rows][order] = require_finite(r, "matrix exponential")
    return out


def _taylor_16(x: np.ndarray) -> np.ndarray:
    """T_16(X_i) = sum_{k<=16} c_k X_i^k (c_k = 1/k!) per slice, by Paterson-Stockmeyer
    in six products: X^2, X^3, X^4, then the Horner steps in X^4 of
    (((c_16 X^4 + B_3) X^4 + B_2) X^4 + B_1) X^4 + B_0, B_i = sum_{k<4} c_{4i+k} X^k."""
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    p = _TAYLOR_16[16] * x4
    for i in (3, 2, 1, 0):
        if i < 3:
            p = p @ x4
        for k, xk in enumerate((x, x2, x3), 1):
            p += _TAYLOR_16[4 * i + k] * xk
        # p is a fresh product, so the reshape is a view: its diagonal, strided
        p.reshape(len(p), -1)[:, :: x.shape[1] + 1] += _TAYLOR_16[4 * i]
    return p


def __getattr__(name: str):
    """PEP 562 hook that ``ingrape``, ``lindblad`` and ``reachable`` import: the name
    ``expm`` gives scipy's, imported only then, for perfbench's ``EXPM_CALLERS``."""
    if name != "expm":
        raise AttributeError(f"module has no attribute {name!r}")
    from scipy.linalg import expm
    return expm


def spectral_step(dx: np.ndarray, dg: np.ndarray, step: float, floor: float, cap: float) -> float:
    """Barzilai-Borwein step |<dx, dg>| / <dg, dg> for the last move dx and
    the gradient change dg (real parts of the inner products), clamped to
    [floor, cap]; ``step`` when <dg, dg> is 0 or the ratio is not finite
    and positive."""
    dx, dg = np.ravel(dx), np.ravel(dg)
    denom = float(np.real(np.vdot(dg, dg)))
    if denom > 0:
        bb = abs(float(np.real(np.vdot(dx, dg)))) / denom
        if np.isfinite(bb) and bb > 0:
            return min(max(bb, floor), cap)
    return step


def run_multistart(task: Callable, starts: int, seed: int, workers: int = 1) -> list:
    """The results of ``task(seeds)``, one per seed, for the ``starts`` child
    seeds that ``SeedSequence(seed).spawn`` gives, in start order.  The
    seeds go out in contiguous blocks: all in one block when ``workers`` is
    1, else one block per process of a pool of ``workers`` (``task`` must
    then pickle).  The results do not depend on ``workers`` as long as
    ``task``'s result for a seed does not depend on the rest of its block."""
    if starts < 1:
        raise ValueError("starts must be >= 1")
    seeds = [int(ss.generate_state(1)[0]) for ss in np.random.SeedSequence(seed).spawn(starts)]
    if workers <= 1:
        return list(task(seeds))
    blocks = min(workers, starts)
    with concurrent.futures.ProcessPoolExecutor(max_workers=blocks) as pool:
        futures = [
            pool.submit(task, seeds[b * starts // blocks:(b + 1) * starts // blocks])
            for b in range(blocks)
        ]
        return [r for f in futures for r in f.result()]
