"""Dense complex Hermitian matrix core: states, channels, distances.

All public quantities are in bits (base-2 logarithms). Subnormalized states
(trace < 1) are first class: fidelity, purified distance and the generalized
trace distance use the definitions valid on positive operators with trace at
most one,

    sqrt(F)(rho, sigma) = Tr|sqrt(rho) sqrt(sigma)| + sqrt((1-tr rho)(1-tr sigma))
    P(rho, sigma)       = sqrt(1 - F(rho, sigma))
    2 Delta(rho, sigma) = Tr|rho - sigma| + |Tr(rho - sigma)|
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidRank, NonHermitian

HERM_TOL = 1e-12       # entrywise tolerance for M == M^dagger
EVAL_NEG_TOL = 1e-10   # eigenvalues above -EVAL_NEG_TOL are clipped to 0
TRACE_TOL = 1e-10      # slack on trace <= 1, and on the unit sum of a Gibbs state or distribution
KERNEL_TOL = 1e-14     # eigenvalues <= KERNEL_TOL are kernel for powers t <= 0
SUPPORT_RTOL = 1e-12   # support_mask: eigenvalue threshold relative to the largest
SUM_TOL = 1e-12        # slack on classical sums
GEODESIC_MIN_ANGLE = 1e-6  # bures_geodesic: below this angle the direction from sigma to rho is rounding noise


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass
class DensityOperator:
    """Hermitian PSD matrix with 0 < trace <= 1 (subnormalized allowed)."""

    dim: int
    data: np.ndarray

    def __init__(self, data):
        data = np.asarray(data, dtype=complex)
        _check_psd(data)
        tr = float(np.trace(data).real)
        if not 0.0 < tr <= 1.0 + TRACE_TOL:
            raise ValueError(f"trace {tr} outside (0, 1]")
        self.dim = data.shape[0]
        self.data = data

    @property
    def trace(self) -> float:
        return float(np.trace(self.data).real)


def _check_psd(data: np.ndarray):
    """Raise unless data is a finite square Hermitian matrix with no eigenvalue
    below -EVAL_NEG_TOL."""
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("matrix has a NaN or infinite entry")
    if np.max(np.abs(data - data.conj().T)) > HERM_TOL:
        raise NonHermitian("matrix is not Hermitian within 1e-12")
    w = np.linalg.eigvalsh(hermitize(data))
    if w[0] < -EVAL_NEG_TOL:
        raise ValueError(f"matrix not PSD: min eigenvalue {w[0]:.3e}")


@dataclass
class ClassicalDist:
    """Finite nonnegative vector with sum <= 1 (subnormalized allowed)."""

    dim: int
    probs: np.ndarray

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1:
            raise DimensionMismatch("expected a 1-d vector")
        if not np.all(np.isfinite(probs)):
            raise ValueError("vector has a NaN or infinite entry")
        if np.min(probs) < -SUM_TOL:
            raise ValueError(f"negative entry {np.min(probs):.3e}")
        # an entry above 1 is refused before the sum, which it could overflow
        if np.max(probs) > 1.0 + SUM_TOL:
            raise ValueError(f"entry {np.max(probs)} exceeds 1")
        if probs.sum() > 1.0 + SUM_TOL:
            raise ValueError(f"sum {probs.sum()} exceeds 1")
        self.dim = probs.shape[0]
        self.probs = np.clip(probs, 0.0, None)


@dataclass
class KrausChannel:
    """CPTP map given by Kraus operators."""

    in_dim: int
    out_dim: int
    kraus: list

    def __init__(self, kraus):
        kraus = [np.asarray(k, dtype=complex) for k in kraus]
        if not kraus:
            raise ValueError("need at least one Kraus operator")
        out_dim, in_dim = kraus[0].shape
        if any(k.shape != (out_dim, in_dim) for k in kraus):
            raise DimensionMismatch("inconsistent Kraus shapes")
        s = sum(k.conj().T @ k for k in kraus)
        if np.max(np.abs(s - np.eye(in_dim))) > 1e-10:
            raise ValueError("Kraus completeness sum K^dag K != 1 within 1e-10")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.kraus = kraus


def probs(x) -> np.ndarray:
    """Coerce a ClassicalDist / 1-d array to a float vector.

    Anything else is a DimensionMismatch, raised before a cast to float could
    drop the imaginary part of a matrix.
    """
    if isinstance(x, ClassicalDist):
        return x.probs
    if np.ndim(x) != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {np.shape(x)}")
    return np.asarray(x, dtype=float)


def is_classical(x) -> bool:
    """A ClassicalDist, or a 1-d array that is not a DensityOperator."""
    return isinstance(x, ClassicalDist) or (not isinstance(x, DensityOperator)
                                            and np.asarray(x).ndim == 1)


def asmat(x) -> np.ndarray:
    """Coerce a DensityOperator / ClassicalDist / array to a complex matrix;
    a distribution is embedded on the diagonal."""
    if isinstance(x, DensityOperator):
        return x.data
    if isinstance(x, ClassicalDist):
        return np.diag(x.probs.astype(complex))
    m = np.asarray(x, dtype=complex)
    return np.diag(m) if m.ndim == 1 else m


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., n, n)."""
    return m.conj().swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + dag(m)) / 2.0


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------

def eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (w, U) with m = U diag(w) U^dag. Raises NonHermitian when the
    symmetry check fails.
    """
    m = asmat(m)
    if np.max(np.abs(m - m.conj().T)) > HERM_TOL:
        raise NonHermitian("matrix is not Hermitian within 1e-12")
    w, u = np.linalg.eigh(hermitize(m))
    order = np.argsort(w)[::-1]
    return w[order].real, u[:, order]


def spectral_clip(w: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues at noise level: below KERNEL_TOL or 1e-14 * max.

    Fractional powers amplify eigensolver noise (1e-16 noise contributes 1e-8
    to sum w^(1/2)), so rank-deficient inputs must be cleaned before powers.
    A stack of spectra (..., n) is cleaned row by row.
    """
    w = np.maximum(w, 0.0)
    thr = np.maximum(1e-14 * w.max(axis=-1, keepdims=True, initial=0.0), KERNEL_TOL)
    return np.where(w > thr, w, 0.0)


def mpow(m, t: float) -> np.ndarray:
    """Fractional matrix power of a PSD matrix with kernel convention.

    Eigenvalues at noise level are mapped to 0 (pseudo-power on the support
    for t <= 0); small negative eigenvalues are clipped.
    """
    w, u = eigh(m)
    w = spectral_clip(w)
    wt = _support_power(w, t) if t <= 0 else w ** t
    return (u * wt) @ u.conj().T


def _support_power(w: np.ndarray, t: float) -> np.ndarray:
    """w^t on the nonzero entries of a clipped spectrum, 0 on the kernel."""
    wt = np.where(w > 0.0, w, np.inf) ** t
    return np.where(w > 0.0, wt, 0.0)


def sqrtm_psd(m) -> np.ndarray:
    return mpow(m, 0.5)


def plog2m(m) -> np.ndarray:
    """Base-2 matrix logarithm on the support (kernel eigenvalues -> 0)."""
    w, u = eigh(m)
    lw = np.where(w > KERNEL_TOL, np.log2(np.where(w > KERNEL_TOL, w, 1.0)), 0.0)
    return (u * lw) @ u.conj().T


def support_mask(w: np.ndarray) -> np.ndarray:
    """The support of a descending spectrum w: eigenvalues above
    SUPPORT_RTOL * max(w[0], KERNEL_TOL)."""
    return w > SUPPORT_RTOL * max(float(w[0]), KERNEL_TOL)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def root_fidelity(rho, sigma) -> float:
    """Generalized root fidelity Tr|sqrt(rho) sqrt(sigma)| + deficit term."""
    r, s = asmat(rho), asmat(sigma)
    overlap = float(np.linalg.svd(sqrtm_psd(r) @ sqrtm_psd(s), compute_uv=False).sum())
    dr = max(0.0, 1.0 - float(np.trace(r).real))
    ds = max(0.0, 1.0 - float(np.trace(s).real))
    return min(overlap + np.sqrt(dr * ds), 1.0)


def fidelity(rho, sigma) -> float:
    """Generalized fidelity F = (root fidelity)^2, in [0, 1]."""
    return root_fidelity(rho, sigma) ** 2


def purified_distance(rho, sigma) -> float:
    return float(np.sqrt(max(0.0, 1.0 - fidelity(rho, sigma))))


def gen_trace_distance(rho, sigma) -> float:
    """Generalized trace distance (Tr|rho-sigma| + |Tr(rho-sigma)|) / 2."""
    d = asmat(rho) - asmat(sigma)
    trace_norm = float(np.abs(np.linalg.eigvalsh(hermitize(d))).sum())
    return 0.5 * (trace_norm + abs(float(np.trace(d).real)))


def bures_geodesic(rho, sigma, theta: float):
    """The Bures geodesic from sigma through rho, extended past rho by the angle theta.

    With A = arccos sqrt F(rho, sigma) the Bures angle and
    M = sigma^(-1/2) (sigma^(1/2) rho sigma^(1/2))^(1/2) sigma^(-1/2), so that
    rho = M sigma M, returns (omega, A + theta, ok) where omega = X sigma X and

        X = (sin(A + theta) M - sin(theta) I) / sin A.

    ok holds only when rho and sigma have unit trace, sigma has full rank,
    GEODESIC_MIN_ANGLE < A, A + theta < pi/2 and X >= 0. Then omega is a state
    with sqrt F(omega, rho) = cos(theta) and sqrt F(omega, sigma) = cos(A + theta):
    X commutes with M, and X and MX are PSD, so both overlaps of the purifications
    X sigma^(1/2), M sigma^(1/2) and sigma^(1/2) are trace norms. Otherwise omega
    is None (not computed) or the point the formula gives, and ok is False.
    """
    r, s = asmat(rho), asmat(sigma)
    ws, us = eigh(s)
    if (abs(np.trace(r).real - 1.0) > TRACE_TOL or abs(ws.sum() - 1.0) > TRACE_TOL
            or not support_mask(ws).all()):
        return None, math.nan, False
    half = (us * np.sqrt(ws)) @ dag(us)
    wc, uc = eigh(half @ r @ half)
    wc = np.sqrt(spectral_clip(wc))
    a = math.acos(min(1.0, float(wc.sum())))
    angle = a + theta
    if not (a > GEODESIC_MIN_ANGLE and angle < math.pi / 2.0):
        return None, angle, False
    inv_half = (us / np.sqrt(ws)) @ dag(us)
    m = inv_half @ ((uc * wc) @ dag(uc)) @ inv_half
    x = hermitize(math.sin(angle) * m - math.sin(theta) * np.eye(len(ws))) / math.sin(a)
    omega = hermitize(x @ s @ x)
    return omega, angle, bool(np.linalg.eigvalsh(x)[0] >= 0.0)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def tensor(a, b) -> np.ndarray:
    return np.kron(asmat(a), asmat(b))


def partial_trace(tau, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in keep.

    dims is the list of subsystem dimensions; keep is an iterable of indices
    into dims. Subsystem order is preserved.
    """
    tau = asmat(tau)
    dims = list(dims)
    n = len(dims)
    if tau.shape[0] != int(np.prod(dims)):
        raise DimensionMismatch(f"dims {dims} do not match matrix of size {tau.shape[0]}")
    keep = sorted(set(keep))
    if any(k < 0 or k >= n for k in keep):
        raise DimensionMismatch(f"keep indices {keep} out of range")
    t = tau.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(traced):
        axis = i - sum(1 for j in traced[:count] if j < i)
        nleft = len(t.shape) // 2
        t = np.trace(t, axis1=axis, axis2=axis + nleft)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def apply_channel(rho, ch: KrausChannel) -> np.ndarray:
    r = asmat(rho)
    if r.shape[0] != ch.in_dim:
        raise DimensionMismatch(f"state dim {r.shape[0]} != channel input dim {ch.in_dim}")
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for k in ch.kraus:
        out += k @ r @ k.conj().T
    return hermitize(out)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

def random_state(d: int, rank: int, seed: int) -> DensityOperator:
    """Deterministic random state GG^dag / tr with complex Gaussian G (d x rank)."""
    if not 1 <= rank <= d:
        raise InvalidRank(f"rank {rank} outside [1, {d}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return DensityOperator(hermitize(m / np.trace(m).real))


def random_channel(d_in: int, d_out: int, n_kraus: int, seed: int) -> KrausChannel:
    """Random channel from a Haar-ish isometry (QR of a Gaussian block matrix)."""
    if n_kraus < 1:
        raise InvalidRank("need at least one Kraus operator")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d_out * n_kraus, d_in)) + 1j * rng.standard_normal((d_out * n_kraus, d_in))
    q, _ = np.linalg.qr(g)
    return KrausChannel([q[i * d_out:(i + 1) * d_out, :] for i in range(n_kraus)])


def random_classical(d: int, seed: int) -> ClassicalDist:
    rng = np.random.default_rng(seed)
    p = rng.random(d) + 1e-3
    return ClassicalDist(p / p.sum())


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def vn_entropy(rho) -> float:
    """Von Neumann entropy in bits."""
    w = np.clip(np.linalg.eigvalsh(hermitize(asmat(rho))), 0.0, None)
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------

def matrix_to_json(m) -> str:
    m = asmat(m)
    return json.dumps({
        "dim": m.shape[0],
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    })


def matrix_from_json(s: str) -> np.ndarray:
    obj = json.loads(s)
    d = obj["dim"]
    re = np.asarray(obj["re"], dtype=float).reshape(d, d)
    im = np.asarray(obj["im"], dtype=float).reshape(d, d)
    return re + 1j * im

