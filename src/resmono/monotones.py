"""Resource monotones: free-set minimizations of the Renyi family.

Three free-set families are supported: athermality (singleton Gibbs state),
coherence (diagonal states), and pure bipartite entanglement (closed forms
from the Schmidt vector). The fidelity of coherence comes in a primal form
(concave maximization over the simplex) and a dual Alberti-type form

    F_coh(rho) = inf_{R > 0} Tr[rho R^-1] ||Delta(R)||_inf

whose optimizers cross-validate each other. The dual starts at the Uhlmann
transition operator of the primal optimum, which the KKT conditions of the
primal make dual-optimal, and one L-BFGS-B run polishes it before the value
is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import divergences as dv
from . import qmat
from .errors import (AlphaOutOfRange, DimensionCap, InvalidGibbs,
                     TheoryUnsupported)
from .qmat import ClassicalDist, asmat, hermitize

SIMPLEX_TOL = 1e-10      # objective-decrement stopping tolerance
PURITY_TOL = 1e-10
MULT_DIM_CAP = 16
KAPPA_CAP = 1e8           # largest condition number of a reported dual R
MONOTONE_ITERS = 2000     # mirror steps per start: a cap behind the SIMPLEX_TOL stop
PRIMAL_ITERS = 3000       # longer cap for the primal, which the dual is checked against
DUAL_FLOOR = 1e-10        # least eigenvalue of the dual's R: keeps it invertible
FEASIBLE_ITERS = 400      # subgradient steps per start; each bisection step reruns them
ROBUSTNESS_TOL = 1e-7     # bisection width in bits, below the 1e-6 the robustness tests allow
EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# free-set descriptors
# ---------------------------------------------------------------------------

class ResourceTheory:
    pass


class Athermality(ResourceTheory):
    """Free set = {gibbs}; gibbs must be full rank and normalized."""

    def __init__(self, gibbs):
        self.classical = qmat.is_classical(gibbs)
        if self.classical:
            probs = qmat.probs(gibbs)
            if abs(probs.sum() - 1.0) > qmat.TRACE_TOL or np.min(probs) <= 0:
                raise InvalidGibbs("Gibbs state must be normalized with full support")
            self.gibbs_probs = probs
            self.gibbs = np.diag(probs.astype(complex))
        else:
            g = asmat(gibbs)
            w = np.linalg.eigvalsh(hermitize(g))
            if abs(float(np.trace(g).real) - 1.0) > qmat.TRACE_TOL or w[0] <= 0:
                raise InvalidGibbs("Gibbs state must be normalized with full support")
            self.gibbs_probs = None
            self.gibbs = g


class Coherence(ResourceTheory):
    """Free set = states diagonal in the computational basis."""


class PureBipartiteEntanglement(ResourceTheory):
    """Free set = separable states; only pure input states are supported."""

    def __init__(self, d_a: int, d_b: int):
        self.d_a = int(d_a)
        self.d_b = int(d_b)


# ---------------------------------------------------------------------------
# simplex optimizers (entropic mirror descent keeps iterates interior)
# ---------------------------------------------------------------------------

def _mirror_opt(obj, grad, maximize, starts, iters):
    sign = 1.0 if maximize else -1.0
    best_val, best_q = -math.inf, None
    for q0 in starts:
        q = np.clip(np.asarray(q0, dtype=float), 1e-14, None)
        q = q / q.sum()
        val = sign * obj(q)
        step = 0.5
        for _ in range(iters):
            g = sign * grad(q)
            scale = np.max(np.abs(g))
            if scale < 1e-16:
                break
            accepted = False
            for _ in range(25):
                qn = q * np.exp(step * g / scale)
                qn = np.clip(qn, 1e-300, None)
                qn = qn / qn.sum()
                vn = sign * obj(qn)
                if vn > val + 1e-18:
                    accepted = True
                    break
                step *= 0.5
                if step < 1e-14:
                    break
            if not accepted:
                break
            improved = vn - val
            q, val = qn, vn
            step = min(step * 1.5, 50.0)
            if improved < SIMPLEX_TOL:
                break
        if val > best_val:
            best_val, best_q = val, q
    return sign * best_val, best_q


def _coherence_q_obj(rho: np.ndarray, alpha: float):
    """Objective Tr[M^alpha], M = diag(q)^c rho diag(q)^c, c = (1-a)/2a, and
    its analytic gradient in q."""
    c = (1.0 - alpha) / (2.0 * alpha)

    def obj(q):
        s = q ** c
        return qmat.trace_power((s[:, None] * rho) * s[None, :], alpha)

    def grad(q):
        s = q ** c
        _, inner = qmat.trace_power_grad((s[:, None] * rho) * s[None, :], alpha)
        rs = rho * s[None, :]
        diag = np.einsum("ij,ji->i", rs, inner).real
        return 2.0 * alpha * c * q ** (c - 1.0) * diag

    return obj, grad


def _coherence_log_obj(rho: np.ndarray, alpha: float):
    """The divergence log2(Tr[M^alpha]) / (alpha - 1) itself, M as above, and
    its gradient -(M^alpha)_ii / (q_i Tr[M^alpha] ln 2) in q. Both are summed
    from the spectrum of M over its largest eigenvalue, so no power under- or
    overflows at any order."""
    c = (1.0 - alpha) / (2.0 * alpha)

    def spectrum(q):
        s = q ** c
        w, u = np.linalg.eigh(hermitize((s[:, None] * rho) * s[None, :]))
        w = qmat.spectral_clip(w)
        return w[-1], (w / w[-1]) ** alpha, u

    def obj(q):
        top, p, _ = spectrum(q)
        return (alpha * math.log2(top) + math.log2(p.sum())) / (alpha - 1.0)

    def grad(q):
        _, p, u = spectrum(q)
        return -((np.abs(u) ** 2) @ p) / (q * p.sum() * math.log(2.0))

    return obj, grad


def _simplex_starts(rho: np.ndarray, restarts: int, seed: int):
    d = rho.shape[0]
    starts = [np.full(d, 1.0 / d)]
    diag = np.clip(np.diag(rho).real, 1e-12, None)
    starts.append(diag / diag.sum())
    rng = np.random.default_rng(seed)
    for _ in range(max(0, restarts - 2)):
        starts.append(rng.dirichlet(np.ones(d)))
    return starts


def coherence_monotone(rho, alpha: float, restarts: int = 10, iters: int = MONOTONE_ITERS,
                       seed: int = 0):
    """min over diagonal sigma of the sandwiched divergence, with its argmin.

    For alpha in [1/2,1) the trace functional is concave in sigma and is
    maximized; for alpha > 1 it is convex and minimized. Either way a
    stationary point of the mirror iteration is a global optimum. At orders
    where Tr[M^alpha] or its gradient overflows on the way (alpha > 1 far
    from the optimum), the descent reruns on the divergence itself, summed
    in the log domain by _coherence_log_obj.
    """
    r = asmat(rho)
    if abs(alpha - 1.0) < dv.ALPHA_ONE_WINDOW:
        q = np.clip(np.diag(r).real, 0.0, None)
        return relative_entropy_coherence(r), q / max(q.sum(), 1e-300)
    if math.isinf(alpha):
        return _robustness_coherence(r)
    obj, grad = _coherence_q_obj(r, alpha)
    starts = _simplex_starts(r, restarts, seed)
    maximize = alpha < 1.0
    try:
        with np.errstate(over="raise"):
            qval, qarg = _mirror_opt(obj, grad, maximize, starts, iters=iters)
    except FloatingPointError:
        # Tr[M^alpha] or its gradient overflowed: descend on the divergence in the log domain
        return _mirror_opt(*_coherence_log_obj(r, alpha), False, starts, iters=iters)
    if qval <= 0.0:
        return math.inf, qarg
    return float(np.log2(qval)) / (alpha - 1.0), qarg


def coherence_optimal_sigma(rho, alpha: float) -> np.ndarray:
    """The argmin q of coherence_monotone on a smaller budget (6 starts, 800
    steps): it only steers the alternation in smoothing.smoothed_monotone."""
    return coherence_monotone(rho, alpha, restarts=6, iters=800)[1]


def relative_entropy_coherence(rho) -> float:
    """D(rho || Delta(rho)) = S(Delta rho) - S(rho), the alpha=1 closed form."""
    r = asmat(rho)
    return qmat.vn_entropy(np.diag(np.diag(r))) - qmat.vn_entropy(r)


# ---------------------------------------------------------------------------
# the monotone family
# ---------------------------------------------------------------------------

def schmidt_vector(rho, d_a: int, d_b: int) -> np.ndarray:
    """Schmidt coefficients (squared) of a pure bipartite state, descending."""
    r = asmat(rho)
    if float(np.trace(r @ r).real) < 1.0 - PURITY_TOL:
        raise TheoryUnsupported("entanglement monotones support only pure states")
    red = qmat.partial_trace(r, [d_a, d_b], [0])
    w = np.clip(np.linalg.eigvalsh(hermitize(red)), 0.0, None)[::-1]
    return w / w.sum()


def monotone_alpha(rho, theory: ResourceTheory, alpha: float,
                   restarts: int = 10, seed: int = 0) -> float:
    """Resource monotone min over free sigma of the sandwiched divergence, bits."""
    if not (alpha >= 0.5 or math.isinf(alpha)):
        raise AlphaOutOfRange(f"monotone needs alpha in [1/2, inf], got {alpha}")
    if isinstance(theory, Athermality):
        if theory.classical and isinstance(rho, ClassicalDist):
            return dv.classical_renyi(rho, theory.gibbs_probs, alpha)
        return dv.sandwiched(asmat(rho), theory.gibbs, alpha)
    if isinstance(theory, Coherence):
        return coherence_monotone(rho, alpha, restarts=restarts, seed=seed)[0]
    if isinstance(theory, PureBipartiteEntanglement):
        lam = schmidt_vector(rho, theory.d_a, theory.d_b)
        if abs(alpha - 1.0) < dv.ALPHA_ONE_WINDOW:
            return dv.shannon_entropy(lam)
        if alpha == 0.5:
            return -float(np.log2(lam[0]))
        raise TheoryUnsupported("entanglement closed forms exist only for alpha in {1/2, 1}")
    raise TheoryUnsupported(f"unknown theory {type(theory).__name__}")


# ---------------------------------------------------------------------------
# fidelity of coherence: primal and dual
# ---------------------------------------------------------------------------

@dataclass
class CoherencePrimal:
    value: float
    argmax: np.ndarray


@dataclass
class CoherenceDual:
    value: float
    argmin_r: np.ndarray


def fidelity_coherence_primal(rho, restarts: int = 10, seed: int = 0) -> CoherencePrimal:
    """max over diagonal sigma of F(rho, sigma): concave in sigma."""
    r = asmat(rho)
    obj, grad = _coherence_q_obj(r, 0.5)   # Tr[M^1/2] = root fidelity to diag(q)
    starts = _simplex_starts(r, restarts, seed)
    root, q = _mirror_opt(obj, grad, True, starts, PRIMAL_ITERS)
    return CoherencePrimal(value=float(root ** 2), argmax=q)


def fidelity_coherence_dual(rho, restarts: int = 10, seed: int = 0) -> CoherenceDual:
    """Alberti-form dual: a certified upper bound on the fidelity of coherence.

    R is parameterized as N N^dag + floor*I (floor = DUAL_FLOOR) with unit-norm
    rows of N, which pins ||Delta(R)||_inf = 1 + floor and removes the scale
    flat direction. One L-BFGS-B run minimizes Tr[rho R^-1] (1 + floor) with
    its analytic gradient.

    The run starts at the Uhlmann transition operator of the primal optimum
    sigma = diag(q): M = sigma^-1/2 (sigma^1/2 rho sigma^1/2)^1/2 sigma^-1/2
    has Tr[rho M^-1] = sqrt F(rho, sigma), and stationarity of sqrt F on the
    simplex gives M_ii = sqrt F where q_i > 0 and M_ii <= sqrt F elsewhere,
    so Alberti's objective at R = M is F_coh itself. N starts as
    (M + floor*I)^1/2, with q floored at DUAL_FLOOR: the start is finite, and
    a zero row of rho leaves no zero row in N. `restarts` and `seed` steer the
    primal ascent (fidelity_coherence_primal) that supplies q.

    The optimizer's objective is not the reported value: near the optimum R
    is nearly singular, and a float evaluation of Tr[rho R^-1] there can fall
    below the true value by far more than its last digit. So the winning R is
    lifted by delta*I until its condition number is at most KAPPA_CAP (any
    R > 0 is dual-feasible), evaluated once through `eigh` as
    sum_i (U^dag rho U)_ii / w_i * max diag R, and multiplied by the rounding
    margin 1 + 4 d eps kappa. `value` is thus an upper bound on the exact
    dual objective at `argmin_r`, the lifted R, and hence on F_coh(rho).
    """
    r = asmat(rho)
    d = r.shape[0]
    eye = np.eye(d)

    def unpack(x):
        m = x[:d * d].reshape(d, d) + 1j * x[d * d:].reshape(d, d)
        norms = np.clip(np.sqrt((np.abs(m) ** 2).sum(axis=1)), 1e-12, None)[:, None]
        return m / norms, norms

    def obj_grad(x):
        n, norms = unpack(x)
        try:
            inv = np.linalg.inv(n @ n.conj().T + DUAL_FLOOR * eye)
        except np.linalg.LinAlgError:
            return 1e6, np.zeros_like(x)
        g = -2.0 * (1.0 + DUAL_FLOOR) * (inv @ r @ inv) @ n
        g = (g - np.sum(g * n.conj(), axis=1).real[:, None] * n) / norms   # through n_i = m_i/|m_i|
        return (float(np.trace(r @ inv).real) * (1.0 + DUAL_FLOOR),
                np.concatenate([g.real, g.imag]).ravel())

    s = np.sqrt(np.clip(fidelity_coherence_primal(r, restarts, seed).argmax, DUAL_FLOOR, None))
    trans = hermitize(qmat.sqrtm_psd(s[:, None] * r * s[None, :]) / np.outer(s, s))
    m0 = qmat.sqrtm_psd(trans + DUAL_FLOOR * eye)
    fit = optimize.minimize(obj_grad, np.concatenate([m0.real, m0.imag]).ravel(), jac=True,
                            method="L-BFGS-B",
                            options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12})
    n, _ = unpack(fit.x)
    big = hermitize(n @ n.conj().T + DUAL_FLOOR * eye)
    # certification: cap the condition number, then one eigh evaluation
    w, u = np.linalg.eigh(big)
    lift = max(0.0, (w[-1] - KAPPA_CAP * w[0]) / (KAPPA_CAP - 1.0))
    big, w = big + lift * eye, w + lift
    t = np.einsum("ji,jk,ki->i", u.conj(), r, u).real
    value = float(np.sum(t / w)) * float(np.max(np.diag(big).real))
    return CoherenceDual(value=value * (1.0 + 4.0 * d * EPS * w[-1] / w[0]), argmin_r=big)


@dataclass
class MultiplicativityReport:
    lhs: float
    rhs: float
    gap: float


def multiplicativity_check(rho, tau, restarts: int = 10, seed: int = 0) -> MultiplicativityReport:
    """F_coh(rho (x) tau) versus F_coh(rho) * F_coh(tau)."""
    r, t = asmat(rho), asmat(tau)
    if r.shape[0] * t.shape[0] > MULT_DIM_CAP:
        raise DimensionCap(f"product dimension exceeds {MULT_DIM_CAP}")
    lhs = fidelity_coherence_primal(np.kron(r, t), restarts=restarts, seed=seed).value
    rhs = (fidelity_coherence_primal(r, restarts=restarts, seed=seed).value
           * fidelity_coherence_primal(t, restarts=restarts, seed=seed).value)
    return MultiplicativityReport(lhs=lhs, rhs=rhs, gap=lhs - rhs)


# ---------------------------------------------------------------------------
# generalized robustness
# ---------------------------------------------------------------------------

def _feasible_dmax_coherence(c: np.ndarray) -> tuple[bool, np.ndarray]:
    """Is there a diagonal state q with diag(q) >= c? Subgradient descent on
    min over the simplex of lambda_max(c - diag q). Returns the verdict and the
    q with the least lambda_max found, which witnesses a True verdict."""
    d = c.shape[0]
    diag = np.clip(np.diag(c).real, 1e-12, None)
    best, best_q = math.inf, None
    for q0 in (np.full(d, 1.0 / d), diag / diag.sum()):
        q = q0.copy()
        for t in range(FEASIBLE_ITERS):
            w, u = np.linalg.eigh(hermitize(c - np.diag(q)))
            val = float(w[-1])
            if val < best:
                best, best_q = val, q
            if best <= 0.0:
                return True, best_q
            g = -np.abs(u[:, -1]) ** 2
            eta = 0.5 / math.sqrt(t + 1.0)
            q = q * np.exp(-eta * g / max(np.max(np.abs(g)), 1e-15))
            q = q / q.sum()
        val = float(np.linalg.eigvalsh(hermitize(c - np.diag(q)))[-1])
        if val < best:
            best, best_q = val, q
    return best <= 1e-9, best_q


def _robustness_coherence(r: np.ndarray):
    """log2 of the robustness with the diagonal state q that makes
    2^value diag(q) >= rho.

    A rank-one rho = psi psi^dag has the closed form log2 (sum_i |psi_i|)^2
    with q_i = |psi_i| / sum_j |psi_j| (Napoli et al., PRL 116, 150502
    (2016)); Cauchy-Schwarz makes that q certify it. Otherwise the value is
    the certified upper end hi of a bisection on log2 of the robustness.
    """
    d = r.shape[0]
    w = np.linalg.eigvalsh(hermitize(r))
    if np.count_nonzero(qmat.spectral_clip(w)) == 1:
        k = int(np.argmax(np.diag(r).real))
        a = np.abs(r[:, k]) / math.sqrt(r[k, k].real)     # |psi_i|, from rho's largest column
        hi, q_hi = math.log2(a.sum() ** 2), a / a.sum()
    else:
        if _feasible_dmax_coherence(r)[0]:
            return 0.0, np.clip(np.diag(r).real, 0, None)
        lo, hi = 0.0, math.log2(max(d * float(w[-1]), 1.0)) + 1e-6
        q_hi = np.full(d, 1.0 / d)     # 2^hi / d >= lambda_max(rho) at the starting hi
        while hi - lo > ROBUSTNESS_TOL:
            mid = 0.5 * (lo + hi)
            ok, q = _feasible_dmax_coherence(2.0 ** (-mid) * r)
            if ok:
                hi, q_hi = mid, q
            else:
                lo = mid
    # the bisection accepts lambda_max(c - diag q) <= 1e-9; spread any shortfall
    # of 2^hi diag(q) - rho over the diagonal, so that the returned pair has
    # 2^hi diag(q) >= rho up to the rounding of one eigvalsh
    short = max(0.0, -float(np.linalg.eigvalsh(hermitize(2.0 ** hi * np.diag(q_hi) - r))[0]))
    scale = 2.0 ** hi + d * short
    return math.log2(scale), (2.0 ** hi * q_hi + short) / scale


def generalized_robustness(rho, theory: ResourceTheory) -> float:
    """Log-robustness log2(1 + R_g) = min over free sigma of D_max(rho||sigma)."""
    if isinstance(theory, Athermality):
        if theory.classical and isinstance(rho, ClassicalDist):
            return dv.classical_renyi(rho, theory.gibbs_probs, math.inf)
        return dv.dmax(asmat(rho), theory.gibbs)
    if isinstance(theory, Coherence):
        return _robustness_coherence(asmat(rho))[0]
    raise TheoryUnsupported("generalized robustness supports athermality and coherence")


# ---------------------------------------------------------------------------
# free-operation samplers for property tests
# ---------------------------------------------------------------------------

def gibbs_preserving_channel(gibbs, weight: float) -> qmat.KrausChannel:
    """Mixture of the identity and the replace-with-gibbs map; both fix gibbs."""
    g = asmat(gibbs)
    d = g.shape[0]
    w, u = qmat.eigh(g)
    kraus = [math.sqrt(1.0 - weight) * np.eye(d, dtype=complex)]
    for i in range(d):
        for j in range(d):
            k = np.zeros((d, d), dtype=complex)
            k += math.sqrt(weight * max(w[i], 0.0)) * np.outer(u[:, i], np.conj(np.eye(d)[:, j]))
            kraus.append(k)
    return qmat.KrausChannel(kraus)


def dephasing_covariant_channel(d: int, seed: int) -> qmat.KrausChannel:
    """Random mixture of identity, full dephasing and a basis permutation."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.dirichlet(np.ones(3))
    eye = np.eye(d, dtype=complex)
    perm = rng.permutation(d)
    p = eye[:, perm]
    kraus = [math.sqrt(a) * eye]
    kraus += [math.sqrt(b) * np.outer(eye[:, i], eye[:, i]) for i in range(d)]
    kraus += [math.sqrt(c) * (p @ np.outer(eye[:, i], eye[:, i])) for i in range(d)]
    return qmat.KrausChannel(kraus)
