"""Resource monotones: free-set minimizations of the Renyi family.

Three free-set families are supported: athermality (singleton Gibbs state),
coherence (diagonal states), and pure bipartite entanglement (closed forms
from the Schmidt vector). The fidelity of coherence comes in a primal form
(the order-1/2 coherence monotone, F_coh = 2^-min_q D_1/2(rho || diag q))
and a dual Alberti-type form

    F_coh(rho) = inf_{R > 0} Tr[rho R^-1] ||Delta(R)||_inf

whose optimizers cross-validate each other. The dual starts at the Uhlmann
transition operator of the primal optimum, which the KKT conditions of the
primal make dual-optimal, and one L-BFGS-B run polishes it before the value
is certified.

The coherence monotones and the primal are found by entropic mirror descent
on the divergence D_alpha(rho || diag q) over the simplex (_mirror_opt,
_coherence_obj), at every order through one objective. All its starts
descend in lockstep as one (S, d) stack, so each iteration costs one stacked
eigh for the gradient and one stacked eigvalsh per backtracking round,
whatever the number of starts.

The coherence robustness (the alpha = inf monotone) is the SDP min Tr D over
diagonal D >= rho (Napoli et al., PRL 116, 150502 (2016)). A generalized
power method (Journee, Nesterov, Richtarik & Sepulchre, JMLR 11, 517 (2010))
ascends its unit-diagonal dual, and the result is a certified interval: the
dual value bounds it from below by weak duality, and the diagonal read off the
dual point, lifted to D >= rho, bounds it from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# free-set descriptors
# ---------------------------------------------------------------------------

class ResourceTheory:
    pass


class Athermality(ResourceTheory):
    """Free set = {gibbs}; gibbs must be full rank and normalized. It is kept
    as a ClassicalDist when given as a distribution, else as a matrix."""

    def __init__(self, gibbs):
        if qmat.is_classical(gibbs):
            g = ClassicalDist(qmat.probs(gibbs))
            total, least = g.probs.sum(), np.min(g.probs)
        else:
            g = asmat(gibbs)
            total, least = float(np.trace(g).real), np.linalg.eigvalsh(hermitize(g))[0]
        if abs(total - 1.0) > qmat.TRACE_TOL or least <= 0:
            raise InvalidGibbs("Gibbs state must be normalized with full support")
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

def _mirror_opt(obj, grad, starts, iters):
    """Entropic mirror descent (Beck & Teboulle 2003) on the simplex, every
    start at once: obj and grad map an (S, d) stack of distributions to S
    values and (S, d) gradients.

    Each row keeps its own step and stops on its own: when its gradient
    scale falls below 1e-16, when 25 halvings of its step (or a step below
    1e-14) find no descent, when an accepted step gains less than
    SIMPLEX_TOL, or after iters steps. One stacked grad call serves every
    live row per iteration, and one stacked obj call every row still
    halving per backtracking round, so each row evaluates exactly the trials
    it would evaluate alone. Returns the value and a copy of the argument of
    the first start with the strictly least value (None when no value is
    below +inf).
    """
    q = np.clip(np.asarray(starts, dtype=float), 1e-14, None)
    q = q / q.sum(axis=1, keepdims=True)
    val = obj(q)
    step = np.full(len(q), 0.5)
    live = np.arange(len(q))
    for _ in range(iters):
        if not live.size:
            break
        g = grad(q[live])
        scale = np.max(np.abs(g), axis=1)
        moving = ~(scale < 1e-16)
        live, g, scale = live[moving], g[moving], scale[moving]
        trying = np.ones(len(live), dtype=bool)
        accepted = np.zeros(len(live), dtype=bool)
        qn, vn = q[live], val[live]
        for _ in range(25):
            j = np.flatnonzero(trying)
            if not j.size:
                break
            rows = live[j]
            qt = q[rows] * np.exp(-step[rows, None] * g[j] / scale[j, None])
            qt = np.clip(qt, 1e-300, None)
            qt = qt / qt.sum(axis=1, keepdims=True)
            vt = obj(qt)
            hit = vt < val[rows] - 1e-18
            qn[j[hit]], vn[j[hit]] = qt[hit], vt[hit]
            accepted[j[hit]] = True
            step[rows[~hit]] *= 0.5
            trying[j] = ~hit & (step[rows] >= 1e-14)
        live = live[accepted]
        improved = val[live] - vn[accepted]
        q[live], val[live] = qn[accepted], vn[accepted]
        step[live] = np.minimum(step[live] * 1.5, 50.0)
        live = live[~(improved < SIMPLEX_TOL)]
    best = int(np.argmin(np.where(val < math.inf, val, math.inf)))
    if not val[best] < math.inf:
        return math.inf, None
    return float(val[best]), q[best].copy()


def _coherence_obj(rho: np.ndarray, alpha: float):
    """The divergence D_alpha(rho || diag q) = log2(Tr[M^alpha]) / (alpha - 1),
    M = diag(q)^c rho diag(q)^c, c = (1-a)/2a, and its gradient
    -(M^alpha)_ii / (q_i Tr[M^alpha] ln 2) in q, for each row of an (S, d)
    stack q. The value is read from the spectrum of M by
    divergences._renyi_of_spectra, and the gradient sums (w / w_max)^alpha,
    so neither under- nor overflows at any order."""
    c = (1.0 - alpha) / (2.0 * alpha)

    def sandwich(q):
        s = q ** c
        return hermitize((s[:, :, None] * rho) * s[:, None, :])

    def obj(q):
        return dv._renyi_of_spectra(qmat.spectral_clip(np.linalg.eigvalsh(sandwich(q))), alpha)

    def grad(q):
        w, u = np.linalg.eigh(sandwich(q))
        w = qmat.spectral_clip(w)
        p = (w / w[:, -1:]) ** alpha
        return -((np.abs(u) ** 2) @ p[:, :, None])[:, :, 0] / (
            q * p.sum(axis=1, keepdims=True) * math.log(2.0))

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

    The mirror descent runs on the divergence D_alpha(rho || diag q) itself
    (_coherence_obj) at every order. It is log2(Tr[M^alpha]) / (alpha - 1),
    a monotone function of a trace functional that is concave in q for alpha
    in [1/2,1) and convex for alpha > 1, so its stationary points on the
    simplex are those of the trace functional, and each is a global minimum.
    """
    r = asmat(rho)
    if abs(alpha - 1.0) < dv.ALPHA_ONE_WINDOW:
        q = np.clip(np.diag(r).real, 0.0, None)
        return relative_entropy_coherence(r), q / max(q.sum(), 1e-300)
    if math.isinf(alpha):
        return _robustness_coherence(r)[:2]
    return _mirror_opt(*_coherence_obj(r, alpha), _simplex_starts(r, restarts, seed), iters)


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
    if not alpha >= 0.5:
        raise AlphaOutOfRange(f"monotone needs alpha in [1/2, inf], got {alpha}")
    if isinstance(theory, Athermality):
        return dv.sandwiched(rho, theory.gibbs, alpha)
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
    """max over diagonal sigma of F(rho, sigma), as 2^-d for the least
    d = D_1/2(rho || sigma) = -log2 F(rho, sigma): the mirror descent of
    coherence_monotone at order 1/2, on a longer budget (PRIMAL_ITERS)."""
    r = asmat(rho)
    d, q = _mirror_opt(*_coherence_obj(r, 0.5), _simplex_starts(r, restarts, seed), PRIMAL_ITERS)
    return CoherencePrimal(value=float(2.0 ** -d), argmax=q)


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
    primal descent (fidelity_coherence_primal) that supplies q.

    The optimizer's objective is not the reported value: near the optimum R
    is nearly singular, and a float evaluation of Tr[rho R^-1] there can fall
    below the true value by far more than its last digit. So the winning R is
    lifted by delta*I until its condition number is at most KAPPA_CAP (any
    R > 0 is dual-feasible), evaluated once through `eigh` as
    sum_i (U^dag rho U)_ii / w_i * max diag R, and multiplied by the rounding
    margin 1 + 4 d eps kappa. `value` is thus an upper bound on the exact
    dual objective at `argmin_r`, the lifted R, and hence on F_coh(rho).
    """
    from scipy import optimize     # loaded on first use: it is most of start-up

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

def _robustness_coherence(r: np.ndarray):
    """The certified interval [lo, hi] of log2 of the robustness, with the
    diagonal state q that makes 2^hi diag(q) >= rho and the dual point W.
    Returns (hi, q, lo, W).

    The robustness is the SDP min Tr D over diagonal D >= rho (Napoli et al.,
    PRL 116, 150502 (2016)); its dual is max Tr[rho W] over W >= 0 with unit
    diagonal. W = V V^dag with unit rows is ascended by the generalized power
    method V <- rows-normalized(rho V) (Journee, Nesterov, Richtarik &
    Sepulchre, JMLR 11, 517 (2010)) from V = I, until the gain reaches
    rounding level; a zero row of rho V keeps its row of V. Weak duality
    makes lo = log2 Tr[rho W] a lower bound. D = diag(Re(rho W)_ii), lifted by
    its eigvalsh shortfall spread over the diagonal, is primal feasible up to
    the rounding of one eigvalsh, so hi = log2 Tr D is an upper bound with
    q = D / Tr D. At a fixed point the two meet.
    """
    d = r.shape[0]
    v = np.eye(d, dtype=complex)
    val = -math.inf
    for _ in range(PRIMAL_ITERS):
        rv = r @ v
        diag = np.sum(rv * v.conj(), axis=1).real       # Re(rho W)_ii
        prev, val = val, float(diag.sum())
        if val - prev <= d * EPS * val:
            break
        norms = np.linalg.norm(rv, axis=1)
        live = norms > 0.0
        v[live] = rv[live] / norms[live, None]
    short = max(0.0, -float(np.linalg.eigvalsh(hermitize(np.diag(diag) - r))[0]))
    scale = val + d * short
    return math.log2(scale), (diag + short) / scale, math.log2(val), v @ v.conj().T


def generalized_robustness(rho, theory: ResourceTheory) -> float:
    """Log-robustness log2(1 + R_g) = min over free sigma of D_max(rho||sigma)."""
    if isinstance(theory, Athermality):
        return dv.dmax(rho, theory.gibbs)
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
