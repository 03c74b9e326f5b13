"""Smoothed sandwiched divergences over epsilon-balls of subnormalized states.

The smoothed value for alpha in [1/2, 1) is a maximum over the ball
B_eps(rho) = {rho~ subnormalized : P(rho~, rho) <= eps}; for alpha > 1 it is a
minimum. Either way the trace functional Q = Tr[(A rho~ A)^alpha] is driven
downhill (1/(alpha-1) flips the sense for alpha < 1), by projected gradient
descent on a factor L with rho~ = L L^dag, multi-restart.

Returned values are certified only as one-sided heuristic bounds: any feasible
point lower-bounds a supremum and upper-bounds an infimum. Acceptance-grade
instances are those with known analytic optimizers, which are included among
the structured starts.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .errors import AlphaOutOfRange, DimensionCap, TheoryUnsupported
from .qmat import asmat, hermitize, mpow, sqrtm_psd

DIM_CAP = 16
BALL_SLACK = 1e-8        # allowed feasibility slack on returned optimizers
PROJ_BISECT_ITERS = 12


class Ball(enum.Enum):
    SUBNORMALIZED_PURIFIED = "subnormalized_purified"
    NORMALIZED_PURIFIED = "normalized_purified"
    SUBNORMALIZED_TRACE = "subnormalized_trace"


class Certified(enum.Enum):
    ANALYTIC_EXACT = "analytic_exact"
    HEURISTIC_LOWER_BOUND = "heuristic_lower_bound"
    HEURISTIC_UPPER_BOUND = "heuristic_upper_bound"


@dataclass
class SmoothingSpec:
    epsilon: float
    alpha: float
    ball: Ball = Ball.SUBNORMALIZED_PURIFIED
    restarts: int = 20
    max_iters: int = 5000
    grad_tol: float = 1e-9
    seed: int = 0


@dataclass
class SmoothedValue:
    value: float
    optimizer: np.ndarray
    certified: Certified
    alpha: float = 0.0
    epsilon: float = 0.0


@dataclass
class DpCheckResult:
    lhs: float
    rhs: float
    slack: float
    lifted: bool


# ---------------------------------------------------------------------------
# ball geometry
# ---------------------------------------------------------------------------

class _BallProjector:
    """Scale-and-mix retraction into the ball around a fixed center rho.

    Precomputes sqrt(rho) so that a root-fidelity evaluation costs one
    eigendecomposition of the candidate plus one SVD.
    """

    def __init__(self, rho: np.ndarray, eps: float, ball: Ball):
        self.rho = rho
        self.eps = eps
        self.ball = ball
        self.sqrt_rho = sqrtm_psd(rho)
        self.tr_rho = float(np.trace(rho).real)
        self.f_req = math.sqrt(max(0.0, 1.0 - eps * eps))

    def root_f(self, cand: np.ndarray) -> float:
        w, u = np.linalg.eigh(hermitize(cand))
        sc = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
        overlap = float(np.linalg.svd(sc @ self.sqrt_rho, compute_uv=False).sum())
        deficit = math.sqrt(max(0.0, 1.0 - float(np.trace(cand).real))
                            * max(0.0, 1.0 - self.tr_rho))
        return min(overlap + deficit, 1.0)

    def distance(self, cand: np.ndarray) -> float:
        if self.ball is Ball.SUBNORMALIZED_TRACE:
            return qmat.gen_trace_distance(cand, self.rho)
        return math.sqrt(max(0.0, 1.0 - self.root_f(cand) ** 2))

    def project(self, cand: np.ndarray) -> np.ndarray:
        cand = hermitize(cand)
        tr = float(np.trace(cand).real)
        if tr <= 0.0:
            return self.rho.copy()
        if self.ball is Ball.NORMALIZED_PURIFIED:
            cand = cand / tr
        elif tr > 1.0:
            cand = cand / tr

        if self.ball is Ball.SUBNORMALIZED_TRACE:
            delta = qmat.gen_trace_distance(cand, self.rho)
            if delta <= self.eps:
                return cand
            t = 1.0 - self.eps / delta
            return hermitize((1.0 - t) * cand + t * self.rho)

        rf0 = self.root_f(cand)
        if rf0 >= self.f_req:
            return cand
        # concavity of the root fidelity makes t_safe feasible; bisect toward 0
        t_safe = min(1.0, (self.f_req - rf0) / max(1.0 - rf0, 1e-15) + 1e-12)
        out = _bisect_mix(cand, self.rho, t_safe, lambda m: self.root_f(m) >= self.f_req)
        if self.ball is Ball.NORMALIZED_PURIFIED:
            tr = float(np.trace(out).real)
            if tr > 0:
                out = out / tr
        return out


def _bisect_mix(c: np.ndarray, anchor: np.ndarray, hi: float, feasible) -> np.ndarray:
    """(1 - t) c + t anchor at the smallest t in [0, hi] that PROJ_BISECT_ITERS
    halvings find feasible; the mix at hi itself must be feasible."""
    lo = 0.0
    for _ in range(PROJ_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if feasible((1.0 - mid) * c + mid * anchor):
            hi = mid
        else:
            lo = mid
    return hermitize((1.0 - hi) * c + hi * anchor)


def _factor(c: np.ndarray) -> np.ndarray:
    w, u = np.linalg.eigh(hermitize(c))
    return u * np.sqrt(np.clip(w, 0.0, None))


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

class _SandwichedObjective:
    """Q(c) = Tr[(A c A)^alpha] with A = sigma^((1-alpha)/(2 alpha))."""

    def __init__(self, sigma: np.ndarray, alpha: float):
        self.alpha = alpha
        self.a = mpow(sigma, (1.0 - alpha) / (2.0 * alpha))

    def q(self, c: np.ndarray) -> float:
        return qmat.trace_power(self.a @ c @ self.a, self.alpha)

    def qg(self, c: np.ndarray):
        qv, inner = qmat.trace_power_grad(self.a @ c @ self.a, self.alpha)
        return qv, hermitize(self.alpha * self.a @ inner @ self.a)


class _PetzObjective:
    """Q(c) = Tr[c^alpha B] with B = sigma^(1-alpha)."""

    def __init__(self, sigma: np.ndarray, alpha: float):
        self.alpha = alpha
        self.b = mpow(sigma, 1.0 - alpha)

    def q(self, c: np.ndarray) -> float:
        return float(np.trace(mpow(c, self.alpha) @ self.b).real)

    def qg(self, c: np.ndarray):
        w, u = np.linalg.eigh(hermitize(c))
        w = qmat.spectral_clip(w)
        bt = u.conj().T @ self.b @ u
        qv = float((w ** self.alpha * np.diag(bt).real).sum())
        wa = w ** self.alpha
        diff = w[:, None] - w[None, :]
        close = np.abs(diff) < 1e-14
        wm = np.clip(0.5 * (w[:, None] + w[None, :]), 1e-18, None)
        phi = np.where(close, self.alpha * wm ** (self.alpha - 1.0),
                       (wa[:, None] - wa[None, :]) / np.where(close, 1.0, diff))
        return qv, hermitize(u @ (phi * bt) @ u.conj().T)


# ---------------------------------------------------------------------------
# multi-restart projected descent
# ---------------------------------------------------------------------------

def _structured_starts(rho: np.ndarray, sigma: np.ndarray, eps: float, ball: Ball):
    starts = [rho.copy()]
    if ball is not Ball.NORMALIZED_PURIFIED:
        starts.append((1.0 - eps * eps) * rho)
    # tilts toward the kernel of sigma reach the analytic optimizers of the
    # embedding counterexamples
    w, u = qmat.eigh(sigma)
    kernel = [u[:, i] for i in range(len(w)) if w[i] <= 1e-12 * max(w[0], qmat.KERNEL_TOL)]
    wr, ur = qmat.eigh(rho)
    pure = wr[0] >= float(np.trace(asmat(rho)).real) - 1e-12
    for k in kernel[:2]:
        starts.append((1.0 - eps * eps) * rho + eps * eps * np.outer(k, k.conj()))
        if pure:
            phi = math.sqrt(max(0.0, 1.0 - eps * eps)) * ur[:, 0] + eps * k
            phi = phi / np.linalg.norm(phi)
            starts.append(np.outer(phi, phi.conj()))
    return starts


def _random_starts(rho: np.ndarray, eps: float, n: int, seed: int):
    d = rho.shape[0]
    rng = np.random.default_rng(seed)
    out = []
    for j in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        z = g @ g.conj().T
        z = z / np.trace(z).real
        w = rng.uniform(0.0, 2.0 * eps)
        cand = (1.0 - w) * rho + w * z
        if j % 3 == 2:
            cand = cand * (1.0 - eps * eps * rng.uniform(0.0, 1.0))
        out.append(cand)
    return out


class _SubspaceProjector:
    """Retraction for candidates confined to supp(sigma), measured against the
    original center. Mixing happens toward the best subspace anchor; when even
    the anchor misses the ball no feasible point is reported."""

    def __init__(self, base: _BallProjector, compress: np.ndarray):
        self.base = base
        self.v = compress
        rho_work = hermitize(compress.conj().T @ base.rho @ compress)
        tr = float(np.trace(rho_work).real)
        self.anchor = rho_work / tr if tr > 0 else rho_work
        self.anchor_ok = tr > 0 and self.distance(self.anchor) <= base.eps

    def distance(self, c: np.ndarray) -> float:
        return self.base.distance(self.v @ c @ self.v.conj().T)

    def project(self, c: np.ndarray):
        c = hermitize(c)
        tr = float(np.trace(c).real)
        if tr <= 0.0:
            return self.anchor if self.anchor_ok else None
        if self.base.ball is Ball.NORMALIZED_PURIFIED or tr > 1.0:
            c = c / tr
        if self.distance(c) <= self.base.eps:
            return c
        if not self.anchor_ok:
            return None
        return _bisect_mix(c, self.anchor, 1.0, lambda m: self.distance(m) <= self.base.eps)


def _optimize(rho: np.ndarray, sigma: np.ndarray, alpha: float, eps: float, ball: Ball,
              restarts: int, max_iters: int, grad_tol: float, seed: int,
              warm_starts=None, kind: str = "sandwiched"):
    if rho.shape[0] > DIM_CAP:
        raise DimensionCap(f"smoothing capped at dimension {DIM_CAP}")
    compress = None
    sig = sigma
    if alpha > 1.0:
        # the divergence is +inf off supp(sigma): confine candidates to it
        w, u = qmat.eigh(sigma)
        keep = w > 1e-12 * max(w[0], qmat.KERNEL_TOL)
        if not keep.all():
            compress = u[:, keep]
            sig = compress.conj().T @ sigma @ compress

    obj = _SandwichedObjective(sig, alpha) if kind == "sandwiched" else _PetzObjective(sig, alpha)

    proj = _BallProjector(rho, eps, ball)
    if compress is not None:
        rho_work = hermitize(compress.conj().T @ rho @ compress)
        if ball is not Ball.SUBNORMALIZED_TRACE:
            # Cauchy-Schwarz certificate: no subspace state can beat
            # sqrt(Tr P rho P) + deficit in root fidelity
            best_rf = (math.sqrt(max(0.0, float(np.trace(rho_work).real)))
                       + math.sqrt(max(0.0, 1.0 - proj.tr_rho)))
            if best_rf < proj.f_req - 1e-12:
                return math.inf, None
        sub = _SubspaceProjector(proj, compress)
        project = sub.project
        distance = sub.distance
    else:
        rho_work = rho
        project = proj.project
        distance = proj.distance

    starts = list(warm_starts or [])
    if compress is not None:
        starts = [hermitize(compress.conj().T @ s @ compress) for s in starts]
    starts += _structured_starts(rho_work, sig, eps, ball)
    starts += _random_starts(rho_work, eps, restarts, seed)

    # the first start reaching the strict minimum wins
    best_q, best_c = math.inf, None
    for s0 in starts:
        c0 = project(s0)
        if c0 is None or distance(c0) > eps + BALL_SLACK:
            continue
        q, c = _descend(obj, c0, project, max_iters, grad_tol)
        if distance(c) > eps + BALL_SLACK:
            continue
        if q < best_q:
            best_q, best_c = q, c
    if best_c is None:
        return math.inf if alpha > 1.0 else -math.inf, None
    if compress is not None:
        best_c = compress @ best_c @ compress.conj().T
    if best_q <= 0.0:
        value = math.inf if alpha < 1.0 else -math.inf
    else:
        value = float(np.log2(best_q)) / (alpha - 1.0)
    return value, hermitize(best_c)


def _descend(obj, c0, project, max_iters, grad_tol):
    """Backtracking gradient descent on the factor L of c = L L^dag, each trial
    retracted by project (which may return None for no feasible point);
    returns the best (Q, c) seen."""
    c = c0
    q, g = obj.qg(c)
    best_q, best_c = q, c
    ell = _factor(c)
    step = 0.1
    stall = 0
    for _ in range(max_iters):
        gl = g @ ell
        gn = float(np.linalg.norm(gl))
        if gn < grad_tol:
            break
        direction = gl / gn
        accepted = False
        q_new, cand = q, c
        for _ in range(10):
            ln = ell - step * direction
            cand = project(ln @ ln.conj().T)
            if cand is not None:
                q_new = obj.q(cand)
                if q_new < q - 1e-16:
                    accepted = True
                    break
            step *= 0.5
            if step < 1e-14:
                break
        if not accepted:
            break
        if q - q_new < 1e-15 * max(abs(q), 1.0):
            stall += 1
        else:
            stall = 0
        c = cand
        q, g = obj.qg(c)
        ell = _factor(c)
        step = min(step * 1.4, 1.0)
        if q < best_q:
            best_q, best_c = q, c
        if stall > 40:
            break
    return best_q, best_c


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def smoothed_sandwiched(rho, sigma, spec: SmoothingSpec, warm_starts=None) -> SmoothedValue:
    """Smoothed sandwiched divergence: max over the ball for alpha in [1/2,1),
    min for alpha > 1. Monotonicity in epsilon can be enforced by passing the
    smaller-epsilon optimizer through warm_starts."""
    alpha = spec.alpha
    if not (0.5 <= alpha < 1.0 or alpha > 1.0):
        raise AlphaOutOfRange(f"smoothing needs alpha in [1/2,1) or (1,inf), got {alpha}")
    if not 0.0 < spec.epsilon < 1.0:
        raise AlphaOutOfRange(f"epsilon must lie in (0,1), got {spec.epsilon}")
    r, s = asmat(rho), asmat(sigma)
    value, opt = _optimize(r, s, alpha, spec.epsilon, spec.ball, spec.restarts,
                           spec.max_iters, spec.grad_tol, spec.seed,
                           warm_starts=warm_starts, kind="sandwiched")
    cert = Certified.HEURISTIC_LOWER_BOUND if alpha < 1.0 else Certified.HEURISTIC_UPPER_BOUND
    return SmoothedValue(value, opt, cert, alpha=alpha, epsilon=spec.epsilon)


def smoothed_petz(rho, sigma, spec: SmoothingSpec) -> SmoothedValue:
    """Smoothed Petz divergence. Exists only for the counterexample suite; it
    fails data-processing for alpha < 1 and is not part of the supported API."""
    alpha = spec.alpha
    if not (0.0 < alpha < 1.0 or 1.0 < alpha <= 2.0):
        raise AlphaOutOfRange(f"Petz smoothing needs alpha in (0,1)U(1,2], got {alpha}")
    r, s = asmat(rho), asmat(sigma)
    value, opt = _optimize(r, s, alpha, spec.epsilon, spec.ball, spec.restarts,
                           spec.max_iters, spec.grad_tol, spec.seed, kind="petz")
    cert = Certified.HEURISTIC_LOWER_BOUND if alpha < 1.0 else Certified.HEURISTIC_UPPER_BOUND
    return SmoothedValue(value, opt, cert, alpha=alpha, epsilon=spec.epsilon)


def smoothed_monotone(rho, theory, alpha: float, epsilon: float,
                      restarts: int = 10, max_iters: int = 800, seed: int = 0) -> SmoothedValue:
    """Smoothed resource monotone min over free sigma of the smoothed divergence.

    Athermality has a singleton free set, so this is one smoothing run; for
    coherence the nested min-max is attacked by alternating optimization and
    the result is reported as a heuristic lower bound at the final sigma.
    """
    from . import monotones as mn

    spec = SmoothingSpec(epsilon=epsilon, alpha=alpha, restarts=restarts,
                         max_iters=max_iters, seed=seed)
    if isinstance(theory, mn.Athermality):
        return smoothed_sandwiched(rho, theory.gibbs, spec)
    if isinstance(theory, mn.Coherence):
        r = asmat(rho)
        q = mn.coherence_optimal_sigma(r, alpha)
        sv = None
        for _ in range(3):
            sv = smoothed_sandwiched(r, np.diag(q.astype(complex)), spec)
            if sv.optimizer is None:
                break
            q = mn.coherence_optimal_sigma(sv.optimizer, alpha)
        return sv
    raise TheoryUnsupported(f"smoothed monotone not available for {type(theory).__name__}")


def dp_check(rho, sigma, channel, alpha: float, epsilon: float,
             restarts: int = 6, max_iters: int = 400, seed: int = 0) -> DpCheckResult:
    """Numerical data-processing check for the smoothed divergence.

    Both sides run with matched optimizer budgets; the left side additionally
    seeds from the Petz-recovery pullback of the right side's optimizer, which
    is feasible by data-processing of the purified distance.
    """
    if not 0.5 <= alpha < 1.0:
        raise AlphaOutOfRange("dp_check is defined for alpha in [1/2, 1)")
    r, s = asmat(rho), asmat(sigma)
    er = qmat.apply_channel(r, channel)
    es = qmat.apply_channel(s, channel)
    spec = SmoothingSpec(epsilon=epsilon, alpha=alpha, restarts=restarts,
                         max_iters=max_iters, seed=seed)
    rhs = smoothed_sandwiched(er, es, spec)
    lifted = False
    warm = []
    if rhs.optimizer is not None:
        pullback = _petz_recovery(r, channel, er, rhs.optimizer)
        if pullback is not None:
            warm.append(pullback)
            lifted = True
    lhs = smoothed_sandwiched(r, s, spec, warm_starts=warm)
    return DpCheckResult(lhs=lhs.value, rhs=rhs.value, slack=lhs.value - rhs.value, lifted=lifted)


def _petz_recovery(rho: np.ndarray, channel, e_rho: np.ndarray, tau: np.ndarray):
    """Petz transpose map of the channel w.r.t. rho, applied to tau."""
    try:
        inv_sqrt = mpow(e_rho, -0.5)
        mid = inv_sqrt @ tau @ inv_sqrt
        adj = np.zeros_like(rho)
        for k in channel.kraus:
            adj += k.conj().T @ mid @ k
        root = sqrtm_psd(rho)
        out = hermitize(root @ adj @ root)
        w, u = np.linalg.eigh(out)
        out = (u * np.clip(w, 0.0, None)) @ u.conj().T
        tr = float(np.trace(out).real)
        if tr > 1.0:
            out = out / tr
        return out
    except Exception:
        return None


# ---------------------------------------------------------------------------
# Appendix-style counterexample suite
# ---------------------------------------------------------------------------

@dataclass
class SuiteRow:
    case: str
    alpha: float
    eps: float
    ball: Ball
    value_bits: float
    analytic_bits: float
    abs_err: float
    comparison: str = "eq"   # "eq" or "ge" (analytic value is a lower bound)
    optimizer: np.ndarray | None = None


def appendix_b_suite(alpha: float = 0.75, epsilon: float = 0.1,
                     restarts: int = 8, max_iters: int = 500, seed: int = 0):
    """The seven embedding/smoothing closed forms at one (alpha, eps) point.

    Rows 1-4 are the sandwiched values over normalized vs subnormalized balls
    in d=2 and its isometric embedding into d=3; rows 5-7 are the Petz
    analogues showing that no ball choice restores embedding invariance there.
    """
    rho2 = np.diag([1.0, 0.0]).astype(complex)
    sig2 = np.eye(2, dtype=complex) / 2.0
    rho3 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    sig3 = np.diag([0.5, 0.5, 0.0]).astype(complex)

    shift = -np.log2(1.0 - epsilon * epsilon)
    tgt_sand = 1.0 + (alpha / (1.0 - alpha)) * shift
    tgt_petz = 1.0 + (1.0 / (1.0 - alpha)) * shift

    cases = [
        ("sandwiched_normalized_2d", "sandwiched", Ball.NORMALIZED_PURIFIED, rho2, sig2, 1.0, "eq"),
        ("sandwiched_normalized_3d", "sandwiched", Ball.NORMALIZED_PURIFIED, rho3, sig3, tgt_sand, "eq"),
        ("sandwiched_subnormalized_2d", "sandwiched", Ball.SUBNORMALIZED_PURIFIED, rho2, sig2, tgt_sand, "eq"),
        ("sandwiched_subnormalized_3d", "sandwiched", Ball.SUBNORMALIZED_PURIFIED, rho3, sig3, tgt_sand, "eq"),
        ("petz_normalized_2d", "petz", Ball.NORMALIZED_PURIFIED, rho2, sig2, 1.0, "eq"),
        ("petz_normalized_3d", "petz", Ball.NORMALIZED_PURIFIED, rho3, sig3, tgt_petz, "ge"),
        ("petz_subnormalized_2d", "petz", Ball.SUBNORMALIZED_PURIFIED, rho2, sig2, tgt_sand, "eq"),
    ]

    rows = []
    for name, kind, ball, r, s, target, cmp_kind in cases:
        spec = SmoothingSpec(epsilon=epsilon, alpha=alpha, ball=ball,
                             restarts=restarts, max_iters=max_iters, seed=seed)
        sv = smoothed_sandwiched(r, s, spec) if kind == "sandwiched" else smoothed_petz(r, s, spec)
        rows.append(SuiteRow(case=name, alpha=alpha, eps=epsilon, ball=ball,
                             value_bits=sv.value, analytic_bits=target,
                             abs_err=sv.value - target, comparison=cmp_kind,
                             optimizer=sv.optimizer))
    return rows


def suite_csv_rows(rows):
    out = [("case", "alpha", "eps", "ball", "value_bits", "analytic_bits", "abs_err")]
    for r in rows:
        out.append((r.case, r.alpha, r.eps, r.ball.value, r.value_bits, r.analytic_bits, r.abs_err))
    return out
