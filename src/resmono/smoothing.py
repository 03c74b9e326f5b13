"""Smoothed sandwiched divergences over epsilon-balls of subnormalized states.

The smoothed value for alpha in [1/2, 1) is a maximum over the ball
B_eps(rho) = {rho~ subnormalized : P(rho~, rho) <= eps}; for alpha > 1 it is a
minimum. Either way the trace functional Q = Tr[(A rho~ A)^alpha] is driven
downhill (1/(alpha-1) flips the sense for alpha < 1), by projected gradient
descent on a factor L with rho~ = L L^dag, multi-restart.

The engine works on stacks of candidates (S, d, d). All starts descend
together as one stack: each keeps its own step and backtracking, and stops
on its own, when its gradient vanishes, when a round of backtracking finds
no descent or at the iteration cap, or once it can no longer overtake the
leader, the first start with the least value so far (_descend). What a
start can still gain is its recent gains carried forward: as a geometric
series where they decay, capped by the largest of them repeated over the
iterations left (_remaining_gain). Backtracking tries two steps, s and s/2,
in one stacked projection, since most iterations reject the first and take
the second. The winner is the first start, in start order, that reaches the
strict minimum. A root fidelity is one eigvalsh of an r x r matrix,
r = rank(rho). The retraction into a purified ball mixes each candidate
outside it toward rho until its margin, the root fidelity minus the value
the radius requires, turns >= 0. Concavity of the root fidelity bounds the
mixing weight by some hi, and a regula-falsi search over the 4096 cells of
[0, hi] finds the crossing cell with about three margin evaluations per
candidate, stacked into about two eigvalsh calls per projection
(_BallProjector, _cell_search).

Values from the descent are certified only as one-sided heuristic bounds: any
feasible point lower-bounds a supremum and upper-bounds an infimum.
Acceptance-grade instances are those with known analytic optimizers, which are
included among the structured starts.

At alpha = 1/2 on either purified ball the maximum has a closed form,
-2 log2 cos(A + arcsin eps) with A the Bures angle of (rho, sigma), attained
on the Bures geodesic from sigma through rho extended past rho. It is
returned, labelled ANALYTIC_EXACT and without any descent, when rho and sigma
are normalized, sigma has full rank, 0 < A, A + arcsin eps < pi/2, the
geodesic factor X is PSD (qmat.bures_geodesic) and the geodesic point passes
the engine's own ball test (_geodesic_optimum). Otherwise the descent runs
as for every other order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .divergences import _pair
from .errors import AlphaOutOfRange, DimensionCap, ResmonoError, TheoryUnsupported
from .qmat import asmat, dag, hermitize, mpow, sqrtm_psd

DIM_CAP = 16
BALL_SLACK = 1e-8        # allowed feasibility slack on returned optimizers
CELLS = 4096             # cells of the boundary search: the resolution of twelve halvings
GRAD_TOL = 1e-9          # a start stops once its factor gradient norm falls below this
WINDOW = 40              # iterations the leader rule looks back over


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
    seed: int = 0


@dataclass
class SmoothedValue:
    value: float
    optimizer: np.ndarray
    certified: Certified


@dataclass
class DpCheckResult:
    lhs: float
    rhs: float
    slack: float
    lifted: bool


# ---------------------------------------------------------------------------
# ball geometry
# ---------------------------------------------------------------------------

def _trace(c: np.ndarray) -> np.ndarray:
    return np.trace(c, axis1=-2, axis2=-1).real


def _mix(x: np.ndarray, y, t: np.ndarray) -> np.ndarray:
    """(1 - t) x + t y for each row of the stack x and a single y; t has shape
    (S,) for one mix per row or (S, K) for K mixes of each row."""
    t = t.reshape(t.shape + (1,) * (x.ndim - 1))
    if t.ndim > x.ndim:
        x = x[:, None]
    return (1.0 - t) * x + t * y


def _cell_search(margin, m0: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, t = hi j / CELLS for a cell j whose evaluated margin is >= 0
    while that of j - 1 is < 0, or hi where even hi fails.

    margin(rows, t) evaluates those rows at t of shape (len(rows), K); m0 < 0
    is each row's margin at t = 0. One call at t = hi opens the bracket
    [0, CELLS] of cells. Each round evaluates the pair (j - 1, j) at the
    regula-falsi root of the bracket in one call and keeps the cells whose
    margins straddle zero. After two rounds that did not halve the bracket
    the pair goes to its midpoint, so every three rounds at least halve it.
    On a margin monotone over the probed cells this is the cell that twelve
    halvings of [0, hi] reach. On a concave margin the chord lies below the
    margin, so the root never falls short of the crossing; over the short
    mixing range of a descent step one pair mostly finds it.
    """
    n = len(hi)
    a, b = np.zeros(n, dtype=np.int64), np.full(n, CELLS)
    ma, mb = m0.astype(float), margin(np.arange(n), hi[:, None])[:, 0]
    live = np.flatnonzero(mb >= 0.0)
    slow = np.zeros(n, dtype=np.int64)
    while True:
        live = live[b[live] - a[live] > 1]
        if not live.size:
            break
        al, bl = a[live], b[live]
        secant = al + (bl - al) * (ma[live] / (ma[live] - mb[live]))
        guess = np.where(slow[live] < 2, np.ceil(secant), (al + bl + 1) // 2)
        # the pair lies in (a, b]: cell a has been evaluated already
        j = np.fmin(np.fmax(guess, al + 2), bl).astype(np.int64)
        mp = margin(live, hi[live, None] * (np.stack([j - 1, j], axis=1) / CELLS))
        low_ok, high_ok = mp[:, 0] >= 0.0, mp[:, 1] >= 0.0
        # low point accepted: the bracket ends at j - 1; otherwise it starts at
        # j - 1 and, unless the high point is accepted, at j
        a_new = np.where(low_ok, al, np.where(high_ok, j - 1, j))
        b_new = np.where(low_ok, j - 1, np.where(high_ok, j, bl))
        ma[live] = np.where(low_ok, ma[live], np.where(high_ok, mp[:, 0], mp[:, 1]))
        mb[live] = np.where(low_ok, mp[:, 0], np.where(high_ok, mp[:, 1], mb[live]))
        slow[live] = np.where(2 * (b_new - a_new) <= bl - al, 0, slow[live] + 1)
        a[live], b[live] = a_new, b_new
    return hi * (b / CELLS)


class _BallProjector:
    """Scale-and-mix retraction of a stack of candidates into the ball of
    radius eps around rho.

    Candidates are scaled to trace one (normalized ball) or to at most one,
    then mixed toward an anchor until they reach the ball. Without compress
    the candidates live in C^d and the anchor is rho. With compress (d x k
    orthonormal columns, the support of a singular sigma at alpha > 1) they
    live in that subspace, are measured against rho after embedding, and the
    anchor is the normalized compression of rho; when even the anchor misses
    the ball, no feasible point is reported.

    Root fidelities are computed on supp(rho). With W = U_r diag(sqrt(w_r))
    from the clipped spectrum of rho, Tr|sqrt(c) sqrt(rho)| is the sum of the
    square roots of the eigenvalues of the r x r matrix W^dag c W: one eigvalsh
    per candidate. Unlike sqrt(rho) c sqrt(rho), it has no eigenvalues on the
    kernel of rho, which would be rounding noise that the square root
    amplifies. The trace ball around rho keeps its closed form: mixing toward
    the center shrinks the distance linearly.

    Otherwise a candidate outside the ball is mixed toward the anchor by the
    weight that _cell_search finds on the margin: rf - f_req on a purified
    ball, eps minus the trace distance on the compressed trace ball, both
    concave in the weight t and >= 0 inside. W^dag c W is affine in t along a
    mix, so each round of the search is one stacked eigvalsh. Toward rho the
    root fidelity is at least (1 - t) rf + t, which bounds the weight by
    hi = (f_req - rf) / (1 - rf); toward a compressed anchor hi is 1.
    """

    def __init__(self, rho: np.ndarray, eps: float, ball: Ball, compress=None):
        self.rho = rho
        self.eps = eps
        self.ball = ball
        self.v = compress
        w, u = qmat.eigh(rho)
        w = qmat.spectral_clip(w)
        self.w = u[:, w > 0.0] * np.sqrt(w[w > 0.0])
        self.tr_rho = float(np.trace(rho).real)
        self.f_req = math.sqrt(max(0.0, 1.0 - eps * eps))
        if compress is None:
            self.anchor, self.anchor_ok = rho, True
        else:
            self.w = dag(compress) @ self.w
            work = hermitize(dag(compress) @ rho @ compress)
            tr = float(np.trace(work).real)
            self.anchor = work / tr if tr > 0 else work
            self.anchor_ok = bool(tr > 0 and self.distance(self.anchor) <= eps)
        self.m_anchor, self.tr_anchor = self._image(self.anchor), float(np.trace(self.anchor).real)

    def _image(self, c: np.ndarray) -> np.ndarray:
        """The affine image of a candidate whose spectrum gives its distance:
        W^dag c W for a purified ball, embedded c minus rho for the trace ball."""
        if self.ball is Ball.SUBNORMALIZED_TRACE:
            return (c if self.v is None else self.v @ c @ dag(self.v)) - self.rho
        return hermitize(dag(self.w) @ c @ self.w)

    def _rf(self, m: np.ndarray, tr) -> np.ndarray:
        overlap = np.sqrt(qmat.spectral_clip(np.linalg.eigvalsh(m))).sum(axis=-1)
        deficit = np.sqrt(np.clip(1.0 - tr, 0.0, None) * max(0.0, 1.0 - self.tr_rho))
        return np.minimum(overlap + deficit, 1.0)

    def _tdist(self, m: np.ndarray, tr) -> np.ndarray:
        return 0.5 * (np.abs(np.linalg.eigvalsh(m)).sum(axis=-1) + np.abs(tr - self.tr_rho))

    def _margin(self, m: np.ndarray, tr) -> np.ndarray:
        """How far inside the ball a candidate lies: rf - f_req on a purified
        ball, eps minus the distance on the trace ball; >= 0 inside."""
        if self.ball is Ball.SUBNORMALIZED_TRACE:
            return self.eps - self._tdist(m, tr)
        return self._rf(m, tr) - self.f_req

    def root_f(self, c: np.ndarray):
        """Generalized root fidelity with rho of a candidate, or of each
        candidate of a stack."""
        return self._rf(self._image(c), _trace(c))

    def distance(self, c: np.ndarray):
        if self.ball is Ball.SUBNORMALIZED_TRACE:
            return self._tdist(self._image(c), _trace(c))
        return np.sqrt(np.clip(1.0 - self.root_f(c) ** 2, 0.0, None))

    def inside(self, c: np.ndarray):
        """The ball test that a returned optimizer must pass, per candidate."""
        return self.distance(c) <= self.eps + BALL_SLACK

    def project(self, c: np.ndarray):
        """Retract a stack (S, n, n); returns the retracted stack and a mask of
        the rows that have a feasible point."""
        c = hermitize(c)
        tr = _trace(c)
        zero = tr <= 0.0
        scale = ~zero & ((self.ball is Ball.NORMALIZED_PURIFIED) | (tr > 1.0))
        c[scale] /= tr[scale, None, None]
        c[zero] = self.anchor
        ok = ~zero | self.anchor_ok
        m, tr = self._image(c), _trace(c)

        if self.ball is Ball.SUBNORMALIZED_TRACE:
            delta = self._tdist(m, tr)
            far = np.flatnonzero(delta > self.eps)
            if self.v is None:
                t = 1.0 - self.eps / delta[far]
                c[far] = hermitize(_mix(c[far], self.rho, t))
                return c, ok
            m0 = self.eps - delta[far]
        else:
            rf = self._rf(m, tr)
            far = np.flatnonzero(rf < self.f_req)
            m0 = rf[far] - self.f_req
        if not self.anchor_ok:
            ok[far] = False
            return c, ok
        if far.size:
            hi = np.ones(len(far))
            if self.v is None:
                # concavity of the root fidelity makes hi feasible on the way to rho
                hi = np.minimum(1.0, (self.f_req - rf[far]) / np.maximum(1.0 - rf[far], 1e-15) + 1e-12)
            mf, trf = m[far], tr[far]
            t = _cell_search(lambda rows, t: self._margin(_mix(mf[rows], self.m_anchor, t),
                                                          _mix(trf[rows], self.tr_anchor, t)),
                             m0, hi)
            c[far] = hermitize(_mix(c[far], self.anchor, t))
            if self.ball is Ball.NORMALIZED_PURIFIED:
                c[far] /= _trace(c[far])[:, None, None]
        return c, ok


# ---------------------------------------------------------------------------
# objectives, evaluated on a stack of candidates
# ---------------------------------------------------------------------------

class _SandwichedObjective:
    """Q(c) = Tr[(A c A)^alpha] with A = sigma^((1-alpha)/(2 alpha)), from the
    noise-clipped spectrum of each A c A in the stack.

    The gradient is alpha A M A with M = (A c A)^(alpha-1) taken on supp(A c A):
    the derivative of Q along a Hermitian h supported there is Tr[grad h].
    """

    def __init__(self, sigma: np.ndarray, alpha: float):
        self.alpha = alpha
        self.a = mpow(sigma, (1.0 - alpha) / (2.0 * alpha))

    def q(self, c: np.ndarray) -> np.ndarray:
        w = qmat.spectral_clip(np.linalg.eigvalsh(hermitize(self.a @ c @ self.a)))
        return (w ** self.alpha).sum(axis=-1)

    def qg(self, c: np.ndarray):
        w, u = np.linalg.eigh(hermitize(self.a @ c @ self.a))
        w = qmat.spectral_clip(w)
        inner = (u * qmat._support_power(w, self.alpha - 1.0)[..., None, :]) @ dag(u)
        return (w ** self.alpha).sum(axis=-1), hermitize(self.alpha * self.a @ inner @ self.a)


class _PetzObjective:
    """Q(c) = Tr[c^alpha B] with B = sigma^(1-alpha)."""

    def __init__(self, sigma: np.ndarray, alpha: float):
        self.alpha = alpha
        self.b = mpow(sigma, 1.0 - alpha)

    def _spectral(self, c: np.ndarray):
        w, u = np.linalg.eigh(hermitize(c))
        w = qmat.spectral_clip(w)
        bt = dag(u) @ self.b @ u
        qv = (w ** self.alpha * np.diagonal(bt, axis1=-2, axis2=-1).real).sum(axis=-1)
        return qv, w, u, bt

    def q(self, c: np.ndarray) -> np.ndarray:
        return self._spectral(c)[0]

    def qg(self, c: np.ndarray):
        qv, w, u, bt = self._spectral(c)
        wa = w ** self.alpha
        diff = w[..., :, None] - w[..., None, :]
        close = np.abs(diff) < 1e-14
        wm = np.clip(0.5 * (w[..., :, None] + w[..., None, :]), 1e-18, None)
        phi = np.where(close, self.alpha * wm ** (self.alpha - 1.0),
                       (wa[..., :, None] - wa[..., None, :]) / np.where(close, 1.0, diff))
        return qv, hermitize(u @ (phi * bt) @ dag(u))


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
    kernel = list(u[:, ~qmat.support_mask(w)].T)
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


def _check_epsilon(eps: float):
    if not 0.0 < eps < 1.0:
        raise AlphaOutOfRange(f"epsilon must lie in (0,1), got {eps}")


def _checked(rho, sigma, spec: SmoothingSpec):
    """rho and sigma as matrices, rejected unless epsilon lies in (0, 1), their
    shapes agree and the dimension is within DIM_CAP."""
    _check_epsilon(spec.epsilon)
    rho, sigma = _pair(rho, sigma)
    if rho.shape[0] > DIM_CAP:
        raise DimensionCap(f"smoothing capped at dimension {DIM_CAP}")
    return rho, sigma


def _geodesic_optimum(rho, sigma, spec: SmoothingSpec):
    """The exact alpha = 1/2 maximum over a purified ball, or None.

    For every rho~ in either purified ball around a normalized rho, the
    triangle inequality of the Bures angle gives angle(rho~, sigma) <= A + theta,
    A the Bures angle of (rho, sigma) and theta = arcsin(eps), so
    D_1/2(rho~||sigma) <= -2 log2 cos(A + theta). The extended geodesic point of
    qmat.bures_geodesic attains that bound whenever its flag holds; it is
    returned only if it also passes the engine's own ball test.
    """
    if spec.alpha != 0.5 or spec.ball is Ball.SUBNORMALIZED_TRACE:
        return None
    rho, sigma = _checked(rho, sigma, spec)
    omega, angle, ok = qmat.bures_geodesic(rho, sigma, math.asin(spec.epsilon))
    if not ok or not _BallProjector(rho, spec.epsilon, spec.ball).inside(omega):
        return None
    return SmoothedValue(-2.0 * math.log2(math.cos(angle)), omega, Certified.ANALYTIC_EXACT)


def _optimize(rho, sigma, spec: SmoothingSpec, objective, warm_starts=None) -> SmoothedValue:
    """Drive objective(sigma, alpha).q downhill over the ball of spec, from
    the warm, structured and random starts; log2(Q) / (alpha - 1) of the best
    feasible point, labelled as the one-sided bound it is."""
    alpha, eps, ball = spec.alpha, spec.epsilon, spec.ball
    rho, sigma = _checked(rho, sigma, spec)
    cert = Certified.HEURISTIC_LOWER_BOUND if alpha < 1.0 else Certified.HEURISTIC_UPPER_BOUND
    compress = None
    sig = sigma
    if alpha > 1.0:
        # the divergence is +inf off supp(sigma): confine candidates to it
        w, u = qmat.eigh(sigma)
        keep = qmat.support_mask(w)
        if not keep.all():
            compress = u[:, keep]
            sig = dag(compress) @ sigma @ compress

    obj = objective(sig, alpha)

    proj = _BallProjector(rho, eps, ball, compress)
    starts = list(warm_starts or [])
    rho_work = rho
    if compress is not None:
        rho_work = hermitize(dag(compress) @ rho @ compress)
        starts = [hermitize(dag(compress) @ s @ compress) for s in starts]
    starts += _structured_starts(rho_work, sig, eps, ball)
    starts += _random_starts(rho_work, eps, spec.restarts, spec.seed)

    c0, ok = proj.project(np.array(starts, dtype=complex))
    idx = np.flatnonzero(ok & proj.inside(c0))
    q, c = _descend(obj, c0[idx], proj.project, spec.max_iters, proj.inside)
    inside = proj.inside(c)
    # the first start reaching the strict minimum wins
    best_q, best_c = math.inf, None
    for i in range(len(idx)):
        if inside[i] and q[i] < best_q:
            best_q, best_c = float(q[i]), c[i]
    if best_c is None:
        return SmoothedValue(math.inf if alpha > 1.0 else -math.inf, None, cert)
    if compress is not None:
        best_c = compress @ best_c @ dag(compress)
    if best_q <= 0.0:
        value = math.inf if alpha < 1.0 else -math.inf
    else:
        value = float(np.log2(best_q)) / (alpha - 1.0)
    return SmoothedValue(value, hermitize(best_c), cert)


def _remaining_gain(recent: np.ndarray, left: int) -> np.ndarray:
    """The gain each row of recent, its last WINDOW gains oldest first, is
    taken to make over the next left iterations.

    Gains that shrink by a factor r per step shrink by r^(WINDOW/2) from the
    older half of the window to the newer one, so r is fitted from the sums
    of the two halves. Where r < 1 the prediction is the rest of the
    geometric series from g, the largest gain of the newer half,
    g r (1 - r^left) / (1 - r), capped by the largest gain of the window
    repeated left times, which is the prediction where r >= 1.
    """
    half = WINDOW // 2
    linear = left * recent.max(axis=1)
    # every gain is positive: a step is accepted only where Q falls
    r = (recent[:, half:].sum(axis=1) / recent[:, :half].sum(axis=1)) ** (2.0 / WINDOW)
    decaying = np.flatnonzero(r < 1.0)
    r = r[decaying]
    g = recent[decaying, half:].max(axis=1)
    geometric = g * r * (1.0 - r ** left) / (1.0 - r)
    linear[decaying] = np.minimum(geometric, linear[decaying])
    return linear


def _descend(obj, c0: np.ndarray, project, max_iters: int, inside):
    """Backtracking gradient descent on factors L of c = L L^dag, for every
    row of the stack c0 at once.

    Each row keeps its own step and up to 10 backtracking trials, retracted
    by project (which masks rows with no feasible point), and stops on its
    own: once its factor gradient norm falls below GRAD_TOL, once all its
    trials of an iteration fail, or after max_iters iterations. Returns the
    best Q and c each row saw.

    A row also stops once it cannot overtake the leader, racing style
    (Maron & Moore 1997). From iteration WINDOW on, the leader is the first
    row with the least best Q, live or stopped. A live row accepts a step or
    stops in every iteration, so its last WINDOW gains are always at hand.
    Every other live row whose best Q, less the gain _remaining_gain
    predicts from them over the iterations left, still lies above the
    leader's stops there. The prediction follows the gains down where they
    decay, and never exceeds the largest recent gain times the iterations
    left, which is the prediction where they do not. The leader and the
    rows that tie it never stop by this rule, and no row stops unless the
    leader's best point passes inside, the ball test that _optimize applies
    to the returned points. The extrapolation is a heuristic, not a bound:
    the minimization is not convex for alpha < 1, so a stopped row could in
    principle have overtaken later. The tests check that the reported value
    and optimizer equal those of the loop without this rule.

    The trials go in pairs: each of up to 5 rounds projects, and evaluates,
    the candidates at step s and s/2 of every row still trying as one stack.
    A row takes s if it descends, else s/2 if that descends and s/2 >= 1e-14,
    and leaves the round with the step that halving one trial at a time
    would leave: s, s/2, or s/4 when both fail. project and obj.q work row
    by row, so every row sees the candidates and decisions of sequential
    halving, bit for bit; the s/2 candidate of a row that takes s is
    discarded.
    """
    c = c0.copy()
    n = len(c)
    q = np.full(n, np.inf)
    g = np.empty_like(c)
    ell = np.empty_like(c)
    best_q, best_c = np.full(n, np.inf), c.copy()
    step = np.full(n, 0.1)
    gains = np.zeros((n, WINDOW))     # each row's last WINDOW gains, oldest first
    live = np.ones(n, dtype=bool)

    def refresh(rows):
        q[rows], g[rows] = obj.qg(c[rows])
        w, u = np.linalg.eigh(hermitize(c[rows]))
        ell[rows] = u * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
        better = rows[q[rows] < best_q[rows]]
        best_q[better], best_c[better] = q[better], c[better]

    if n:
        refresh(np.arange(n))
    for it in range(max_iters):
        idx = np.flatnonzero(live)
        if it >= WINDOW:
            lead = int(np.argmin(best_q))
            reach = best_q[idx] - _remaining_gain(gains[idx], max_iters - it)
            behind = idx[reach > best_q[lead]]
            if behind.size and inside(best_c[lead:lead + 1])[0]:
                live[behind] = False
                idx = np.flatnonzero(live)
        gl = g[idx] @ ell[idx]
        gn = np.linalg.norm(gl, axis=(1, 2))
        keep = gn >= GRAD_TOL
        live[idx[~keep]] = False
        idx, direction = idx[keep], gl[keep] / gn[keep, None, None]
        if not idx.size:
            break
        trying = np.ones(len(idx), dtype=bool)
        accepted = np.zeros(len(idx), dtype=bool)
        cand, q_new = c[idx], q[idx]
        for _ in range(5):
            j = np.flatnonzero(trying)
            if not j.size:
                break
            rows, k = idx[j], len(j)
            s = step[rows]
            half = s * 0.5
            ln = np.concatenate([ell[rows] - s[:, None, None] * direction[j],
                                 ell[rows] - half[:, None, None] * direction[j]])
            pc, ok = project(ln @ dag(ln))
            qt = np.full(2 * k, np.inf)
            if ok.any():
                qt[ok] = obj.q(pc[ok])
            good = ok & (qt < np.tile(q[rows], 2) - 1e-16)
            first = good[:k]
            second = ~first & (half >= 1e-14) & good[k:]
            hit = first | second
            take = np.where(first, np.arange(k), np.arange(k, 2 * k))[hit]
            cand[j[hit]], q_new[j[hit]] = pc[take], qt[take]
            accepted[j[hit]] = True
            # the step where halving one trial at a time would stop
            step[rows] = np.where(first, s, np.where(second | (half < 1e-14), half, half * 0.5))
            trying[j] = ~hit & (step[rows] >= 1e-14)
        live[idx[~accepted]] = False
        rows, q_old = idx[accepted], q[idx[accepted]]
        if not rows.size:
            break
        gains[rows, :-1] = gains[rows, 1:]
        gains[rows, -1] = q_old - q_new[accepted]
        c[rows] = cand[accepted]
        refresh(rows)
        step[rows] = np.minimum(step[rows] * 1.4, 1.0)
    return best_q, best_c


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def smoothed_sandwiched(rho, sigma, spec: SmoothingSpec, warm_starts=None) -> SmoothedValue:
    """Smoothed sandwiched divergence: max over the ball for alpha in [1/2,1),
    min for alpha > 1. Monotonicity in epsilon can be enforced by passing the
    smaller-epsilon optimizer through warm_starts. At alpha = 1/2 on a
    purified ball the exact geodesic value is returned wherever it applies
    (_geodesic_optimum), and the descent does not run."""
    alpha = spec.alpha
    if not (0.5 <= alpha < 1.0 or 1.0 < alpha < math.inf):
        raise AlphaOutOfRange(f"smoothing needs alpha in [1/2,1) or (1,inf), got {alpha}")
    exact = _geodesic_optimum(rho, sigma, spec)
    if exact is not None:
        return exact
    return _optimize(rho, sigma, spec, _SandwichedObjective, warm_starts)


def _smoothed_petz(rho, sigma, spec: SmoothingSpec) -> SmoothedValue:
    """Smoothed Petz divergence, for the counterexample suite only: it fails
    data-processing for alpha < 1."""
    alpha = spec.alpha
    if not (0.0 < alpha < 1.0 or 1.0 < alpha <= 2.0):
        raise AlphaOutOfRange(f"Petz smoothing needs alpha in (0,1)U(1,2], got {alpha}")
    return _optimize(rho, sigma, spec, _PetzObjective)


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
        q = mn.coherence_monotone(r, alpha, restarts=6)[1]
        sv = None
        for _ in range(3):
            sv = smoothed_sandwiched(r, np.diag(q.astype(complex)), spec)
            if sv.optimizer is None:
                break
            q = mn.coherence_monotone(sv.optimizer, alpha, restarts=6)[1]
        return sv
    raise TheoryUnsupported(f"smoothed monotone not available for {type(theory).__name__}")


def dp_check(rho, sigma, channel, alpha: float, epsilon: float,
             restarts: int = 6, max_iters: int = 400, seed: int = 0) -> DpCheckResult:
    """Numerical data-processing check for the smoothed divergence.

    At alpha = 1/2 both sides take the exact geodesic value when both qualify
    (see _geodesic_optimum); lifted is then False. Otherwise both sides run
    the descent with matched optimizer budgets, so that the slack never
    compares an exact value with a heuristic one, and the left side
    additionally seeds from the Petz-recovery pullback of the right side's
    optimizer, which is feasible by data-processing of the purified distance.
    """
    if not 0.5 <= alpha < 1.0:
        raise AlphaOutOfRange("dp_check is defined for alpha in [1/2, 1)")
    r, s = asmat(rho), asmat(sigma)
    er = qmat.apply_channel(r, channel)
    es = qmat.apply_channel(s, channel)
    spec = SmoothingSpec(epsilon=epsilon, alpha=alpha, restarts=restarts,
                         max_iters=max_iters, seed=seed)
    lhs = _geodesic_optimum(r, s, spec)
    rhs = _geodesic_optimum(er, es, spec) if lhs is not None else None
    if rhs is not None:
        return DpCheckResult(lhs=lhs.value, rhs=rhs.value, slack=lhs.value - rhs.value, lifted=False)
    rhs = _optimize(er, es, spec, _SandwichedObjective)
    lifted = False
    warm = []
    if rhs.optimizer is not None:
        pullback = _petz_recovery(r, channel, er, rhs.optimizer)
        if pullback is not None:
            warm.append(pullback)
            lifted = True
    lhs = _optimize(r, s, spec, _SandwichedObjective, warm_starts=warm)
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
    except (np.linalg.LinAlgError, ResmonoError):
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
    The closed forms hold for alpha in [1/2, 1) and eps in (0, 1).
    """
    if not 0.5 <= alpha < 1.0:
        raise AlphaOutOfRange(f"the appendix-B closed forms need alpha in [1/2,1), got {alpha}")
    _check_epsilon(epsilon)
    rho2 = np.diag([1.0, 0.0]).astype(complex)
    sig2 = np.eye(2, dtype=complex) / 2.0
    rho3 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    sig3 = np.diag([0.5, 0.5, 0.0]).astype(complex)

    shift = -np.log2(1.0 - epsilon * epsilon)
    tgt_sand = 1.0 + (alpha / (1.0 - alpha)) * shift
    tgt_petz = 1.0 + (1.0 / (1.0 - alpha)) * shift

    sand, petz = smoothed_sandwiched, _smoothed_petz
    cases = [
        ("sandwiched_normalized_2d", sand, Ball.NORMALIZED_PURIFIED, rho2, sig2, 1.0, "eq"),
        ("sandwiched_normalized_3d", sand, Ball.NORMALIZED_PURIFIED, rho3, sig3, tgt_sand, "eq"),
        ("sandwiched_subnormalized_2d", sand, Ball.SUBNORMALIZED_PURIFIED, rho2, sig2, tgt_sand, "eq"),
        ("sandwiched_subnormalized_3d", sand, Ball.SUBNORMALIZED_PURIFIED, rho3, sig3, tgt_sand, "eq"),
        ("petz_normalized_2d", petz, Ball.NORMALIZED_PURIFIED, rho2, sig2, 1.0, "eq"),
        ("petz_normalized_3d", petz, Ball.NORMALIZED_PURIFIED, rho3, sig3, tgt_petz, "ge"),
        ("petz_subnormalized_2d", petz, Ball.SUBNORMALIZED_PURIFIED, rho2, sig2, tgt_sand, "eq"),
    ]

    rows = []
    for name, smoothed, ball, r, s, target, cmp_kind in cases:
        spec = SmoothingSpec(epsilon=epsilon, alpha=alpha, ball=ball,
                             restarts=restarts, max_iters=max_iters, seed=seed)
        sv = smoothed(r, s, spec)
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
