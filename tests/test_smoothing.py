import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resmono import divergences as dv
from resmono import monotones as mn
from resmono import qmat
from resmono import smoothing as sm
from resmono.errors import AlphaOutOfRange, DimensionCap, TheoryUnsupported

RHO2 = np.diag([1.0, 0.0]).astype(complex)
SIG2 = np.eye(2, dtype=complex) / 2.0
RHO3 = np.diag([1.0, 0.0, 0.0]).astype(complex)
SIG3 = np.diag([0.5, 0.5, 0.0]).astype(complex)


def small_spec(eps, alpha, ball=sm.Ball.SUBNORMALIZED_PURIFIED, seed=0):
    return sm.SmoothingSpec(epsilon=eps, alpha=alpha, ball=ball,
                            restarts=4, max_iters=250, seed=seed)


def test_degenerate_ball_reduces_to_unsmoothed():
    rho = qmat.random_state(3, 3, seed=1).data
    sig = qmat.random_state(3, 3, seed=2).data
    for alpha in (0.75, 2.0):
        sv = sm.smoothed_sandwiched(rho, sig, small_spec(1e-6, alpha))
        assert abs(sv.value - dv.sandwiched(rho, sig, alpha)) <= 1e-4


def test_alpha_and_eps_validation():
    with pytest.raises(AlphaOutOfRange):
        sm.smoothed_sandwiched(RHO2, SIG2, small_spec(0.1, 0.3))
    with pytest.raises(AlphaOutOfRange):
        sm.smoothed_sandwiched(RHO2, SIG2, small_spec(0.1, 1.0))
    with pytest.raises(AlphaOutOfRange):
        sm.smoothed_sandwiched(RHO2, SIG2, small_spec(1.5, 0.75))
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(AlphaOutOfRange, match=str(alpha)):
            sm.smoothed_sandwiched(RHO2, SIG2, small_spec(0.1, alpha))
    for alpha in (1.0, 1.5):
        with pytest.raises(AlphaOutOfRange):
            sm.appendix_b_suite(alpha=alpha, restarts=1, max_iters=2)


def test_dimension_cap():
    big = np.eye(32, dtype=complex) / 32.0
    with pytest.raises(DimensionCap):
        sm.smoothed_sandwiched(big, big, small_spec(0.1, 0.75))


def _assert_optimizer_in_ball(rho, sig, eps, ball):
    sv = sm.smoothed_sandwiched(rho, sig, small_spec(eps, 0.6, ball=ball))
    assert sv.optimizer is not None
    tr = float(np.trace(sv.optimizer).real)
    assert tr <= 1.0 + 1e-10
    if ball is sm.Ball.SUBNORMALIZED_TRACE:
        assert qmat.gen_trace_distance(sv.optimizer, rho) <= eps + 1e-8
    else:
        assert qmat.purified_distance(sv.optimizer, rho) <= eps + 1e-8
    if ball is sm.Ball.NORMALIZED_PURIFIED:
        assert abs(tr - 1.0) <= 1e-10


@pytest.mark.parametrize("ball", list(sm.Ball), ids=lambda b: b.value)
@pytest.mark.parametrize("eps", [0.02, 0.05])
@pytest.mark.parametrize("rho_seed", [5, 7])
def test_ball_membership_rank_one_center(rho_seed, eps, ball):
    # on the kernel of a pure center the root fidelity is all rounding noise;
    # distances are measured by the independent SVD route of qmat
    rho = qmat.random_state(3, 1, seed=rho_seed).data
    sig = qmat.random_state(3, 3, seed=6).data
    _assert_optimizer_in_ball(rho, sig, eps, ball)


def _random_psd(d, rank, seed, trace):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return trace * m / np.trace(m).real


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_root_fidelity_kernel_matches_qmat(d):
    for rank in range(1, d + 1):
        rho = _random_psd(d, rank, 100 * d + rank, 1.0 if rank % 2 else 0.9)
        proj = sm._BallProjector(rho, 0.1, sm.Ball.SUBNORMALIZED_PURIFIED)
        cands = np.array([_random_psd(d, k, 1000 * d + 10 * rank + k, 0.7 + 0.05 * k)
                          for k in range(1, d + 1)] + [rho])
        stacked = proj.root_f(cands)
        for c, rf in zip(cands, stacked):
            expected = qmat.root_fidelity(c, rho)
            assert abs(rf - expected) <= 1e-12
            assert abs(proj.root_f(c) - expected) <= 1e-12


def _bisection(inside, hi):
    """Twelve halvings of [0, hi]: the reference for the cell search."""
    lo = 0.0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _search(margin, his):
    """_cell_search on a margin of t alone, for each bound in his."""
    return sm._cell_search(lambda rows, t: margin(t), margin(np.zeros(len(his))), his)


@settings(max_examples=300, deadline=None)
@given(hi=st.floats(1e-6, 1.0), frac=st.floats(0.0, 1.0))
def test_cell_search_matches_bisection(hi, frac):
    tau = frac * hi
    his = np.array([hi, 0.7 * hi, 0.3 * hi])
    # at a threshold within rounding of a cell the two searches may round that
    # cell to opposite sides of it
    clear = [np.min(np.abs(h * np.arange(4097) / 4096 - tau)) > 1e-14 * h for h in his]
    assume(clear[0])
    # a linear margin, and a concave one whose chord misses the crossing
    for margin in (lambda t: t - tau, lambda t: np.sqrt(t) - math.sqrt(tau)):
        got = _search(margin, his)
        for h, g, c in zip(his, got, clear):
            if c:
                assert abs(g - _bisection(lambda t: margin(t) >= 0.0, h)) <= 1e-15 * h


def test_cell_search_returns_hi_when_hi_fails():
    his = np.array([0.5, 0.5, 1e-3])
    taus = np.array([0.7, 0.2, 1e-3 * (1.0 + 1e-9)])
    got = sm._cell_search(lambda rows, t: t - taus[rows, None], -taus, his)
    assert got[0] == 0.5 and got[2] == 1e-3
    assert got[1] == 0.5 * math.ceil(0.2 / 0.5 * 4096) / 4096


def test_cell_search_on_noisy_margin_ends_inside():
    rng = np.random.default_rng(11)
    for _ in range(50):
        hi = 10.0 ** rng.uniform(-12, 0)
        tau, amp, freq = rng.uniform(-0.1, 1.1) * hi, rng.uniform(0.0, 0.3) * hi, rng.uniform(1e2, 1e5)
        calls = []

        def margin(t):
            calls.append(t.shape)
            return t - tau + amp * np.sin(freq * t / hi)

        got = _search(margin, np.array([hi]))[0]
        assert got == hi or margin(got) >= 0.0
        # t = 0, t = hi, at most three rounds per halving of 4096 cells, the check
        assert len(calls) <= 2 + 3 * 12 + 1


def test_cell_search_matches_root_fidelity_scan(monkeypatch):
    # every search the projector makes, against the least of all 4096 cells
    # whose evaluated margin is >= 0
    calls, search = [], sm._cell_search

    def recording(margin, m0, hi):
        t = search(margin, m0, hi)
        calls.append((margin, hi, t))
        return t

    monkeypatch.setattr(sm, "_cell_search", recording)
    checked = 0
    for d, ball in [(3, sm.Ball.SUBNORMALIZED_PURIFIED), (4, sm.Ball.NORMALIZED_PURIFIED)]:
        rho = _random_psd(d, d, 7 * d, 0.95)
        proj = sm._BallProjector(rho, 0.1, ball)
        cands = np.array(sm._random_starts(rho, 0.3, 40, seed=d))
        _, ok = proj.project(cands)
        assert ok.all()
    cells = np.arange(1, 4097) / 4096
    for margin, hi, t in calls:
        ok = margin(np.arange(len(hi)), hi[:, None] * cells) >= 0.0
        for h, row, got in zip(hi, ok, t):
            assert row[-1] and np.all(row[np.argmax(row):])   # monotone
            assert got == h * ((np.argmax(row) + 1) / 4096)
            checked += 1
    assert checked >= 40


def test_cell_search_point_count(monkeypatch):
    # the boundary search costs a few margin points per projected row; the
    # 45-point grid it replaced would read 45
    points, rows, search = [], [], sm._cell_search

    def counting(margin, m0, hi):
        rows.append(len(hi))

        def counted(r, t):
            points.append(t.size)
            return margin(r, t)

        return search(counted, m0, hi)

    monkeypatch.setattr(sm, "_cell_search", counting)
    rho = qmat.random_state(4, 4, seed=1).data
    sig = qmat.random_state(4, 4, seed=2).data
    ch = qmat.random_channel(4, 4, 2, seed=3)
    sm.dp_check(rho, sig, ch, 0.7, 0.2, restarts=2, max_iters=120, seed=0)
    assert sum(rows) > 1000
    assert sum(points) / sum(rows) <= 6.0


class _CountingObjective:
    def __init__(self, obj):
        self.obj, self.sizes = obj, []

    def q(self, c):
        return self.obj.q(c)

    def qg(self, c):
        self.sizes.append(len(c))
        return self.obj.qg(c)


def _remaining_gain(window, left):
    """sm._remaining_gain for one row, its last WINDOW gains oldest first."""
    half = sm.WINDOW // 2
    linear = left * max(window)
    r = (np.sum(window[half:]) / np.sum(window[:half])) ** (2.0 / sm.WINDOW)
    if not r < 1.0:
        return linear
    g = max(window[half:])
    return min(g * r * (1.0 - r ** left) / (1.0 - r), linear)


def _sequential_descend(obj, c0, project, max_iters, inside, exhausted):
    """_descend with one projection per backtracking trial: the reference that
    the paired trials must match bit for bit, leader rule included.
    exhausted[0] counts the rows that fail all ten trials of an iteration."""
    c = c0.copy()
    n = len(c)
    q = np.full(n, np.inf)
    g = np.empty_like(c)
    ell = np.empty_like(c)
    best_q, best_c = np.full(n, np.inf), c.copy()
    step = np.full(n, 0.1)
    gains = [[] for _ in range(n)]
    live = np.ones(n, dtype=bool)

    def refresh(rows):
        q[rows], g[rows] = obj.qg(c[rows])
        w, u = np.linalg.eigh(qmat.hermitize(c[rows]))
        ell[rows] = u * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
        better = rows[q[rows] < best_q[rows]]
        best_q[better], best_c[better] = q[better], c[better]

    if n:
        refresh(np.arange(n))
    for it in range(max_iters):
        if it >= sm.WINDOW:
            lead = min(range(n), key=lambda r: best_q[r])
            behind = [r for r in np.flatnonzero(live)
                      if best_q[r] - _remaining_gain(gains[r][-sm.WINDOW:], max_iters - it)
                      > best_q[lead]]
            if behind and inside(best_c[lead:lead + 1])[0]:
                live[behind] = False
        idx = np.flatnonzero(live)
        gl = g[idx] @ ell[idx]
        gn = np.linalg.norm(gl, axis=(1, 2))
        keep = gn >= sm.GRAD_TOL
        live[idx[~keep]] = False
        idx, direction = idx[keep], gl[keep] / gn[keep, None, None]
        if not idx.size:
            break
        trying = np.ones(len(idx), dtype=bool)
        accepted = np.zeros(len(idx), dtype=bool)
        cand, q_new = c[idx], q[idx]
        for _ in range(10):
            j = np.flatnonzero(trying)
            if not j.size:
                break
            rows = idx[j]
            ln = ell[rows] - step[rows, None, None] * direction[j]
            pc, ok = project(ln @ qmat.dag(ln))
            qt = np.full(len(j), np.inf)
            if ok.any():
                qt[ok] = obj.q(pc[ok])
            good = ok & (qt < q[rows] - 1e-16)
            cand[j[good]], q_new[j[good]] = pc[good], qt[good]
            accepted[j[good]] = True
            step[rows[~good]] *= 0.5
            trying[j] = ~good & (step[rows] >= 1e-14)
        exhausted[0] += int(np.sum(trying))
        live[idx[~accepted]] = False
        rows, q_old = idx[accepted], q[idx[accepted]]
        if not rows.size:
            break
        for r, gain in zip(rows, q_old - q_new[accepted]):
            gains[r].append(gain)
        c[rows] = cand[accepted]
        refresh(rows)
        step[rows] = np.minimum(step[rows] * 1.4, 1.0)
    return best_q, best_c


def _descend_unpruned(obj, c0, project, max_iters, inside=None):
    """_descend without the leader rule: every row runs until its own
    gradient, backtracking or iteration cap stops it, independent of the
    other rows. The reference whose reported values the leader rule must keep."""
    c = c0.copy()
    n = len(c)
    q = np.full(n, np.inf)
    g = np.empty_like(c)
    ell = np.empty_like(c)
    best_q, best_c = np.full(n, np.inf), c.copy()
    step = np.full(n, 0.1)
    live = np.ones(n, dtype=bool)

    def refresh(rows):
        q[rows], g[rows] = obj.qg(c[rows])
        w, u = np.linalg.eigh(qmat.hermitize(c[rows]))
        ell[rows] = u * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
        better = rows[q[rows] < best_q[rows]]
        best_q[better], best_c[better] = q[better], c[better]

    if n:
        refresh(np.arange(n))
    for _ in range(max_iters):
        idx = np.flatnonzero(live)
        gl = g[idx] @ ell[idx]
        gn = np.linalg.norm(gl, axis=(1, 2))
        keep = gn >= sm.GRAD_TOL
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
            pc, ok = project(ln @ qmat.dag(ln))
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
            step[rows] = np.where(first, s, np.where(second | (half < 1e-14), half, half * 0.5))
            trying[j] = ~hit & (step[rows] >= 1e-14)
        live[idx[~accepted]] = False
        rows = idx[accepted]
        if not rows.size:
            break
        c[rows] = cand[accepted]
        refresh(rows)
        step[rows] = np.minimum(step[rows] * 1.4, 1.0)
    return best_q, best_c


@pytest.mark.parametrize("smoothed, alpha, eps, ball, singular", [
    (sm.smoothed_sandwiched, 0.7, 0.2, sm.Ball.SUBNORMALIZED_PURIFIED, False),
    (sm.smoothed_sandwiched, 0.9, 0.05, sm.Ball.NORMALIZED_PURIFIED, False),
    (sm.smoothed_sandwiched, 0.75, 0.2, sm.Ball.SUBNORMALIZED_TRACE, False),
    (sm.smoothed_sandwiched, 2.0, 0.3, sm.Ball.SUBNORMALIZED_PURIFIED, False),
    (sm.smoothed_sandwiched, 1.5, 0.2, sm.Ball.NORMALIZED_PURIFIED, True),
    (sm.smoothed_sandwiched, 2.0, 0.3, sm.Ball.SUBNORMALIZED_TRACE, True),
    (sm._smoothed_petz, 0.6, 0.2, sm.Ball.SUBNORMALIZED_PURIFIED, False),
    (sm._smoothed_petz, 1.5, 0.1, sm.Ball.SUBNORMALIZED_TRACE, False),
], ids=["sand_0.7_sub", "sand_0.9_norm", "sand_0.75_trace", "sand_2_sub_exhausts",
        "sand_1.5_norm_singular_sigma", "sand_2_trace_singular_sigma", "petz_0.6_sub",
        "petz_1.5_trace"])
def test_speculative_backtracking_matches_sequential(monkeypatch, smoothed, alpha, eps, ball,
                                                     singular):
    # each round projects the trials at step s and s/2 in one stack; every
    # projection and objective call works row by row, so each row must see
    # the same candidates and decisions as with one trial per projection
    rho = qmat.random_state(3, 3, seed=60).data
    sig = qmat.random_state(3, 3, seed=62).data
    if singular:
        # rho mostly on supp(sigma), so that the compressed descent runs
        sig = np.diag([0.6, 0.4, 0.0]).astype(complex)
        rho = 0.97 * np.pad(qmat.random_state(2, 2, seed=63).data, ((0, 1), (0, 1))) + 0.03 * rho
    descend, exhausted, runs = sm._descend, [0], []

    def both(obj, c0, project, max_iters, inside):
        q, c = descend(obj, c0, project, max_iters, inside)
        q_ref, c_ref = _sequential_descend(obj, c0, project, max_iters, inside, exhausted)
        runs.append(np.array_equal(q, q_ref) and np.array_equal(c, c_ref))
        return q, c

    monkeypatch.setattr(sm, "_descend", both)
    spec = sm.SmoothingSpec(epsilon=eps, alpha=alpha, ball=ball, restarts=3, max_iters=80, seed=5)
    smoothed(rho, sig, spec)
    assert runs == [True]
    if alpha == 2.0 and ball is sm.Ball.SUBNORMALIZED_PURIFIED:
        assert exhausted[0] > 0


def test_backtracking_projection_count(monkeypatch):
    # both trials of a round share one stacked projection, so most lockstep
    # iterations, which reject step s and accept s/2, cost one projection;
    # one projection per trial read 1.73 here
    descend, projections, iterations = sm._descend, [0], [0]

    def counting(obj, c0, project, max_iters, inside):
        counted = _CountingObjective(obj)

        def proj(c):
            projections[0] += 1
            return project(c)

        out = descend(counted, c0, proj, max_iters, inside)
        # every accepting iteration refreshes once, after the initial refresh
        iterations[0] += len(counted.sizes) - 1
        return out

    monkeypatch.setattr(sm, "_descend", counting)
    rho = qmat.random_state(4, 4, seed=1).data
    sig = qmat.random_state(4, 4, seed=2).data
    ch = qmat.random_channel(4, 4, 2, seed=3)
    sm.dp_check(rho, sig, ch, 0.7, 0.2, restarts=2, max_iters=120, seed=0)
    assert iterations[0] > 100
    assert projections[0] / iterations[0] <= 1.3


@pytest.mark.parametrize("objective", [sm._SandwichedObjective, sm._PetzObjective])
def test_lockstep_descent_matches_each_start_alone(objective):
    rho = qmat.random_state(3, 2, seed=0).data
    sig = qmat.random_state(3, 3, seed=50).data
    proj = sm._BallProjector(rho, 0.3, sm.Ball.SUBNORMALIZED_PURIFIED)
    starts = np.array(sm._structured_starts(rho, sig, 0.3, proj.ball)
                      + sm._random_starts(rho, 0.3, 5, seed=3))
    c0, ok = proj.project(starts)
    assert ok.all()
    obj = _CountingObjective(objective(sig, 2.0))
    q, c = sm._descend(obj, c0, proj.project, 200, proj.inside)
    # the stack thinned out over several iterations, and some starts ran on
    # to the iteration cap
    assert len(set(obj.sizes)) >= 3 and obj.sizes[-1] >= 1
    # alone, a start is its own leader, so it runs as without the leader rule
    alone = [sm._descend(obj.obj, c0[i:i + 1], proj.project, 200, proj.inside)
             for i in range(len(c0))]
    q_alone = np.array([qi[0] for qi, _ in alone])
    win = int(np.argmin(q))
    assert win == int(np.argmin(q_alone))
    assert q[win] == q_alone[win] and np.array_equal(c[win], alone[win][1][0])
    for i, (qi, ci) in enumerate(alone):
        if abs(qi[0] - q[i]) <= 1e-12 and np.max(np.abs(ci[0] - c[i])) <= 1e-12:
            continue
        # a start the leader rule stopped: alone it ends above the winner,
        # or ties it at a later index
        assert qi[0] > q[win] or (qi[0] == q[win] and i > win)


def _record_optimize(monkeypatch, descend, run):
    """(value, optimizer) of every _optimize call that run() makes, with
    _descend replaced by descend, and the rows each refresh evaluated."""
    optimize, got, rows = sm._optimize, [], [0]

    def counted(obj, c0, project, max_iters, inside):
        counting = _CountingObjective(obj)
        out = descend(counting, c0, project, max_iters, inside)
        rows[0] += sum(counting.sizes)
        return out

    def recording(*args, **kwargs):
        sv = optimize(*args, **kwargs)
        got.append((sv.value, None if sv.optimizer is None else sv.optimizer.copy()))
        return sv

    with monkeypatch.context() as m:
        m.setattr(sm, "_descend", counted)
        m.setattr(sm, "_optimize", recording)
        run()
    return got, rows[0]


def _assert_same_reports(monkeypatch, run):
    pruned, work = _record_optimize(monkeypatch, sm._descend, run)
    full, full_work = _record_optimize(monkeypatch, _descend_unpruned, run)
    assert len(pruned) == len(full) > 0
    for (v, opt), (v_ref, opt_ref) in zip(pruned, full):
        assert v == v_ref
        assert (opt is None and opt_ref is None) or np.array_equal(opt, opt_ref)
    return work, full_work


@pytest.mark.parametrize("alpha, eps", [(0.5, 0.1), (0.6, 0.3), (0.75, 0.1), (0.9, 0.05)])
def test_leader_rule_keeps_appendix_b(monkeypatch, alpha, eps):
    # the README budget: 8 random starts, 500 iterations
    work, full_work = _assert_same_reports(
        monkeypatch, lambda: sm.appendix_b_suite(alpha=alpha, epsilon=eps))
    assert work < full_work


def test_leader_rule_keeps_criterion_05(monkeypatch):
    # twelve criterion-05 instances at alpha 0.7 and 0.9, both sides
    def run():
        for i in (1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17):
            d = 2 + i % 3
            rho = qmat.random_state(d, d, seed=10_000 + i).data
            sig = qmat.random_state(d, d, seed=20_000 + i).data
            ch = qmat.random_channel(d, d, 2, seed=30_000 + i)
            sm.dp_check(rho, sig, ch, (0.5, 0.7, 0.9)[i % 3], (0.05, 0.2)[i % 2],
                        restarts=2, max_iters=120, seed=i)

    work, full_work = _assert_same_reports(monkeypatch, run)
    assert work < full_work


@pytest.mark.parametrize("alpha", [1.5, 2.0])
@pytest.mark.parametrize("ball, singular", [
    (sm.Ball.SUBNORMALIZED_PURIFIED, True), (sm.Ball.NORMALIZED_PURIFIED, True),
    (sm.Ball.SUBNORMALIZED_TRACE, False), (sm.Ball.SUBNORMALIZED_TRACE, True),
], ids=["sub_singular", "norm_singular", "trace", "trace_singular"])
def test_leader_rule_keeps_alpha_above_one(monkeypatch, alpha, ball, singular):
    rho = qmat.random_state(3, 3, seed=60).data
    sig = qmat.random_state(3, 3, seed=62).data
    if singular:
        sig = np.diag([0.6, 0.4, 0.0]).astype(complex)
        rho = 0.97 * np.pad(qmat.random_state(2, 2, seed=63).data, ((0, 1), (0, 1))) + 0.03 * rho
    spec = sm.SmoothingSpec(epsilon=0.2, alpha=alpha, ball=ball, restarts=6, max_iters=400, seed=5)
    _assert_same_reports(monkeypatch, lambda: sm.smoothed_sandwiched(rho, sig, spec))


def test_remaining_gain_follows_decaying_gains_up_to_the_linear_cap():
    half, left = sm.WINDOW // 2, 100
    recent = np.array([0.9 ** np.arange(sm.WINDOW), np.full(sm.WINDOW, 1e-3),
                       1.1 ** np.arange(sm.WINDOW)])
    got = sm._remaining_gain(recent, left)
    # gains shrinking by 0.9 a step: the rest of the series from the largest
    # gain of the newer half, far below that gain repeated left times
    assert got[0] == pytest.approx(0.9 ** half * 0.9 * (1 - 0.9 ** left) / (1 - 0.9), rel=1e-12)
    assert got[0] < 0.1 * left * 0.9 ** half
    # flat or growing gains: the largest repeated left times
    assert got[1] == left * 1e-3 and got[2] == left * recent[2].max()


class _Ramps:
    """Q = h(x) on 1 x 1 candidates c = x^2: h = -x down to its minimum -100
    at x = 100, x - 200 up to x = 300, and -60 + (x - 300) / 1000 from there
    on. Each accepted step moves x by the step, at most 1."""

    def q(self, c):
        x = np.sqrt(c[:, 0, 0].real)
        return np.where(x <= 100, -x, np.where(x < 300, x - 200, -60 + (x - 300) / 1000))

    def qg(self, c):
        x = np.sqrt(c[:, 0, 0].real)
        slope = np.where(x <= 100, -1.0, np.where(x < 300, 1.0, 1e-3))
        return self.q(c), (slope / (2.0 * x))[:, None, None].astype(complex)


def test_leader_rule_keeps_the_leader_and_a_start_that_overtakes_later():
    # row 0 sits at the bottom of the x >= 300 ramp, -60, and stops at once.
    # Row 1 climbs down from x = 1 by up to 1 per iteration: at the first
    # check, iteration WINDOW, it reads about -37, behind the leader, but its
    # gains over the remaining budget could still overtake it. It does, leads
    # from about iteration 63 on, and reaches -100. Rows 2 and 3 slide down
    # the x >= 300 ramp by at most 1e-3 per iteration. Row 2, from -59.3,
    # cannot reach -60 and stops at iteration WINDOW; row 3, from -59.9,
    # could, until row 1 takes the lead while still live.
    c0 = np.array([[[300.0 ** 2]], [[1.0]], [[1000.0 ** 2]], [[400.0 ** 2]]], dtype=complex)

    def project(c):
        return c, np.ones(len(c), dtype=bool)

    def inside(c):
        return np.ones(len(c), dtype=bool)

    obj = _CountingObjective(_Ramps())
    q, c = sm._descend(obj, c0, project, 200, inside)
    q_ref, c_ref = _descend_unpruned(_Ramps(), c0, project, 200)
    assert q_ref[1] == -100.0 and int(np.argmin(q_ref)) == 1
    assert int(np.argmin(q)) == 1
    assert np.array_equal(q[:2], q_ref[:2]) and np.array_equal(c[:2], c_ref[:2])
    # row 2 stopped after exactly WINDOW accepted steps
    q_window, _ = _descend_unpruned(_Ramps(), c0[2:3], project, sm.WINDOW)
    assert q[2] == q_window[0] > q_ref[2] > -60.0
    assert obj.sizes[sm.WINDOW] == 3 and obj.sizes[sm.WINDOW + 1] == 2
    # row 3 stopped once row 1 led, and row 1 ran on alone
    assert q[3] > q_ref[3] == -60.0
    assert obj.sizes.index(1) + 20 < len(obj.sizes)
    # no start stops against a leader whose best point fails the ball test:
    # with row 0 outside, row 2 runs on until row 1 leads
    q_out, _ = sm._descend(_Ramps(), c0, project, 200, lambda c: c[:, 0, 0].real < 300.0 ** 2)
    assert q[2] > q_out[2] > q_ref[2]


@pytest.mark.parametrize("objective", [sm._SandwichedObjective, sm._PetzObjective])
def test_leader_rule_thins_the_appendix_b_stack(objective):
    # the appendix-B normalized 3-d stack: a structured start leads from the
    # first iteration and the random starts never catch up
    proj = sm._BallProjector(RHO3, 0.1, sm.Ball.NORMALIZED_PURIFIED)
    c0, ok = proj.project(np.array(sm._structured_starts(RHO3, SIG3, 0.1, proj.ball)
                                   + sm._random_starts(RHO3, 0.1, 8, seed=0)))
    assert ok.all()
    pruned, full = _CountingObjective(objective(SIG3, 0.75)), _CountingObjective(objective(SIG3, 0.75))
    q, c = sm._descend(pruned, c0, proj.project, 500, proj.inside)
    q_ref, c_ref = _descend_unpruned(full, c0, proj.project, 500)
    lead = int(np.argmin(q_ref))
    assert int(np.argmin(q)) == lead
    assert q[lead] == q_ref[lead] and np.array_equal(c[lead], c_ref[lead])
    # no start stops by the rule before a full window of gains
    assert pruned.sizes[:sm.WINDOW + 1] == full.sizes[:sm.WINDOW + 1]
    # after it, starts stop before the cap, and each stopped start had not
    # yet reached the leader
    assert sum(pruned.sizes) < sum(full.sizes) and len(full.sizes) > sm.WINDOW + 1
    stopped = np.flatnonzero(q != q_ref)
    assert stopped.size >= 3 and lead not in stopped
    assert np.all(q[stopped] > q[lead]) and np.all(q_ref[stopped] > q_ref[lead])


def test_leader_rule_stops_the_appendix_b_random_starts_at_the_first_check():
    # sandwiched_normalized_3d at the README budget (alpha 0.75, eps 0.1, 8
    # random starts, 500 iterations): a structured start leads from the
    # first iteration, and the gains of the random starts decay, so each
    # stops at the first check, iteration WINDOW. Extrapolated linearly,
    # their largest recent gains kept them live to iterations 160-307.
    proj = sm._BallProjector(RHO3, 0.1, sm.Ball.NORMALIZED_PURIFIED)
    structured = sm._structured_starts(RHO3, SIG3, 0.1, proj.ball)
    c0, ok = proj.project(np.array(structured + sm._random_starts(RHO3, 0.1, 8, seed=0)))
    assert ok.all() and proj.inside(c0).all()
    obj = sm._SandwichedObjective(SIG3, 0.75)
    q, c = sm._descend(obj, c0, proj.project, 500, proj.inside)
    q_ref, c_ref = _descend_unpruned(obj, c0, proj.project, 500)
    win = int(np.argmin(q_ref))
    assert int(np.argmin(q)) == win < len(structured)
    assert q[win] == q_ref[win] and np.array_equal(c[win], c_ref[win])
    for i in range(len(structured), len(c0)):
        # the random start took exactly WINDOW steps, and would have gone on
        q_window, c_window = _descend_unpruned(obj, c0[i:i + 1], proj.project, sm.WINDOW)
        assert q[i] == q_window[0] and np.array_equal(c[i], c_window[0])
        assert q_ref[i] < q[i]


def test_petz_recovery_lifts_and_lets_faults_through():
    rho = qmat.random_state(3, 3, seed=11).data
    sig = qmat.random_state(3, 3, seed=12).data
    ident = qmat.KrausChannel([np.eye(3, dtype=complex)])
    assert sm.dp_check(rho, sig, ident, 0.75, 0.1, restarts=3, max_iters=150).lifted
    # criterion-05 instance 4
    rho = qmat.random_state(3, 3, seed=10_004).data
    sig = qmat.random_state(3, 3, seed=20_004).data
    ch = qmat.random_channel(3, 3, 2, seed=30_004)
    assert sm.dp_check(rho, sig, ch, 0.7, 0.05, restarts=2, max_iters=120, seed=4).lifted
    # a fault that is not numerical is raised, not read as "no pullback"
    with pytest.raises(ValueError):
        sm._petz_recovery(rho, ch, qmat.apply_channel(rho, ch), np.eye(2, dtype=complex))


def test_petz_pullback_raises_the_left_side(monkeypatch):
    # criterion-05 instance 43 (d = 3, alpha = 0.7, eps = 0.2) at that suite's budget:
    # the seeded pullback is what lifts the left side
    rho = qmat.random_state(3, 3, seed=10_043).data
    sig = qmat.random_state(3, 3, seed=20_043).data
    ch = qmat.random_channel(3, 3, 2, seed=30_043)

    def check():
        return sm.dp_check(rho, sig, ch, 0.7, 0.2, restarts=2, max_iters=120, seed=43)

    with_pullback = check()
    monkeypatch.setattr(sm, "_petz_recovery", lambda *args: None)
    without = check()
    assert with_pullback.lifted and not without.lifted
    assert with_pullback.lhs >= without.lhs + 0.03


def test_min_smoothing_alpha_above_one():
    # min over the ball can only decrease the divergence
    rho = qmat.random_state(3, 3, seed=9).data
    sig = qmat.random_state(3, 3, seed=10).data
    base = dv.sandwiched(rho, sig, 2.0)
    sv = sm.smoothed_sandwiched(rho, sig, small_spec(0.2, 2.0))
    assert sv.value <= base + 1e-9
    assert sv.certified is sm.Certified.HEURISTIC_UPPER_BOUND


def test_min_smoothing_handles_singular_sigma():
    # candidates are confined to supp(sigma); the projection of rho is close
    # enough here, so the value is finite
    sv = sm.smoothed_sandwiched(np.diag([0.98, 0.02]).astype(complex),
                                np.diag([1.0, 0.0]).astype(complex),
                                small_spec(0.5, 2.0))
    assert math.isfinite(sv.value)
    # and infeasible when the ball is too small to reach supp(sigma): no
    # start survives the projection, on either purified ball
    for ball in (sm.Ball.SUBNORMALIZED_PURIFIED, sm.Ball.NORMALIZED_PURIFIED):
        sv2 = sm.smoothed_sandwiched(np.diag([0.5, 0.5]).astype(complex),
                                     np.diag([1.0, 0.0]).astype(complex),
                                     small_spec(0.05, 2.0, ball))
        assert sv2.value == math.inf
        assert sv2.optimizer is None
        assert sv2.certified is sm.Certified.HEURISTIC_UPPER_BOUND


def test_dp_check_identity_channel():
    rho = qmat.random_state(3, 3, seed=11).data
    sig = qmat.random_state(3, 3, seed=12).data
    ident = qmat.KrausChannel([np.eye(3, dtype=complex)])
    res = sm.dp_check(rho, sig, ident, 0.75, 0.1, restarts=3, max_iters=150)
    assert abs(res.slack) <= 1e-8


def test_dp_check_embedding_isometry():
    # the subnormalized ball is embedding-invariant: slack vanishes
    ch = qmat.embedding_isometry_channel(2, 3)
    res = sm.dp_check(RHO2, SIG2, ch, 0.75, 0.1, restarts=4, max_iters=300)
    assert abs(res.slack) <= 1e-6


def test_dp_check_partial_trace_channel():
    # tracing out a subsystem is the hard branch of data-processing; the
    # recovery-map pullback keeps the left side competitive
    eye2 = np.eye(2, dtype=complex)
    ch = qmat.KrausChannel([np.kron(eye2, eye2[i:i + 1, :]) for i in range(2)])
    worst = 0.0
    for i in range(4):
        rho = qmat.random_state(4, 4, seed=700 + i).data
        sig = qmat.random_state(4, 4, seed=800 + i).data
        res = sm.dp_check(rho, sig, ch, (0.5, 0.7)[i % 2], 0.1,
                          restarts=3, max_iters=200, seed=i)
        worst = min(worst, res.slack)
    assert worst >= -1e-6


def test_dp_check_random_sweep():
    worst = 0.0
    for i in range(6):
        d = 2 + i % 3
        rho = qmat.random_state(d, d, seed=400 + i).data
        sig = qmat.random_state(d, d, seed=500 + i).data
        ch = qmat.random_channel(d, d, 2, seed=600 + i)
        alpha = (0.5, 0.7, 0.9)[i % 3]
        res = sm.dp_check(rho, sig, ch, alpha, 0.1, restarts=2, max_iters=120, seed=i)
        worst = min(worst, res.slack)
    assert worst >= -1e-6


def test_smoothed_monotone_athermality_singleton():
    gam = np.diag([0.8, 0.2]).astype(complex)
    rho = qmat.random_state(2, 2, seed=13).data
    th = mn.Athermality(gam)
    sv = sm.smoothed_monotone(rho, th, 0.75, 0.1, restarts=4, max_iters=200)
    direct = sm.smoothed_sandwiched(rho, gam, small_spec(0.1, 0.75))
    assert abs(sv.value - direct.value) <= 1e-8


def test_smoothed_monotone_small_eps_matches_unsmoothed():
    gam = np.diag([0.8, 0.2]).astype(complex)
    rho = qmat.random_state(2, 2, seed=14).data
    th = mn.Athermality(gam)
    sv = sm.smoothed_monotone(rho, th, 0.75, 1e-6, restarts=4, max_iters=200)
    assert abs(sv.value - mn.monotone_alpha(rho, th, 0.75)) <= 1e-4


def test_smoothed_monotone_coherence_dominates_unsmoothed():
    rho = qmat.random_state(2, 2, seed=15).data
    sv = sm.smoothed_monotone(rho, mn.Coherence(), 0.75, 0.05,
                              restarts=4, max_iters=200)
    base = mn.monotone_alpha(rho, mn.Coherence(), 0.75)
    assert sv.value >= base - 1e-9


def test_smoothed_monotone_rejects_entanglement():
    with pytest.raises(TheoryUnsupported):
        sm.smoothed_monotone(RHO2, mn.PureBipartiteEntanglement(2, 2), 0.75, 0.1)


def test_smoothed_petz_range_check():
    with pytest.raises(AlphaOutOfRange):
        sm._smoothed_petz(RHO2, SIG2, small_spec(0.1, 2.5))


# ---------------------------------------------------------------------------
# alpha = 1/2: the Bures-geodesic closed form
# ---------------------------------------------------------------------------

PURIFIED = [sm.Ball.SUBNORMALIZED_PURIFIED, sm.Ball.NORMALIZED_PURIFIED]


def _half_spec(eps, ball=sm.Ball.SUBNORMALIZED_PURIFIED):
    return sm.SmoothingSpec(epsilon=eps, alpha=0.5, ball=ball, restarts=2, max_iters=60)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_half_closed_form_oracle(d):
    taken = 0
    for k in range(2):
        rho = qmat.random_state(d, d, seed=3000 + 10 * d + k).data
        sig = qmat.random_state(d, d, seed=4000 + 10 * d + k).data
        for eps in (0.05, 0.2):
            _, angle, ok = qmat.bures_geodesic(rho, sig, math.asin(eps))
            for ball in PURIFIED:
                spec = _half_spec(eps, ball)
                sv = sm.smoothed_sandwiched(rho, sig, spec)
                if not ok:
                    assert sv.certified is sm.Certified.HEURISTIC_LOWER_BOUND
                    continue
                taken += 1
                assert sv.certified is sm.Certified.ANALYTIC_EXACT
                assert abs(sv.value + 2.0 * math.log2(math.cos(angle))) <= 1e-12
                w = np.linalg.eigvalsh(sv.optimizer)
                assert w[0] >= -1e-12
                assert abs(w.sum() - 1.0) <= 1e-10
                assert abs(qmat.purified_distance(sv.optimizer, rho) - eps) <= 1e-9
                assert abs(dv.sandwiched(sv.optimizer, sig, 0.5) - sv.value) <= 1e-9
                engine = sm._optimize(rho, sig, spec, sm._SandwichedObjective)
                assert engine.value <= sv.value + 1e-9
    assert taken >= 4


def test_half_commuting_pair_matches_bhattacharyya_angle():
    p, q = np.array([0.6, 0.3, 0.1]), np.array([0.2, 0.3, 0.5])
    eps = 0.1
    target = -2.0 * math.log2(math.cos(math.acos(np.sqrt(p * q).sum()) + math.asin(eps)))
    for ball in PURIFIED:
        sv = sm.smoothed_sandwiched(np.diag(p).astype(complex), np.diag(q).astype(complex),
                                    _half_spec(eps, ball))
        assert sv.certified is sm.Certified.ANALYTIC_EXACT
        assert abs(sv.value - target) <= 1e-12


@pytest.mark.parametrize("case", ["rho_equals_sigma", "rank_deficient_rho", "singular_sigma"])
def test_half_falls_back_to_engine(case):
    rho = qmat.random_state(3, 3, seed=21).data
    sig = qmat.random_state(3, 3, seed=22).data
    if case == "rho_equals_sigma":
        rho = sig
    elif case == "rank_deficient_rho":
        rho = qmat.random_state(3, 2, seed=21).data
    else:
        sig = qmat.random_state(3, 2, seed=22).data
    assert not qmat.bures_geodesic(rho, sig, math.asin(0.1))[2]
    spec = _half_spec(0.1)
    sv = sm.smoothed_sandwiched(rho, sig, spec)
    engine = sm._optimize(rho, sig, spec, sm._SandwichedObjective)
    assert sv.certified is sm.Certified.HEURISTIC_LOWER_BOUND
    assert sv.value == engine.value


def test_dp_check_half_both_sides_exact():
    rho = qmat.random_state(3, 3, seed=10_000).data
    sig = qmat.random_state(3, 3, seed=20_000).data
    ch = qmat.random_channel(3, 3, 2, seed=30_000)
    eps = 0.05
    res = sm.dp_check(rho, sig, ch, 0.5, eps, restarts=2, max_iters=120)
    assert not res.lifted
    assert res.slack >= -1e-12

    def exact(r, s):
        a = math.acos(qmat.root_fidelity(r, s))
        return -2.0 * math.log2(math.cos(a + math.asin(eps)))

    assert abs(res.lhs - exact(rho, sig)) <= 1e-9
    assert abs(res.rhs - exact(qmat.apply_channel(rho, ch), qmat.apply_channel(sig, ch))) <= 1e-9


def test_dp_check_half_channel_side_only_runs_the_engine():
    # a rank-2 input does not qualify; its full-rank image under the channel does
    rho = qmat.random_state(3, 2, seed=31).data
    sig = qmat.random_state(3, 3, seed=32).data
    ch = qmat.random_channel(3, 3, 2, seed=33)
    spec = _half_spec(0.1)
    assert sm._geodesic_optimum(rho, sig, spec) is None
    assert sm._geodesic_optimum(qmat.apply_channel(rho, ch), qmat.apply_channel(sig, ch),
                                spec) is not None
    res = sm.dp_check(rho, sig, ch, 0.5, 0.1, restarts=2, max_iters=60)
    assert res.lifted
    # both sides run the engine: the values it gave before the closed form existed
    assert abs(res.lhs - 0.5204418912719756) <= 1e-12
    assert abs(res.rhs - 0.24168934611504767) <= 1e-12


def test_eps_monotonicity_with_warm_starts(verify_case):
    verify_case("smoothing", "eps_monotonicity")


def test_ball_membership_and_trace(verify_case):
    verify_case("smoothing", "ball_membership")


def test_appendix_b_closed_forms(verify_case):
    verify_case("smoothing", "appendix_b_closed_forms")


def test_appendix_b_optimizer_is_scaled_pure_state(verify_case):
    verify_case("smoothing", "appendix_b_closed_forms")
