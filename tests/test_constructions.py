import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from resmono import constructions as cs
from resmono import divergences as dv
from resmono import monotones as mn
from resmono.errors import (DimensionMismatch, InfeasibleRounding, InputError,
                            InvalidGibbs, NotRational, SupportViolation)

FIG1_P = np.array([2 / 3, 1 / 12, 3 / 12])
FIG1_GAMMA = np.array([0.7, 0.2, 0.1])
FIG1_GAMMA_FRAC = [Fraction(7, 10), Fraction(2, 10), Fraction(1, 10)]


# ---------------------------------------------------------------------------
# embedding channel
# ---------------------------------------------------------------------------

def test_embedding_uniform_gibbs_is_identity():
    p = np.array([0.3, 0.2, 0.5])
    gam = [Fraction(1, 3)] * 3
    assert np.allclose(cs.embedding_channel(p, gam).probs, p, atol=1e-15)


def test_embedding_fig1_block_structure():
    phat = cs.embedding_channel(np.array([2 / 3, 1 / 12, 1 / 4]), FIG1_GAMMA_FRAC).probs
    assert phat.shape == (10,)
    assert np.allclose(phat[:7], (2 / 3) / 7)
    assert np.allclose(phat[7:9], (1 / 12) / 2)
    assert np.allclose(phat[9:], 1 / 4)


def test_embedding_preserves_divergences_and_fidelity():
    p = np.array([2 / 3, 1 / 12, 1 / 4])
    phat = cs.embedding_channel(p, FIG1_GAMMA_FRAC).probs
    uniform = np.full(10, 0.1)
    for alpha in (0.5, 0.8, 1.0, 2.0, math.inf):
        assert abs(dv.classical_renyi(p, FIG1_GAMMA, alpha)
                   - dv.classical_renyi(phat, uniform, alpha)) <= 1e-12
    f_before = np.sqrt(p * FIG1_GAMMA).sum()
    f_after = np.sqrt(phat * uniform).sum()
    assert abs(f_before - f_after) <= 1e-12


def test_embedding_rejects_bad_inputs():
    with pytest.raises(NotRational):
        cs.embedding_channel(np.array([0.5, 0.5]), [0.5, 0.5])
    with pytest.raises(NotRational):
        cs.embedding_channel(np.array([0.5, 0.5]), [Fraction(1, 3), Fraction(1, 3)])


# ---------------------------------------------------------------------------
# hard pairs
# ---------------------------------------------------------------------------

def test_athermal_qutrit_pair_conditions():
    rep = cs.build_athermal_qutrit_pair(10 ** 4, 0.1)
    assert rep.is_hard
    assert rep.d_gap >= -1e-12
    assert rep.fid_gap > 0
    # conditions re-verified through the monotone layer at alpha in {1/2, 1}
    th = mn.Athermality(rep.diagnostics["gibbs"])
    assert (mn.monotone_alpha(rep.rho, th, 0.5)
            < mn.monotone_alpha(rep.rho_prime, th, 0.5))
    assert (mn.monotone_alpha(rep.rho, th, 1.0)
            >= mn.monotone_alpha(rep.rho_prime, th, 1.0) - 1e-12)


def test_athermal_qutrit_gap_grows_with_dimension():
    gaps = [cs.build_athermal_qutrit_pair(d, 0.1).fid_gap
            for d in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert gaps[0] < gaps[1] < gaps[2]


def test_athermal_qutrit_embedded_forms_match():
    rep = cs.build_athermal_qutrit_pair(1000, 0.1)
    big_d = rep.diagnostics["D"]
    n2 = rep.diagnostics["n2"]
    mu = rep.diagnostics["mu"]
    gam_frac = [Fraction(big_d - n2, big_d), Fraction(n2 - 1, big_d), Fraction(1, big_d)]
    phat = cs.embedding_channel(rep.rho.probs, gam_frac).probs
    assert np.allclose(phat[:-1], (1.0 - mu) / (big_d - 1), atol=1e-15)
    assert abs(phat[-1] - mu) <= 1e-15
    pphat = cs.embedding_channel(rep.rho_prime.probs, gam_frac).probs
    assert np.allclose(pphat[-n2:], 1.0 / n2, atol=1e-15)
    assert np.allclose(pphat[:-n2], 0.0, atol=1e-15)


def test_athermal_qutrit_infeasible_rounding():
    with pytest.raises(InfeasibleRounding):
        cs.build_athermal_qutrit_pair(50, 0.1)


def test_entanglement_pair_d3_exact():
    rep = cs.build_entanglement_pair(3, 2.0 / 3.0)
    assert np.allclose(sorted(rep.rho.probs), [1 / 6, 1 / 6, 2 / 3], atol=1e-12)
    assert np.allclose(sorted(rep.rho_prime.probs), [0.0, 0.5, 0.5], atol=1e-12)
    assert rep.is_hard
    assert abs(rep.fid_gap - (math.sqrt(2 / 3) - math.sqrt(1 / 2))) <= 1e-10
    h = -(2 / 3) * math.log2(2 / 3) - 2 * (1 / 6) * math.log2(1 / 6)
    assert abs(rep.diagnostics["entropy"] - h) <= 1e-12
    assert abs(rep.diagnostics["entropy_prime"] - 1.0) <= 1e-12


def test_entanglement_gap_trend():
    gaps = [cs.build_entanglement_pair(d, 0.9).fid_gap for d in (100, 1000, 10000)]
    assert all(gaps[i + 1] >= gaps[i] - 1e-12 for i in range(2))
    assert gaps[-1] > gaps[0]


def test_entanglement_pair_infeasible():
    with pytest.raises(InfeasibleRounding):
        cs.build_entanglement_pair(2, 0.5)


def test_coherence_pair_d4():
    mu = 1.0 - 1.0 / math.log2(3.0)
    rep = cs.build_coherence_pair(4, 0.5, mu)
    assert abs(rep.diagnostics["D_rho"] - 1.0) <= 1e-12
    assert abs(rep.diagnostics["D_phi"] - 1.0) <= 1e-12
    assert rep.diagnostics["F_rho"] > 0.5
    assert abs(rep.diagnostics["F_phi"] - 0.5) <= 1e-12
    # the witness is a lower bound on the primal value; both exceed F(phi)
    primal = mn.fidelity_coherence_primal(rep.rho.data, restarts=6).value
    assert abs(primal - rep.diagnostics["F_rho"]) <= 1e-6
    assert rep.diagnostics["F_rho_witness"] <= primal + 1e-9
    # relative entropy of coherence evaluated through the monotone layer
    assert abs(mn.monotone_alpha(rep.rho.data, mn.Coherence(), 1.0) - 1.0) <= 1e-9
    assert abs(mn.monotone_alpha(rep.rho_prime.data, mn.Coherence(), 1.0) - 1.0) <= 1e-9


def test_coherence_pair_infeasible():
    with pytest.raises(InfeasibleRounding):
        cs.build_coherence_pair(4, 0.1, 0.3)   # d2 rounds to 1: phi not coherent
    with pytest.raises(InfeasibleRounding):
        cs.build_coherence_pair(6, 0.7, 0.3)   # d1 * d2 = 8 > 6


# ---------------------------------------------------------------------------
# Bloch level set
# ---------------------------------------------------------------------------

def test_bloch_sweep_reproduces_published_point():
    rep = cs.bloch_level_set(np.diag([0.999, 0.001]), d_target=2.0, theta_points=300)
    d = rep.diagnostics
    assert abs(d["theta_bloch"] - math.pi / 3.38) <= 0.02
    assert abs(d["rho_prime_diag"][0] - 0.713) <= 0.005
    assert abs(d["rho_prime_diag"][1] - 0.287) <= 0.005
    assert abs(d["F_gap"] - 0.058) <= 0.005
    # the max-F point is pure at the published resolution; the exact level-set
    # argmax sits marginally inside the sphere (the sqrt(det) term of the qubit
    # fidelity has unbounded inward derivative at pure states)
    w = np.linalg.eigvalsh(rep.rho.data)
    assert w[-1] >= 0.995
    # every level-set sample sits on the target level
    for th, x, z, fv in d["level_set"][::50]:
        got = cs._qubit_d_bits(np.array(x), np.array(z), 0.999, 0.001)
        assert abs(float(got) - 2.0) <= 1e-6


def test_bloch_sweep_rejects_bad_gibbs():
    with pytest.raises(InvalidGibbs):
        cs.bloch_level_set(np.array([[0.9, 0.1], [0.1, 0.1]]), 2.0)
    with pytest.raises(InvalidGibbs):
        cs.bloch_level_set(np.diag([1.0, 0.0]), 2.0)
    with pytest.raises(InvalidGibbs, match="larger weight first"):
        cs.bloch_level_set(np.diag([0.3, 0.7]), 1.0)


@pytest.mark.parametrize("kwargs, match", [
    ({"d_target": -1.0}, "level"),
    ({"d_target": math.nan}, "level"),
    ({"d_target": 0.0}, "level"),
    ({"d_target": math.log2(1 / 0.3)}, "level"),
    ({"d_target": 3.0}, "level"),
    ({"theta_points": 0}, "theta_points"),
])
def test_bloch_sweep_rejects_bad_arguments(kwargs, match):
    args = {"d_target": 1.0, "theta_points": 36, **kwargs}
    with pytest.raises(InputError, match=match):
        cs.bloch_level_set(np.diag([0.7, 0.3]), **args)


def _scalar_sweep_reference(g0, g1, d_target, theta_points):
    """Level set and F extremes by one scalar 80-step bisection per ray and two
    scalar golden-section searches, one after the other."""
    cz = g0 - g1

    def d_at(x, z):
        x, z = np.array(x), np.array(z)
        r = np.sqrt(np.clip(x * x + z * z, 0.0, 1.0))
        ent = np.zeros_like(r)
        for w in ((1.0 + r) / 2.0, (1.0 - r) / 2.0):
            ent = ent - np.where(w > 0, w * np.log2(np.where(w > 0, w, 1.0)), 0.0)
        return -ent - ((1.0 + z) / 2.0 * math.log2(g0) + (1.0 - z) / 2.0 * math.log2(g1))

    def ray_point(theta, r):
        return r * math.sin(theta), cz + r * math.cos(theta)

    def r_max(theta):
        cu = cz * math.cos(theta)
        return -cu + math.sqrt(cu * cu + 1.0 - cz * cz)

    def f_at(theta):
        rm = r_max(theta)
        if d_at(*ray_point(theta, rm)) < d_target:
            return None
        lo, hi = 0.0, rm
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if d_at(*ray_point(theta, mid)) >= d_target:
                hi = mid
            else:
                lo = mid
        pt = ray_point(theta, hi)
        return float(cs._qubit_f(np.array(pt[0]), np.array(pt[1]), g0, g1)), pt

    lo, hi = 0.0, math.pi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if d_at(*ray_point(mid, r_max(mid))) >= d_target:
            hi = mid
        else:
            lo = mid
    theta0 = hi

    best_max, best_min, level_set = (-math.inf, None), (math.inf, None), []
    for th in np.linspace(theta0, math.pi, theta_points):
        fv, pt = f_at(th)
        level_set.append((float(th), float(pt[0]), float(pt[1]), fv))
        if fv > best_max[0]:
            best_max = (fv, th)
        if fv < best_min[0]:
            best_min = (fv, th)

    def refine(th_center, sign):
        span = (math.pi - theta0) / theta_points
        a = max(theta0, th_center - 2 * span)
        b = min(math.pi, th_center + 2 * span)
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        c1 = b - golden * (b - a)
        c2 = a + golden * (b - a)
        f1 = sign * f_at(c1)[0]
        f2 = sign * f_at(c2)[0]
        for _ in range(60):
            if f1 < f2:
                b, c2, f2 = c2, c1, f1
                c1 = b - golden * (b - a)
                f1 = sign * f_at(c1)[0]
            else:
                a, c1, f1 = c1, c2, f2
                c2 = a + golden * (b - a)
                f2 = sign * f_at(c2)[0]
        return f_at(0.5 * (a + b))

    f_hi, pt_hi = refine(best_max[1], -1.0)
    f_lo, pt_lo = refine(best_min[1], +1.0)
    f_end, pt_end = f_at(theta0)
    if f_end > f_hi:
        f_hi, pt_hi = f_end, pt_end
    return level_set, (f_hi, pt_hi), (f_lo, pt_lo), math.atan2(abs(pt_hi[0]), pt_hi[1])


@pytest.mark.parametrize("g0, level, theta_points", [
    (0.999, 2.0, 720),      # the README sweep
    (0.9, 1.5, 200),
    (0.8, 0.5, 97),
])
def test_bloch_sweep_matches_scalar_reference(g0, level, theta_points):
    g1 = 1.0 - g0
    rep = cs.bloch_level_set(np.diag([g0, g1]), d_target=level, theta_points=theta_points)
    level_set, (f_hi, pt_hi), (f_lo, pt_lo), theta_bloch = _scalar_sweep_reference(
        g0, g1, level, theta_points)
    d = rep.diagnostics
    assert d["level_set"] == level_set
    assert d["F_rho"] == f_hi and d["F_rho_prime"] == f_lo
    assert d["theta_bloch"] == theta_bloch
    assert np.array_equal(rep.rho.data, 0.5 * np.array(
        [[1.0 + pt_hi[1], pt_hi[0]], [pt_hi[0], 1.0 - pt_hi[1]]], dtype=complex))
    assert np.array_equal(rep.rho_prime.data, 0.5 * np.array(
        [[1.0 + pt_lo[1], pt_lo[0]], [pt_lo[0], 1.0 - pt_lo[1]]], dtype=complex))


# ---------------------------------------------------------------------------
# thermomajorization and regions
# ---------------------------------------------------------------------------

def test_thermomajorizes_reflexive_and_gibbs():
    ok = cs.thermomajorizes(FIG1_P, FIG1_P, FIG1_GAMMA)
    assert ok
    ok = cs.thermomajorizes(FIG1_P, FIG1_GAMMA, FIG1_GAMMA)
    assert ok
    # the Gibbs state thermomajorizes nothing but itself-like states
    ok = cs.thermomajorizes(FIG1_GAMMA, FIG1_P, FIG1_GAMMA)
    assert not ok
    with pytest.raises(SupportViolation):
        cs.thermomajorizes(FIG1_P, FIG1_P, np.array([1.0, 0.0, 0.0]))


def test_thermomajorizes_matches_embedding_oracle():
    rng = np.random.default_rng(1)
    _, blocks = cs.embedding_blocks(FIG1_GAMMA_FRAC)
    phat = cs.embedding_channel(FIG1_P, FIG1_GAMMA_FRAC).probs
    cum_p = np.cumsum(np.sort(phat)[::-1])
    for _ in range(40):
        q = rng.random(3)
        q /= q.sum()
        ok = cs.thermomajorizes(FIG1_P, q, FIG1_GAMMA)
        qhat = cs.embedding_channel(q, FIG1_GAMMA_FRAC).probs
        cum_q = np.cumsum(np.sort(qhat)[::-1])
        assert ok == bool(np.all(cum_p >= cum_q - 1e-12))


def test_block_lorenz_matches_embedded_cumsum():
    # the kink formula of the embedded Lorenz curve, at every position
    rng = np.random.default_rng(4)
    gamma = [Fraction(3, 17), Fraction(5, 17), Fraction(9, 17)]
    den, blocks = cs.embedding_blocks(gamma)
    pts = rng.dirichlet(np.ones(3), size=20)
    pts[0] = [0.0, 1.0, 0.0]
    curve = cs._block_lorenz(pts, np.asarray(blocks, dtype=float))
    for r, pt in enumerate(pts):
        full = np.cumsum(np.sort(cs.embedding_channel(pt, gamma).probs)[::-1])
        at = np.arange(1, den + 1, dtype=float)
        got = cs._lorenz_at(tuple(c[r:r + 1] for c in curve), at)
        assert np.max(np.abs(got - full)) <= 1e-15


def test_majorization_oracle_memory_at_a_large_denominator():
    # the embedding has 20000 entries; the oracle compares the curves at
    # their kinks only, never at all 20000 positions of 20301 points
    gamma = [Fraction(1, 20000), Fraction(1, 20000), Fraction(19998, 20000)]
    gv = np.array([float(g) for g in gamma])
    tracemalloc.start()
    try:
        grid = cs.classify_simplex_regions(np.array([0.4, 0.4, 0.2]), gv, 200,
                                           gamma_rational=gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert grid.oracle_disagreements == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_classical_d_pair_where_powers_overflow():
    # every row of classical_renyi_rows, both directions, zero entries
    # included, is classical_renyi of its point. At gamma_2 = 1e-8,
    # gamma_2^(1 - alpha) overflows at large alpha and rows are summed in the
    # log domain; at gamma_2 = 1e-13 <= OVERLAP_TOL, a point with 0 there
    # violates no support condition at alpha >= 1, for rows as for the scalar,
    # and at alpha = 1075 such a row is summed in the log domain with that 0
    pts = cs._simplex_points(4)
    for gv in ([0.5, 1e-8, 0.49999998999999995], [0.5, 1e-13, 0.4999999999999]):
        gv = np.array(gv)
        for a in (0.5, 0.7, 1.0, 2.0, 40.0, 400.0, 1075.0, math.inf):
            d_pg, d_gp = dv.classical_renyi_rows(pts, gv, a), dv.classical_renyi_rows(gv, pts, a)
            for pt, x, y in zip(pts, d_pg, d_gp):
                with np.errstate(over="ignore", invalid="ignore"):   # classical_renyi's plain try
                    ref_pg, ref_gp = dv.classical_renyi(pt, gv, a), dv.classical_renyi(gv, pt, a)
                assert x == ref_pg and y == ref_gp
    d_pg = dv.classical_renyi_rows(np.eye(3)[[1]], np.array([0.5, 1e-8, 0.49999998999999995]),
                                   40.0)
    assert abs(d_pg[0] - 26.5754247591) <= 1e-9


def test_classify_regions_small_grid():
    grid = cs.classify_simplex_regions(FIG1_P, FIG1_GAMMA, 40,
                                       gamma_rational=FIG1_GAMMA_FRAC)
    assert grid.nesting_violations == 0
    assert grid.oracle_disagreements == 0
    assert grid.counts["FO"] <= grid.counts["CO"] <= grid.counts["CCO"]
    assert grid.counts["RED"] > 0
    # RED implies in CCO and not in CO
    red = grid.labels == "RED"
    assert np.all(grid.cco_mask[red])
    assert not np.any(grid.co_mask[red])
    # the input state and the Gibbs state are both freely reachable
    for target in (FIG1_P, FIG1_GAMMA):
        idx = np.argmin(np.abs(grid.points - target).sum(axis=1))
        if np.abs(grid.points[idx] - target).sum() <= 1e-12:
            assert grid.labels[idx] == "FO"


def test_classify_regions_exact_gridpoints_fo():
    # choose a grid size that contains p exactly: p = (2/3, 1/12, 1/4) needs
    # multiples of 12
    grid = cs.classify_simplex_regions(FIG1_P, FIG1_GAMMA, 48,
                                       gamma_rational=FIG1_GAMMA_FRAC)
    d = np.abs(grid.points - FIG1_P).sum(axis=1)
    assert d.min() <= 1e-12
    assert grid.labels[int(np.argmin(d))] == "FO"


def test_classify_regions_rejects_mismatched_shapes():
    with pytest.raises(DimensionMismatch, match=r"\(2,\).*\(3,\)"):
        cs.classify_simplex_regions(np.array([0.5, 0.5]), FIG1_GAMMA, 10)


def test_classify_regions_rejects_bad_arguments():
    with pytest.raises(InputError, match="grid"):
        cs.classify_simplex_regions(FIG1_P, FIG1_GAMMA, 0)
    with pytest.raises(InputError, match="grid"):
        cs.classify_simplex_regions(FIG1_P, FIG1_GAMMA, -3)
    with pytest.raises(InputError, match="alpha points"):
        cs.default_alpha_grid(0)
    for alphas in ([1.0, math.inf], [0.5, 2.0], []):
        with pytest.raises(InputError, match="alpha_grid"):
            cs.classify_simplex_regions(FIG1_P, FIG1_GAMMA, 10, alpha_grid=alphas)


def _full_matrix_regions(pv, gv, pts, alphas):
    """CO, CCO, red_margin and D_bits from both divergence families held as
    (len(alphas), n_points) matrices, reduced over the alpha axis at once."""
    n = pts.shape[0]
    d_pg = np.empty((len(alphas), n))
    d_gp = np.empty((len(alphas), n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, a in enumerate(alphas):
            if math.isinf(a):
                d_pg[i] = np.log2(np.where(pts > 0, pts / gv[None, :], 0.0).max(axis=1))
                d_gp[i] = np.log2(np.where(pts > 0, gv[None, :] / pts, np.inf).max(axis=1))
            elif abs(a - 1.0) < dv.ALPHA_ONE_WINDOW:
                safe = np.where(pts > 0, pts, 1.0)
                d_pg[i] = np.where(pts > 0, pts * np.log2(safe / gv[None, :]), 0.0).sum(axis=1)
                vals = (gv[None, :] * np.log2(gv[None, :] / safe)).sum(axis=1)
                d_gp[i] = np.where((pts <= 0).any(axis=1), np.inf, vals)
            else:
                safe = np.where(pts > 0, pts, 1.0)
                d_pg[i] = np.log2((pts ** a * gv[None, :] ** (1.0 - a)).sum(axis=1)) / (a - 1.0)
                s_gp = np.where(pts > 0, gv[None, :] ** a * safe ** (1.0 - a), 0.0).sum(axis=1)
                if a > 1.0:
                    s_gp = np.where((pts <= 0).any(axis=1), np.inf, s_gp)
                    d_gp[i] = np.where(np.isinf(s_gp), np.inf, np.log2(s_gp) / (a - 1.0))
                else:
                    d_gp[i] = np.log2(s_gp) / (a - 1.0)
    ref_pg = np.array([dv.classical_renyi(pv, gv, a) for a in alphas])
    ref_gp = np.array([dv.classical_renyi(gv, pv, a) for a in alphas])
    co = np.all((ref_pg[:, None] >= d_pg - cs.CMP_TOL)
                & (ref_gp[:, None] >= d_gp - cs.CMP_TOL), axis=0)
    kl = int(np.where(np.abs(alphas - 1.0) < 1e-9)[0][0])
    cco = ref_pg[kl] >= d_pg[kl] - cs.CMP_TOL
    sub = (alphas >= 0.5) & (alphas < 1.0)
    red_margin = (d_pg[sub] - ref_pg[sub, None]).max(axis=0)
    return co, cco, red_margin, d_pg[kl]


@pytest.mark.parametrize("grid_n, alpha_points, rational", [
    (40, 64, True), (40, 64, False), (60, 64, True), (60, 64, False),
    (40, 1, True), (60, 1, False),
])
def test_classify_regions_matches_full_matrix_reference(grid_n, alpha_points, rational):
    alphas = cs.default_alpha_grid(alpha_points)
    grid = cs.classify_simplex_regions(FIG1_P, FIG1_GAMMA, grid_n, alpha_grid=alphas,
                                       gamma_rational=FIG1_GAMMA_FRAC if rational else None)
    co, cco, red_margin, d_bits = _full_matrix_regions(FIG1_P, FIG1_GAMMA, grid.points, alphas)
    fo = grid.fo_mask
    red = cco & ~co & (red_margin > cs.CMP_TOL)
    labels = np.where(fo, "FO", np.where(co, "CO_only", np.where(
        red, "RED", np.where(cco, "CCO_only", "OUTSIDE"))))
    assert np.array_equal(grid.co_mask, co)
    assert np.array_equal(grid.cco_mask, cco)
    assert np.array_equal(grid.red_margin, red_margin)
    assert np.array_equal(grid.d_bits, d_bits)
    assert np.array_equal(grid.labels, labels)
    assert grid.counts == {"FO": int(fo.sum()), "CO": int(co.sum()), "CCO": int(cco.sum()),
                           "RED": int(red.sum())}
    assert grid.nesting_violations == int(np.sum(fo & ~co) + np.sum(co & ~cco))
    assert (grid.oracle_disagreements == 0) if rational else grid.oracle_disagreements is None
