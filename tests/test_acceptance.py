"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line with its headline numbers (visible with -s; the
pytest verdict itself is the pass/fail record otherwise).
"""

import math
import time
from fractions import Fraction

import numpy as np

from resmono import catalysis as ct
from resmono import constructions as cs
from resmono import divergences as dv
from resmono import monotones as mn
from resmono import qmat
from resmono import smoothing as sm


def _report(name, detail=""):
    print(f"PASS {name} {detail}")


def test_criterion_01_appendix_b_closed_forms():
    t0 = time.perf_counter()
    rows = sm.appendix_b_suite(alpha=0.75, epsilon=0.1)
    by = {r.case: r for r in rows}
    for r in rows:
        if r.comparison == "eq":
            assert abs(r.abs_err) <= 1e-6, f"{r.case}: err {r.abs_err:.2e}"
        else:
            assert r.abs_err >= -1e-6, f"{r.case}: err {r.abs_err:.2e}"
    inv = abs(by["sandwiched_subnormalized_2d"].value_bits
              - by["sandwiched_subnormalized_3d"].value_bits)
    assert inv <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("criterion-1 appendix-b", f"max |err| {max(abs(r.abs_err) for r in rows):.2e}, "
            f"embedding invariance {inv:.2e}, {elapsed:.1f}s")


def test_criterion_02_qubit_sweep():
    t0 = time.perf_counter()
    rep = cs.bloch_level_set(np.diag([0.999, 0.001]), d_target=2.0)
    d = rep.diagnostics
    assert abs(d["theta_bloch"] - math.pi / 3.38) <= 0.02
    assert abs(d["rho_prime_diag"][0] - 0.713) <= 0.005
    assert abs(d["rho_prime_diag"][1] - 0.287) <= 0.005
    assert abs(d["F_gap"] - 0.058) <= 0.005
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("criterion-2 qubit-sweep",
            f"theta {d['theta_bloch']:.5f}, rho' ({d['rho_prime_diag'][0]:.4f}, "
            f"{d['rho_prime_diag'][1]:.4f}), gap {d['F_gap']:.4f}, {elapsed:.1f}s")


def test_criterion_03_fidelity_coherence_duality():
    t0 = time.perf_counter()
    worst_gap = 0.0
    idx = 0
    per_dim = {2: 13, 3: 13, 4: 12, 5: 12}   # 50 states total
    for d, count in per_dim.items():
        for k in range(count):
            idx += 1
            rho = qmat.random_state(d, d, seed=1000 * d + k).data
            p = mn.fidelity_coherence_primal(rho, restarts=6, seed=k).value
            dl = mn.fidelity_coherence_dual(rho, restarts=6, seed=k).value
            worst_gap = max(worst_gap, abs(p - dl))
    assert idx == 50
    assert worst_gap <= 1e-5

    worst_phi = 0.0
    for d in range(2, 9):
        v = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
        val = mn.fidelity_coherence_primal(np.outer(v, v.conj()), restarts=4).value
        worst_phi = max(worst_phi, abs(val - 1.0 / d))
    assert worst_phi <= 1e-8

    worst_mult = 0.0
    for k in range(20):
        a = qmat.random_state(2, 2, seed=3000 + k).data
        b = qmat.random_state(2, 2, seed=4000 + k).data
        worst_mult = max(worst_mult, abs(mn.multiplicativity_check(a, b, restarts=6).gap))
    assert worst_mult <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("criterion-3 duality",
            f"worst duality gap {worst_gap:.2e}, worst phi err {worst_phi:.2e}, "
            f"worst mult gap {worst_mult:.2e}, {elapsed:.1f}s")


def test_criterion_04_hard_pairs():
    t0 = time.perf_counter()
    # (a) athermal qutrit
    rep = cs.build_athermal_qutrit_pair(10 ** 4, 0.1)
    assert rep.conditions_met["relent_ordered"]
    assert rep.fid_gap > 0
    gaps = [cs.build_athermal_qutrit_pair(d, 0.1).fid_gap
            for d in (10 ** 3, 10 ** 4, 10 ** 5)]
    assert gaps[0] < gaps[1] < gaps[2]
    # (b) entanglement d = 3
    ent = cs.build_entanglement_pair(3, 2.0 / 3.0)
    assert ent.diagnostics["entropy"] >= 1.0 - 1e-12
    assert abs(ent.diagnostics["entropy_prime"] - 1.0) <= 1e-12
    assert abs(ent.fid_gap - (math.sqrt(2 / 3) - math.sqrt(0.5))) <= 1e-10
    # (c) coherence d = 4
    coh = cs.build_coherence_pair(4, 0.5, 1.0 - 1.0 / math.log2(3.0))
    assert abs(coh.diagnostics["D_rho"] - 1.0) <= 1e-9
    assert abs(coh.diagnostics["D_phi"] - 1.0) <= 1e-9
    assert coh.diagnostics["F_rho"] > 0.5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("criterion-4 hard-pairs",
            f"qutrit gaps {gaps[0]:.4f}<{gaps[1]:.4f}<{gaps[2]:.4f}, "
            f"ent gap err {abs(ent.fid_gap - (math.sqrt(2/3) - math.sqrt(0.5))):.1e}, "
            f"{elapsed:.1f}s")


def test_criterion_05_data_processing_suite():
    worst = math.inf
    alphas = (0.5, 0.7, 0.9)
    epss = (0.05, 0.2)
    count = 0
    for i in range(100):
        d = 2 + i % 3
        rho = qmat.random_state(d, d, seed=10_000 + i).data
        sig = qmat.random_state(d, d, seed=20_000 + i).data
        ch = qmat.random_channel(d, d, 2, seed=30_000 + i)
        res = sm.dp_check(rho, sig, ch, alphas[i % 3], epss[i % 2],
                          restarts=2, max_iters=120, seed=i)
        worst = min(worst, res.slack)
        count += 1
    assert count == 100
    assert worst >= -1e-6
    _report("criterion-5 data-processing", f"worst slack {worst:+.2e} over 100")


def test_criterion_06_continuity_bound():
    worst = math.inf
    checked = 0
    alphas = (0.5, 0.7, 0.9)
    rng = np.random.default_rng(7)
    while checked < 100:
        i = checked
        d = 2 + i % 3
        rho = qmat.random_state(d, d, seed=40_000 + i).data
        sig = qmat.random_state(d, d, seed=50_000 + i).data
        tau = qmat.random_state(d, d, seed=60_000 + i).data
        w = 0.002 + 0.02 * rng.random()
        pert = (1.0 - w) * rho + w * tau
        if i % 3 == 0:
            pert = pert * (1.0 - 0.01 * rng.random())
        alpha = alphas[i % 3]
        eps = qmat.gen_trace_distance(rho, pert)
        q = dv.q_alpha(rho, sig, alpha)
        assert eps <= q ** (1.0 / alpha), "perturbation outside the bound's domain"
        lhs = abs(dv.sandwiched(rho, sig, alpha) - dv.sandwiched(pert, sig, alpha))
        rhs = math.log2(1.0 - eps ** alpha / q) / (alpha - 1.0)
        worst = min(worst, rhs - lhs)
        checked += 1
    assert worst >= -1e-9
    _report("criterion-6 continuity", f"worst slack {worst:+.2e} over 100")


def test_criterion_07_catalyst_curves():
    rep = cs.build_athermal_qutrit_pair(10 ** 4, 0.1)
    th = mn.Athermality(rep.diagnostics["gibbs"])
    eps_list = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    alpha = 0.5
    curve = ct.scaling_curve(rep.rho, rep.rho_prime, th, eps_list, alpha=alpha)
    assert abs(curve.lower_slope - alpha / (1.0 - alpha)) <= 1e-9
    assert curve.lower_residual <= 1e-9
    assert np.all(curve.lower_bound_bits <= curve.upper_bound_bits + 1e-9)
    worst_ratio = 0.0
    for eps in eps_list:
        tb = ct.catalyst_fidelity_bound_tight(rep.rho, rep.rho_prime, th, eps)
        assert tb.sqrt_f_bound <= tb.q_bound_half + 1e-12
        worst_ratio = max(worst_ratio, tb.ratio)
    _report("criterion-7 catalyst-curves",
            f"slope {curve.lower_slope:.12f}, residual {curve.lower_residual:.1e}, "
            f"tight/general <= {worst_ratio:.3f}")


def test_criterion_08_duan_blocks():
    rng = np.random.default_rng(11)
    worst_fe = math.inf
    worst_chain = math.inf
    pairs = 0
    while pairs < 6:
        p = rng.random(2) + 0.05
        p /= p.sum()
        pp = rng.random(2) + 0.05
        pp /= pp.sum()
        eta = rng.random(2) + 0.2
        eta /= eta.sum()
        if dv.classical_kl(p, eta) < dv.classical_kl(pp, eta):
            p, pp = pp, p
        pairs += 1
        for n in (2, 3, 4):
            rep = ct.duan_catalyst(p, pp, eta, eta, n=n)
            worst_fe = min(worst_fe, rep.free_energy_bound - rep.d_nu_gamma)
            xi = []
            for k in range(1, n + 1):
                target = pp
                for _ in range(k - 1):
                    target = np.kron(target, pp)
                noise = rng.random(target.shape[0])
                noise /= noise.sum()
                t = 0.02 + 0.05 * rng.random()
                xi.append((1 - t) * target + t * noise)
            noisy = ct.duan_catalyst(p, pp, eta, eta, n=n, xi_list=xi)
            worst_chain = min(worst_chain, 2.0 * noisy.xi_eps0 + 1e-10 - noisy.p_tau)
    assert worst_fe >= -1e-10
    assert worst_chain >= 0.0
    _report("criterion-8 duan-blocks",
            f"free-energy slack {worst_fe:+.3e}, error-chain slack {worst_chain:+.3e}")


def test_criterion_09_error_exponent():
    p1, q1 = np.array([0.6, 0.4]), np.array([0.5, 0.5])
    g1 = ct.error_exponent_first_order(p1, q1, np.array([0.55, 0.45]), q1)
    worst = 0.0
    for a in (2, 3):
        pa, qa = p1, q1
        pb, qb = np.array([0.55, 0.45]), q1
        for _ in range(a - 1):
            pa, qa = np.kron(pa, p1), np.kron(qa, q1)
            pb, qb = np.kron(pb, np.array([0.55, 0.45])), np.kron(qb, q1)
        worst = max(worst, abs(ct.error_exponent_first_order(pa, qa, pb, qb) - a * g1))
    assert worst <= 1e-9

    def mix_to(target):
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dv.classical_kl((1 - mid) * p1 + mid * q1, q1) > target:
                lo = mid
            else:
                hi = mid
        return (1 - hi) * p1 + hi * q1

    d1 = dv.classical_kl(p1, q1)
    worst_margin = math.inf
    gammas = {}
    for gap in (0.004, 0.002):
        pa = mix_to(d1 - gap)
        opt = ct.error_exponent_optimized(p1, q1, pa, q1).gamma
        first = ct.error_exponent_first_order(p1, q1, pa, q1)
        worst_margin = min(worst_margin, opt - first)
        gammas[gap] = opt
    assert worst_margin >= -1e-6
    ratio = gammas[0.004] / gammas[0.002]
    assert abs(ratio - 4.0) <= 0.8
    _report("criterion-9 error-exponent",
            f"copy-scaling dev {worst:.1e}, opt-first margin {worst_margin:+.2e}, "
            f"halving ratio {ratio:.3f}")


def test_criterion_10_region_data():
    grid = cs.classify_simplex_regions(
        np.array([2 / 3, 1 / 12, 3 / 12]), np.array([0.7, 0.2, 0.1]), 200,
        gamma_rational=[Fraction(7, 10), Fraction(2, 10), Fraction(1, 10)])
    assert grid.nesting_violations == 0
    red = grid.labels == "RED"
    assert np.all(grid.cco_mask[red])
    assert not np.any(grid.co_mask[red])
    assert grid.oracle_disagreements == 0
    _report("criterion-10 regions",
            f"counts {grid.counts}, 0 nesting violations, 0 oracle disagreements")
