"""Named invariant suites backing the `verify` subcommand.

Each suite mirrors one module's invariants-and-properties contract; a check
returns (name, ok, detail) and `run_suites` aggregates them. The CLI exits
nonzero naming the first failing invariant.

A case holds every fixed instance of its invariant, each drawn at `seed + k`
so that `--seed 0` reproduces it, and its tolerance; the unit tests do not
re-check these on instances of their own. tests/test_verification.py runs
every suite at seed 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import catalysis as ct
from . import constructions as cs
from . import divergences as dv
from . import monotones as mn
from . import qmat
from . import smoothing as sm
from .errors import InputError

ALPHA_GRID = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.25, 1.5, 2.0, 3.0]


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: bool
    detail: str


def _res(suite, name, ok, detail=""):
    return CheckResult(suite=suite, name=name, ok=bool(ok), detail=detail)


def _simplex_point(rng, d):
    p = rng.random(d) + 1e-2
    return p / p.sum()


# ---------------------------------------------------------------------------
# qmat
# ---------------------------------------------------------------------------

def suite_qmat(seed: int = 0):
    out = []
    worst = 0.0
    for d, k in [(2 + i % 7, i) for i in range(20)] + [(4, 11)]:
        rho = qmat.random_state(d, d, seed=seed + k).data
        w, u = qmat.eigh(rho)
        worst = max(worst, float(np.max(np.abs((u * w) @ u.conj().T - rho))))
        for gram in (u @ u.conj().T, u.conj().T @ u):
            worst = max(worst, float(np.max(np.abs(gram - np.eye(d)))))
        if np.any(np.diff(w) > 0):
            worst = math.inf
    out.append(_res("qmat", "eigh_reconstruction", worst <= 1e-10, f"max residual {worst:.2e}"))

    worst_sym, worst_mono = 0.0, 0.0
    for i in range(100):
        d = 2 + i % 3
        a = qmat.random_state(d, d, seed=seed + 300 + i).data
        b = qmat.random_state(d, max(1, d - 1), seed=seed + 600 + i).data
        ch = qmat.random_channel(d, d, 2, seed=seed + 900 + i)
        f1 = qmat.fidelity(a, b)
        worst_sym = max(worst_sym, abs(f1 - qmat.fidelity(b, a)))
        f2 = qmat.fidelity(qmat.apply_channel(a, ch), qmat.apply_channel(b, ch))
        worst_mono = max(worst_mono, f1 - f2)
    out.append(_res("qmat", "fidelity_symmetry", worst_sym <= 1e-12, f"max asym {worst_sym:.2e}"))
    out.append(_res("qmat", "fidelity_channel_monotone", worst_mono <= 1e-9,
                    f"max decrease {worst_mono:.2e}"))

    ok = True
    detail = ""
    pairs = [(1200 + i, 1500 + i, 0.9 if i % 4 == 0 else 1.0) for i in range(40)]
    for i, (ka, kb, scale) in enumerate(pairs + [(k, 50 + k, 1.0) for k in range(10)]):
        a = scale * qmat.random_state(3, 3, seed=seed + ka).data
        b = qmat.random_state(3, 2, seed=seed + kb).data
        delta = qmat.gen_trace_distance(a, b)
        pd = qmat.purified_distance(a, b)
        if not (delta <= pd + 1e-10 and pd <= math.sqrt(2.0 * delta) + 1e-10):
            ok = False
            detail = f"pair {i}: delta={delta:.6f} P={pd:.6f}"
            break
    out.append(_res("qmat", "distance_inequalities", ok, detail))

    worst = 0.0
    for i in range(10):
        a = qmat.random_state(2, 2, seed=seed + 1800 + i).data
        b = qmat.random_state(3, 3, seed=seed + 2100 + i).data
        t = qmat.tensor(a, b)
        worst = max(worst, float(np.max(np.abs(qmat.partial_trace(t, [2, 3], [0]) - a))))
        worst = max(worst, float(np.max(np.abs(qmat.partial_trace(t, [2, 3], [1]) - b))))
    out.append(_res("qmat", "marginal_recovery", worst <= 1e-12, f"max dev {worst:.2e}"))
    return out


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def suite_divergences(seed: int = 0):
    out = []
    worst = 0.0
    for d, ka, kb in [(2 + i % 3, i, 100 + i) for i in range(50)] + [(3, 20, 21)]:
        a = qmat.random_state(d, d, seed=seed + ka).data
        b = qmat.random_state(d, d, seed=seed + kb).data
        vals = [dv.sandwiched(a, b, al) for al in ALPHA_GRID]
        # drop below the running maximum: checks every sub-grid of ALPHA_GRID too
        worst = max(worst, float(np.max(np.maximum.accumulate(vals) - vals)))
    out.append(_res("divergences", "alpha_monotonicity", worst <= 1e-9, f"max drop {worst:.2e}"))

    worst = 0.0
    for i in range(25):
        d = 2 + i % 3
        a = qmat.random_state(d, d, seed=seed + 200 + i).data
        b = qmat.random_state(d, d, seed=seed + 300 + i).data
        ch = qmat.random_channel(d, d, 2, seed=seed + 400 + i)
        ea, eb = qmat.apply_channel(a, ch), qmat.apply_channel(b, ch)
        for al in (0.5, 0.75, 1.0, 2.0, math.inf):
            worst = max(worst, dv.sandwiched(ea, eb, al) - dv.sandwiched(a, b, al))
    out.append(_res("divergences", "data_processing_unsmoothed", worst <= 1e-9,
                    f"max violation {worst:.2e}"))

    worst = 0.0
    for i in range(10):
        a = qmat.random_state(2, 2, seed=seed + 500 + i).data
        b = qmat.random_state(2, 2, seed=seed + 600 + i).data
        c = qmat.random_state(3, 3, seed=seed + 700 + i).data
        e = qmat.random_state(3, 3, seed=seed + 800 + i).data
        for al in (0.5, 0.8, 1.0, 2.0):
            lhs = dv.sandwiched(qmat.tensor(a, c), qmat.tensor(b, e), al)
            rhs = dv.sandwiched(a, b, al) + dv.sandwiched(c, e, al)
            worst = max(worst, abs(lhs - rhs))
    out.append(_res("divergences", "tensor_additivity", worst <= 1e-9, f"max dev {worst:.2e}"))

    worst = 0.0
    rng_a, rng_b = np.random.default_rng(seed + 42), np.random.default_rng(seed)
    draws = [(rng_a, 2 + i % 4, 0.499) for i in range(20)] + [(rng_b, 3, 0.49)] * 10
    for rng, d, width in draws:
        p = _simplex_point(rng, d)
        g = _simplex_point(rng, d)
        al = 0.5 + width * rng.random()
        lhs = dv.classical_renyi(g, p, al)
        rhs = (al / (1.0 - al)) * dv.classical_renyi(p, g, 1.0 - al)
        worst = max(worst, abs(lhs - rhs))
    out.append(_res("divergences", "classical_skew_identity", worst <= 1e-10,
                    f"max dev {worst:.2e}"))
    return out


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def suite_smoothing(seed: int = 0):
    out = []
    # (rho rank, rho seed, sigma seed, eps, alpha, max_iters)
    instances = [(1, 1, 2, 0.1, 0.75, 200), (2, 5, 6, 0.15, 0.6, 250)]
    worst_p, worst_tr, worst_norm = 0.0, 0.0, 0.0
    for rank, kr, ks, eps, alpha, iters in instances:
        rho = qmat.random_state(3, rank, seed=seed + kr).data
        sig = qmat.random_state(3, 3, seed=seed + ks).data
        for ball in sm.Ball:
            spec = sm.SmoothingSpec(epsilon=eps, alpha=alpha, ball=ball, restarts=4,
                                    max_iters=iters, seed=seed)
            sv = sm.smoothed_sandwiched(rho, sig, spec)
            if sv.optimizer is None:
                worst_p = math.inf
                continue
            if ball is sm.Ball.SUBNORMALIZED_TRACE:
                dist = qmat.gen_trace_distance(sv.optimizer, rho)
            else:
                dist = qmat.purified_distance(sv.optimizer, rho)
            tr = float(np.trace(sv.optimizer).real)
            worst_p = max(worst_p, dist - eps)
            worst_tr = max(worst_tr, tr - 1.0)
            if ball is sm.Ball.NORMALIZED_PURIFIED:
                worst_norm = max(worst_norm, abs(tr - 1.0))
    out.append(_res("smoothing", "ball_membership",
                    worst_p <= 1e-8 and worst_tr <= 1e-10 and worst_norm <= 1e-10,
                    f"dist slack {worst_p:.2e}, trace slack {worst_tr:.2e}, "
                    f"normalized |tr - 1| {worst_norm:.2e}"))

    drops = -math.inf
    for kr, ks, iters in [(1, 2, 200), (7, 8, 250)]:
        rho = qmat.random_state(3, 1, seed=seed + kr).data
        sig = qmat.random_state(3, 3, seed=seed + ks).data
        vals = []
        prev = None
        for eps in (0.02, 0.05, 0.1, 0.2):
            spec = sm.SmoothingSpec(epsilon=eps, alpha=0.75, restarts=4, max_iters=iters,
                                    seed=seed)
            sv = sm.smoothed_sandwiched(rho, sig, spec,
                                        warm_starts=[prev] if prev is not None else None)
            vals.append(sv.value)
            prev = sv.optimizer
        drops = max(drops, float(np.max(-np.diff(vals))))
    out.append(_res("smoothing", "eps_monotonicity", drops <= 1e-8, f"max drop {drops:.2e}"))

    rows = sm.appendix_b_suite(restarts=6, max_iters=300, seed=seed)
    by = {r.case: r for r in rows}
    inv = abs(by["sandwiched_subnormalized_2d"].value_bits
              - by["sandwiched_subnormalized_3d"].value_bits)
    out.append(_res("smoothing", "embedding_invariance_subnormalized", inv <= 1e-6,
                    f"|d2 - d3| = {inv:.2e}"))

    alpha, eps = 0.75, 0.1
    gap = by["sandwiched_normalized_3d"].value_bits - by["sandwiched_normalized_2d"].value_bits
    shift = -math.log2(1.0 - eps * eps)
    target = (alpha / (1.0 - alpha)) * shift
    out.append(_res("smoothing", "normalized_ball_gap", abs(gap - target) <= 1e-6,
                    f"gap {gap:.8f} vs {target:.8f}"))

    # the closed forms, written out here independently of appendix_b_suite's targets
    closed = {"sandwiched_normalized_2d": 1.0, "petz_normalized_2d": 1.0}
    dev = max(abs(r.value_bits - closed.get(r.case, 1.0 + target))
              for r in rows if r.comparison == "eq")
    petz_slack = by["petz_normalized_3d"].value_bits - (1.0 + shift / (1.0 - alpha))
    pure = (1.0 - eps * eps) * np.diag([1.0, 0.0])
    opt_dev = float(np.max(np.abs(by["sandwiched_subnormalized_2d"].optimizer - pure)))
    out.append(_res("smoothing", "appendix_b_closed_forms",
                    dev <= 1e-6 and petz_slack >= -1e-6 and opt_dev <= 1e-6,
                    f"max eq dev {dev:.2e}, petz_normalized_3d slack {petz_slack:.2e}, "
                    f"optimizer dev {opt_dev:.2e}"))
    return out


# ---------------------------------------------------------------------------
# monotones
# ---------------------------------------------------------------------------

def suite_monotones(seed: int = 0):
    out = []
    worst = 0.0
    for i in range(6):
        gam = qmat.random_classical(3, seed=seed + 50 + i)
        th = mn.Athermality(np.diag(gam.probs.astype(complex)))
        rho = qmat.random_state(3, 3, seed=seed + 100 + i).data
        ch = mn.gibbs_preserving_channel(th.gibbs, weight=0.3 + 0.05 * i)
        er = qmat.apply_channel(rho, ch)
        for al in (0.5, 1.0, 2.0):
            worst = max(worst, mn.monotone_alpha(er, th, al) - mn.monotone_alpha(rho, th, al))
    for i in range(6):
        rho = qmat.random_state(3, 3, seed=seed + 200 + i).data
        ch = mn.dephasing_covariant_channel(3, seed=seed + 300 + i)
        er = qmat.apply_channel(rho, ch)
        th = mn.Coherence()
        for al in (0.5, 1.0):
            worst = max(worst, mn.monotone_alpha(er, th, al, restarts=6)
                        - mn.monotone_alpha(rho, th, al, restarts=6))
    out.append(_res("monotones", "free_operation_monotonicity", worst <= 1e-6,
                    f"max increase {worst:.2e}"))

    worst = 0.0
    grid = [0.5, 0.75, 1.0, 1.5, 2.0]
    for i in range(5):
        rho = qmat.random_state(3, 3, seed=seed + 400 + i).data
        gam = qmat.random_classical(3, seed=seed + 450 + i)
        th_a = mn.Athermality(np.diag(gam.probs.astype(complex)))
        va = [mn.monotone_alpha(rho, th_a, al) for al in grid]
        vc = [mn.monotone_alpha(rho, mn.Coherence(), al, restarts=6) for al in grid]
        worst = max(worst, float(np.max(-np.diff(va))), float(np.max(-np.diff(vc))))
    out.append(_res("monotones", "alpha_monotonicity", worst <= 1e-6, f"max drop {worst:.2e}"))

    worst = 0.0
    for i in range(5):
        g1 = qmat.random_classical(2, seed=seed + 500 + i)
        g2 = qmat.random_classical(3, seed=seed + 550 + i)
        r1 = qmat.random_state(2, 2, seed=seed + 600 + i).data
        r2 = qmat.random_state(3, 3, seed=seed + 650 + i).data
        joint = mn.Athermality(np.kron(np.diag(g1.probs), np.diag(g2.probs)).astype(complex))
        for al in (0.5, 1.0, 2.0):
            lhs = mn.monotone_alpha(np.kron(r1, r2), joint, al)
            rhs = (mn.monotone_alpha(r1, mn.Athermality(np.diag(g1.probs.astype(complex))), al)
                   + mn.monotone_alpha(r2, mn.Athermality(np.diag(g2.probs.astype(complex))), al))
            worst = max(worst, abs(lhs - rhs))
    out.append(_res("monotones", "athermality_additivity", worst <= 1e-9, f"max dev {worst:.2e}"))

    worst = 0.0
    for i in range(5):
        a = qmat.random_state(2, 2, seed=seed + 700 + i).data
        b = qmat.random_state(2, 2, seed=seed + 750 + i).data
        rep = mn.multiplicativity_check(a, b, restarts=6, seed=seed)
        worst = max(worst, abs(rep.gap))
    out.append(_res("monotones", "coherence_multiplicativity", worst <= 1e-5,
                    f"max |gap| {worst:.2e}"))

    worst = 0.0
    for d, k in [(2 + i % 4, 800 + i) for i in range(10)] + [(n, 40 + n) for n in (2, 3, 4, 5)]:
        rho = qmat.random_state(d, d, seed=seed + k).data
        p = mn.fidelity_coherence_primal(rho, restarts=6, seed=seed).value
        dl = mn.fidelity_coherence_dual(rho, restarts=6, seed=seed).value
        worst = max(worst, abs(p - dl))
    out.append(_res("monotones", "primal_dual_agreement", worst <= 1e-5, f"max gap {worst:.2e}"))

    worst = 0.0
    for kr, kg in [(900 + i, 950 + i) for i in range(4)] + [(60 + i, 70 + i) for i in range(4)]:
        rho = qmat.random_state(3, 3, seed=seed + kr).data
        gam = qmat.random_classical(3, seed=seed + kg)
        th_a = mn.Athermality(np.diag(gam.probs.astype(complex)))
        for th in (th_a, mn.Coherence()):
            rob = mn.generalized_robustness(rho, th)
            d1 = mn.monotone_alpha(rho, th, 1.0)
            dh = mn.monotone_alpha(rho, th, 0.5)
            worst = max(worst, d1 - rob, dh - d1)
    out.append(_res("monotones", "robustness_chain", worst <= 1e-6,
                    f"max violation {worst:.2e}"))
    return out


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def suite_constructions(seed: int = 0):
    out = []
    worst = 0.0
    rng = np.random.default_rng(seed + 3)
    gammas = [[Fraction(7, 10), Fraction(2, 10), Fraction(1, 10)],
              [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]]
    cases = [(gam, _simplex_point(rng, 3)) for gam in gammas for _ in range(4)]
    cases.append((gammas[0], np.array([2 / 3, 1 / 12, 1 / 4])))
    for gam, p in cases:
        gv = np.array([float(x) for x in gam])
        _, blocks = cs.embedding_blocks(gam)
        den = sum(blocks)
        uni = np.full(den, 1.0 / den)
        phat = cs.embedding_channel(p, gam).probs
        for al in (0.5, 0.8, 1.0, 2.0, math.inf):
            worst = max(worst, abs(dv.classical_renyi(p, gv, al)
                                   - dv.classical_renyi(phat, uni, al)))
        fa = np.sqrt(p * gv).sum()
        fb = np.sqrt(phat * uni).sum()
        worst = max(worst, abs(fa - fb))
    out.append(_res("constructions", "embedding_preserves_divergences", worst <= 1e-12,
                    f"max dev {worst:.2e}"))

    ok = True
    details = []
    pair_a = cs.build_athermal_qutrit_pair(10 ** 4, 0.1)
    th_a = mn.Athermality(pair_a.diagnostics["gibbs"])
    pair_e = cs.build_entanglement_pair(3, 2.0 / 3.0)
    pair_c = cs.build_coherence_pair(4, 0.5, 1.0 - 1.0 / math.log2(3.0))
    for pair, half in (
        (pair_a, (mn.monotone_alpha(pair_a.rho, th_a, 0.5),
                  mn.monotone_alpha(pair_a.rho_prime, th_a, 0.5))),
        (pair_e, (-math.log2(pair_e.rho.probs.max()), -math.log2(pair_e.rho_prime.probs.max()))),
        (pair_c, (mn.monotone_alpha(pair_c.rho.data, mn.Coherence(), 0.5, restarts=6),
                  mn.monotone_alpha(pair_c.rho_prime.data, mn.Coherence(), 0.5, restarts=6))),
    ):
        if not pair.is_hard or not half[0] < half[1]:
            ok = False
            details.append(f"{pair.theory_kind}: hard={pair.is_hard} half={half}")
    out.append(_res("constructions", "hard_pairs_theorem_hypotheses", ok, "; ".join(details)))

    grid = cs.classify_simplex_regions(np.array([2 / 3, 1 / 12, 3 / 12]),
                                       np.array([0.7, 0.2, 0.1]), 60,
                                       gamma_rational=gammas[0])
    out.append(_res("constructions", "region_nesting", grid.nesting_violations == 0,
                    f"{grid.nesting_violations} violations"))
    red_ok = grid.counts["RED"] > 0
    out.append(_res("constructions", "red_region_inside_cco_minus_co", red_ok,
                    f"counts {grid.counts}"))
    out.append(_res("constructions", "thermo_embedding_oracle",
                    grid.oracle_disagreements == 0,
                    f"{grid.oracle_disagreements} disagreements"))
    return out


# ---------------------------------------------------------------------------
# catalysis
# ---------------------------------------------------------------------------

def suite_catalysis(seed: int = 0):
    out = []
    # Theorem-style chain on an explicit athermal instance with the block
    # catalyst; eps is chosen so rho' (x) nu lies inside the ball, which makes
    # the smoothed value provably dominate the target term.
    p = np.array([0.85, 0.15])
    pp = np.array([0.6, 0.4])
    eta = np.array([0.5, 0.5])
    rep = ct.duan_catalyst(p, pp, eta, eta, n=2)
    nu = rep.blocks.nu.probs
    gamma_c = np.concatenate([0.5 * b for b in rep.blocks.gamma_blocks])
    alpha = 0.7
    rho_nu = np.kron(p, nu)
    rhop_nu = np.kron(pp, nu)
    sig = np.kron(eta, gamma_c)
    eps = min(0.95, qmat.purified_distance(np.diag(rho_nu.astype(complex)),
                                           np.diag(rhop_nu.astype(complex))) + 0.01)
    a_side = dv.classical_renyi(p, eta, alpha) + dv.classical_renyi(nu, gamma_c, alpha)
    c_side = dv.classical_renyi(rhop_nu, sig, alpha)
    spec = sm.SmoothingSpec(epsilon=eps, alpha=alpha, restarts=3, max_iters=150, seed=seed)
    b_side = sm.smoothed_sandwiched(np.diag(rho_nu.astype(complex)),
                                    np.diag(sig.astype(complex)), spec,
                                    warm_starts=[np.diag(rhop_nu.astype(complex))]).value
    q_joint = dv.classical_renyi(rho_nu, sig, alpha)
    q_val = 2.0 ** ((alpha - 1.0) * q_joint)
    ok = b_side >= c_side - 1e-6
    detail = f"A={a_side:.6f} B={b_side:.6f} C={c_side:.6f} eps={eps:.3f}"
    if eps <= q_val ** (1.0 / alpha):
        f_max = (1.0 / (alpha - 1.0)) * math.log2(max(1e-300, 1.0 - eps ** alpha / q_val))
        ok = ok and (a_side + f_max >= b_side - 1e-9)
        detail += f" f_max={f_max:.6f}"
    out.append(_res("catalysis", "theorem_chain_athermal", ok, detail))

    p1, q1 = np.array([0.6, 0.4]), np.array([0.5, 0.5])
    p2, q2 = np.array([0.55, 0.45]), np.array([0.5, 0.5])
    g1 = ct.error_exponent_first_order(p1, q1, p2, q2)
    worst = 0.0
    for a in (2, 3):
        pa = p1.copy()
        qa = q1.copy()
        pb, qb = p2.copy(), q2.copy()
        for _ in range(a - 1):
            pa, qa = np.kron(pa, p1), np.kron(qa, q1)
            pb, qb = np.kron(pb, p2), np.kron(qb, q2)
        worst = max(worst, abs(ct.error_exponent_first_order(pa, qa, pb, qb) - a * g1))
    out.append(_res("catalysis", "exponent_copy_scaling", worst <= 1e-12, f"max dev {worst:.2e}"))

    hp = cs.build_athermal_qutrit_pair(10 ** 4, 0.1)
    th = mn.Athermality(hp.diagnostics["gibbs"])
    ok = True
    detail = ""
    for eps in (0.01, 0.001):
        tb = ct.catalyst_fidelity_bound_tight(hp.rho, hp.rho_prime, th, eps)
        if tb.sqrt_f_bound > tb.q_bound_half + 1e-12:
            ok = False
            detail = f"eps={eps}: tight {tb.sqrt_f_bound} > general {tb.q_bound_half}"
    out.append(_res("catalysis", "tight_bound_dominates", ok, detail))

    curve = ct.scaling_curve(hp.rho, hp.rho_prime, th,
                             [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6], alpha=0.5)
    drops = float(np.max(-np.diff(curve.lower_bound_bits)))
    out.append(_res("catalysis", "bound_curve_monotone", drops <= 1e-12,
                    f"max drop {drops:.2e}"))
    out.append(_res("catalysis", "bound_curve_sandwich",
                    bool(np.all(curve.lower_bound_bits <= curve.upper_bound_bits + 1e-9)),
                    f"gamma={curve.gamma_used:.6g}"))
    return out


SUITES = {
    "qmat": suite_qmat,
    "divergences": suite_divergences,
    "smoothing": suite_smoothing,
    "monotones": suite_monotones,
    "constructions": suite_constructions,
    "catalysis": suite_catalysis,
}


def run_suites(names, seed: int = 0):
    if "all" in names:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise InputError(f"unknown suite {unknown[0]!r}; known suites: all, {', '.join(SUITES)}")
    results = []
    for name in names:
        results.extend(SUITES[name](seed))
    return results
