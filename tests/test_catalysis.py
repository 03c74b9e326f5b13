import math

import numpy as np
import pytest

from resmono import catalysis as ct
from resmono import constructions as cs
from resmono import divergences as dv
from resmono import monotones as mn
from resmono import qmat
from resmono.errors import (AlphaOutOfRange, DegenerateVariance,
                            DimensionOverflow, HypothesisViolated, InputError, InvalidXi,
                            NoFeasiblePoint, TheoryUnsupported)


def qutrit_pair():
    rep = cs.build_athermal_qutrit_pair(10 ** 4, 0.1)
    return rep, mn.Athermality(rep.diagnostics["gibbs"])


# ---------------------------------------------------------------------------
# catalyst bounds
# ---------------------------------------------------------------------------

def test_q_bound_formula_matches_scalar_arithmetic():
    rep, th = qutrit_pair()
    alpha, eps = 0.5, 0.01
    cb = ct.catalyst_q_bound(rep.rho, rep.rho_prime, th, alpha, eps)
    gam = rep.diagnostics["gibbs"]
    q_rho = 2.0 ** (-0.5 * dv.classical_renyi(rep.rho.probs, gam, 0.5))
    q_rhop = 2.0 ** (-0.5 * dv.classical_renyi(rep.rho_prime.probs, gam, 0.5))
    expected = min(1.0, eps ** alpha / (q_rho - q_rhop))
    assert abs(cb.q_bound - expected) <= 1e-12
    assert abs(cb.d_alpha_nu_lb - math.log2(expected) / (alpha - 1.0)) <= 1e-12


def test_q_bound_eps_to_zero_diverges():
    rep, th = qutrit_pair()
    lbs = [ct.catalyst_q_bound(rep.rho, rep.rho_prime, th, 0.5, e).d_alpha_nu_lb
           for e in (1e-2, 1e-4, 1e-8)]
    assert lbs[0] < lbs[1] < lbs[2]
    assert lbs[2] > 20.0


def test_q_bound_halving_eps_adds_one_bit_at_half():
    rep, th = qutrit_pair()
    lb1 = ct.catalyst_q_bound(rep.rho, rep.rho_prime, th, 0.5, 0.02).d_alpha_nu_lb
    lb2 = ct.catalyst_q_bound(rep.rho, rep.rho_prime, th, 0.5, 0.01).d_alpha_nu_lb
    assert abs((lb2 - lb1) - 1.0) <= 1e-12


def test_q_bound_hypothesis_violated_on_swapped_pair():
    rep, th = qutrit_pair()
    with pytest.raises(HypothesisViolated):
        ct.catalyst_q_bound(rep.rho_prime, rep.rho, th, 0.5, 0.01)
    with pytest.raises(AlphaOutOfRange):
        ct.catalyst_q_bound(rep.rho, rep.rho_prime, th, 1.2, 0.01)


def test_tight_bound_entanglement_pair():
    rep = cs.build_entanglement_pair(3, 2.0 / 3.0)
    th = mn.PureBipartiteEntanglement(3, 3)
    lam = rep.rho.probs
    lamp = rep.rho_prime.probs
    psi = np.zeros((3, 3), dtype=complex)
    psip = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        psi[i, i] = math.sqrt(lam[i])
        psip[i, i] = math.sqrt(lamp[i])
    rho = np.outer(psi.reshape(-1), psi.reshape(-1).conj())
    rhop = np.outer(psip.reshape(-1), psip.reshape(-1).conj())
    gap = math.sqrt(2 / 3) - math.sqrt(1 / 2)
    for eps in (0.01, 0.05):
        tb = ct.catalyst_fidelity_bound_tight(rho, rhop, th, eps)
        assert abs(tb.sqrt_f_bound - eps / gap) <= 1e-10
        assert tb.sqrt_f_bound <= tb.q_bound_half + 1e-12
    # eps equal to the gap makes the bound vacuous
    tb = ct.catalyst_fidelity_bound_tight(rho, rhop, th, gap)
    assert tb.sqrt_f_bound == 1.0
    assert tb.d_half_nu_lb == 0.0


def test_tight_bound_coherence_pair():
    mu = 1.0 - 1.0 / math.log2(3.0)
    rep = cs.build_coherence_pair(4, 0.5, mu)
    tb = ct.catalyst_fidelity_bound_tight(rep.rho.data, rep.rho_prime.data,
                                          mn.Coherence(), 0.01)
    assert 0.0 < tb.sqrt_f_bound < 1.0
    assert tb.d_half_nu_lb >= -2.0 * math.log2(tb.sqrt_f_bound) - 1e-9


# ---------------------------------------------------------------------------
# error exponents
# ---------------------------------------------------------------------------

P1, Q1 = np.array([0.6, 0.4]), np.array([0.5, 0.5])
P2, Q2 = np.array([0.55, 0.45]), np.array([0.5, 0.5])


def test_exponent_zero_gap():
    assert ct.error_exponent_first_order(P2, Q2, P2, Q2) == 0.0


def test_exponent_classical_positive_and_formula():
    got = ct.error_exponent_first_order(P1, Q1, P2, Q2)
    d1 = dv.classical_kl(P1, Q1)
    d2 = dv.classical_kl(P2, Q2)
    v1 = dv.classical_rel_entropy_variance(P1, Q1)
    v2 = dv.classical_rel_entropy_variance(P2, Q2)
    expected = (d1 - d2) ** 2 * math.log2(math.e) / (8.0 * (v1 + v2))
    assert got > 0
    assert abs(got - expected) <= 1e-15


def test_exponent_degenerate_variance():
    u = np.array([0.5, 0.5])
    with pytest.raises(DegenerateVariance):
        # D(p||u) vs D(q||u) with both variances zero: p, q uniform-scaled
        ct.error_exponent_first_order(np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                                      u, u)


def test_exponent_quantum_states():
    a = qmat.random_state(2, 2, seed=0)
    got = ct.error_exponent_first_order(a.data, np.eye(2, dtype=complex) / 2,
                                        P2, Q2)
    assert got >= 0.0


def test_optimized_exponent_dominates_first_order():
    got = ct.error_exponent_optimized(P1, Q1, P2, Q2)
    first = ct.error_exponent_first_order(P1, Q1, P2, Q2)
    assert got.gamma >= first - 1e-6
    assert got.kappa > 0
    assert 0 < got.delta1 <= 0.5
    assert 0 < got.delta2 <= 5.0


def test_optimized_exponent_one_sided():
    # rho2 = sigma2 reduces to a one-sided exponent, finite and positive
    got = ct.error_exponent_optimized(P1, Q1, Q2, Q2)
    assert math.isfinite(got.gamma)
    assert got.gamma > 0


def test_optimized_exponent_no_feasible_point():
    with pytest.raises(NoFeasiblePoint):
        ct.error_exponent_optimized(P2, Q2, P1, Q1)   # negative gap


def _mix_to_target_kl(p, q, target, lo=0.0, hi=1.0):
    # find s so that KL((1-s) p + s q || q) = target
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if dv.classical_kl((1 - mid) * p + mid * q, q) > target:
            lo = mid
        else:
            hi = mid
    return (1 - hi) * p + hi * q


def test_optimized_exponent_quadratic_trend():
    # halving a small relative-entropy gap shrinks the exponent ~4x
    d1 = dv.classical_kl(P1, Q1)
    pa = _mix_to_target_kl(P1, Q1, d1 - 0.004)
    pb = _mix_to_target_kl(P1, Q1, d1 - 0.002)
    ga = ct.error_exponent_optimized(P1, Q1, pa, Q1).gamma
    gb = ct.error_exponent_optimized(P1, Q1, pb, Q1).gamma
    ratio = ga / gb
    assert abs(ratio - 4.0) <= 0.8


NM_OPTIONS = {"xatol": 1e-9, "fatol": 1e-12, "maxiter": 2000}


def _scipy_nelder_mead(func, x0, **options):
    """scipy's Nelder-Mead result on func, and the calls of func that each of
    its iterations made."""
    from scipy import optimize

    calls, marks = [0], []

    def counted(x):
        calls[0] += 1
        return func(x)

    res = optimize.minimize(counted, x0, method="Nelder-Mead", options={**NM_OPTIONS, **options},
                            callback=lambda xk: marks.append(calls[0]))
    return res, np.diff([len(x0) + 1] + marks)


def _same_bits(a, b):
    return [float(v).hex() for v in np.ravel(a)] == [float(v).hex() for v in np.ravel(b)]


def test_nelder_mead_matches_scipy_on_exponent_objectives(monkeypatch):
    nelder_mead, same = ct._nelder_mead, []

    def both(func, x0, xatol, fatol, maxiter):
        x, fun = nelder_mead(func, x0, xatol, fatol, maxiter)
        res, _ = _scipy_nelder_mead(func, x0, xatol=xatol, fatol=fatol, maxiter=maxiter)
        same.append(_same_bits(x, res.x) and _same_bits(fun, res.fun))
        return x, fun

    monkeypatch.setattr(ct, "_nelder_mead", both)
    rng = np.random.default_rng(25)
    while len(same) < 40:
        d = int(rng.integers(2, 5))
        try:
            ct.error_exponent_optimized(*(rng.dirichlet(np.ones(d)) for _ in range(4)))
        except NoFeasiblePoint:
            pass
    assert all(same)


def _rosenbrock(x):
    return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2


@pytest.mark.parametrize("x0, maxiter, shrinks", [
    ([-1.2, 1.0], 2000, False), ([0.0, 0.0], 2000, False), ([3.6, 0.4], 2000, True),
    ([-1.2, 1.0], 50, False),
], ids=["classic_start", "zero_start", "shrinks", "hits_maxiter"])
def test_nelder_mead_matches_scipy_on_rosenbrock(x0, maxiter, shrinks):
    res, calls = _scipy_nelder_mead(_rosenbrock, x0, maxiter=maxiter)
    x, fun = ct._nelder_mead(_rosenbrock, x0, 1e-9, 1e-12, maxiter)
    assert _same_bits(x, res.x) and _same_bits(fun, res.fun)
    # a shrink re-evaluates the two vertices other than the best after its
    # two trial points, so its iteration makes four calls
    assert (calls.max() > 2) == shrinks
    # status 2: the iteration cap stopped the run
    assert (res.status == 2) == (maxiter < 2000)


# ---------------------------------------------------------------------------
# block catalyst
# ---------------------------------------------------------------------------

RHO = np.array([0.85, 0.15])
RHOP = np.array([0.6, 0.4])
ETA = np.array([0.5, 0.5])


def test_duan_surrogate_block_identities():
    rep = ct.duan_catalyst(RHO, RHOP, ETA, ETA, n=3)
    # P = sqrt(1 - F) can only resolve zero to the square root of float noise
    assert rep.p_tau <= 1e-7
    assert rep.marginal_dev <= 1e-14
    assert rep.xi_eps0 <= 1e-12
    assert abs(rep.blocks.nu.probs.sum() - 1.0) <= 1e-12
    assert rep.blocks.block_dims == [4, 4, 4]


def test_duan_free_energy_bound():
    for n in (2, 3, 4):
        rep = ct.duan_catalyst(RHO, RHOP, ETA, ETA, n=n)
        assert rep.d_nu_gamma <= rep.free_energy_bound + 1e-10
        # exact block formula: (1/n) sum (k-1) D(rho||eta) + (n-k) D(rho'||eta)
        d1 = dv.classical_kl(RHO, ETA)
        d2 = dv.classical_kl(RHOP, ETA)
        expected = sum((k - 1) * d1 + (n - k) * d2 for k in range(1, n + 1)) / n
        assert abs(rep.d_nu_gamma - expected) <= 1e-12


def test_duan_n_one_degenerate():
    rep = ct.duan_catalyst(RHO, RHOP, ETA, ETA, n=1)
    assert rep.blocks.block_dims == [1]
    assert abs(rep.blocks.nu.probs.sum() - 1.0) <= 1e-14
    assert rep.p_tau <= 1e-7


def test_duan_supplied_noisy_xi_error_chain():
    n = 3
    rng = np.random.default_rng(0)
    xi = []
    for k in range(1, n + 1):
        target = RHOP
        for _ in range(k - 1):
            target = np.kron(target, RHOP)
        noise = rng.random(target.shape[0])
        noise /= noise.sum()
        xi.append(0.97 * target + 0.03 * noise)
    rep = ct.duan_catalyst(RHO, RHOP, ETA, ETA, n=n, xi_list=xi)
    assert rep.xi_eps0 > 0
    assert rep.p_tau <= 2.0 * rep.xi_eps0 + 1e-10


def test_duan_validation_errors():
    with pytest.raises(InvalidXi):
        ct.duan_catalyst(RHO, RHOP, ETA, ETA, n=2, xi_list=[np.array([0.9, 0.05])])
    with pytest.raises(InputError, match="^eta_prime must be a distribution"):
        ct.duan_catalyst(RHO, RHOP, ETA, np.array([1e308, 1e308]), n=2)
    with pytest.raises(DimensionOverflow):
        ct.duan_catalyst(RHO, RHOP, ETA, ETA, n=14)


# ---------------------------------------------------------------------------
# scaling curve
# ---------------------------------------------------------------------------

def test_scaling_curve_structure():
    rep, th = qutrit_pair()
    eps_list = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    curve = ct.scaling_curve(rep.rho, rep.rho_prime, th, eps_list, alpha=0.5)
    assert np.all(curve.lower_bound_bits <= curve.upper_bound_bits + 1e-9)
    assert np.all(np.diff(curve.lower_bound_bits) >= -1e-12)
    # unclamped lower curve is exactly affine with slope alpha/(1-alpha) = 1
    assert abs(curve.lower_slope - 1.0) <= 1e-9
    assert curve.lower_residual <= 1e-9
    # continuous upper envelope has slope 2 D(rho||eta) / gamma
    gam = rep.diagnostics["gibbs"]
    slope = np.diff(curve.upper_envelope_bits) / np.diff(np.log2(1.0 / curve.eps_list))
    expected = 2.0 * dv.classical_kl(rep.rho.probs, gam) / curve.gamma_used
    assert np.allclose(slope, expected, rtol=1e-9)


def test_scaling_curve_requires_athermality():
    rep = cs.build_entanglement_pair(3, 2.0 / 3.0)
    with pytest.raises(TheoryUnsupported):
        ct.scaling_curve(rep.rho, rep.rho_prime, mn.PureBipartiteEntanglement(3, 3),
                         [0.1], alpha=0.5)


@pytest.mark.parametrize("eps", [0.0, 1.0, -1e-3, 2.0, math.nan])
def test_eps_outside_unit_interval_rejected(eps):
    rep, th = qutrit_pair()
    with pytest.raises(ValueError):
        ct.catalyst_q_bound(rep.rho, rep.rho_prime, th, 0.5, eps)
    with pytest.raises(ValueError):
        ct.scaling_curve(rep.rho, rep.rho_prime, th, [1e-2, eps], alpha=0.5)


def test_exponent_copy_scaling_exact(verify_case):
    verify_case("catalysis", "exponent_copy_scaling")
