import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

from resmono import divergences as dv
from resmono import monotones as mn
from resmono import qmat
from resmono.errors import (AlphaOutOfRange, DimensionCap, InvalidGibbs,
                            TheoryUnsupported)


def plus_state(d=2):
    v = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    return np.outer(v, v.conj())


def brute_force_coherence_fidelity(rho, steps=10000):
    # qubit oracle: exhaustive grid over diagonal states at resolution 1e-4
    best = 0.0
    for k in range(steps + 1):
        t = k / steps
        best = max(best, qmat.fidelity(rho, np.diag([t, 1.0 - t]).astype(complex)))
    return best


def brute_force_coherence_dmax(rho, steps=20000):
    # qubit oracle for min over diagonal sigma of D_max(rho||sigma)
    best = math.inf
    for k in range(1, steps):
        t = k / steps
        x = qmat.mpow(np.diag([t, 1.0 - t]), -0.5)
        lam = float(np.linalg.eigvalsh(x @ rho @ x)[-1])
        best = min(best, math.log2(lam))
    return best


# ---------------------------------------------------------------------------
# monotone_alpha
# ---------------------------------------------------------------------------

def test_athermality_is_plain_divergence():
    gam = np.diag([0.8, 0.2]).astype(complex)
    rho = qmat.random_state(2, 2, seed=0).data
    th = mn.Athermality(gam)
    for alpha in (0.5, 0.75, 1.0, 2.0, math.inf):
        assert abs(mn.monotone_alpha(rho, th, alpha)
                   - dv.sandwiched(rho, gam, alpha)) <= 1e-12


def test_athermality_classical_fast_path():
    p, g = np.array([0.9, 0.1]), np.array([0.7, 0.3])
    for wrap in (qmat.ClassicalDist, np.array):
        th = mn.Athermality(wrap(g))
        assert isinstance(th.gibbs, qmat.ClassicalDist)
        assert vars(th).keys() == {"gibbs"}
        for alpha in (0.5, 0.75, 1.0, 2.0, math.inf):
            assert mn.monotone_alpha(wrap(p), th, alpha) == dv.classical_renyi(p, g, alpha)
        assert mn.generalized_robustness(wrap(p), th) == dv.classical_renyi(p, g, math.inf)
    # a matrix Gibbs state stays a matrix, and a distribution meets it on the diagonal
    gm = np.diag(g.astype(complex))
    for alpha in (0.5, 2.0):
        assert mn.monotone_alpha(p, mn.Athermality(gm), alpha) == dv.sandwiched(
            np.diag(p.astype(complex)), gm, alpha)


def test_gibbs_validation():
    with pytest.raises(InvalidGibbs):
        mn.Athermality(np.diag([1.0, 0.0]))
    with pytest.raises(InvalidGibbs):
        mn.Athermality(np.array([0.5, 0.4]))


def test_incoherent_state_has_zero_coherence():
    rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
    for alpha in (0.5, 1.0, 2.0):
        assert abs(mn.monotone_alpha(rho, mn.Coherence(), alpha, restarts=4)) <= 1e-8


def test_maximally_coherent_alpha_half():
    # F_coh(Phi_d) = 1/d, so the half-divergence is log2 d
    for d in (2, 3, 4):
        rho = plus_state(d)
        val = mn.monotone_alpha(rho, mn.Coherence(), 0.5, restarts=4)
        assert abs(val - math.log2(d)) <= 1e-8


def test_coherence_alpha_one_closed_form():
    # min over diagonal sigma of D(rho||sigma) = S(diag rho) - S(rho)
    rho = qmat.random_state(3, 3, seed=2).data
    closed = qmat.vn_entropy(np.diag(np.diag(rho))) - qmat.vn_entropy(rho)
    assert abs(mn.monotone_alpha(rho, mn.Coherence(), 1.0) - closed) <= 1e-10
    assert abs(mn.relative_entropy_coherence(rho) - closed) <= 1e-12


def test_coherence_mirror_descent_vs_alpha_one_limit():
    # the general-alpha optimizer near alpha = 1 agrees with the closed form
    rho = qmat.random_state(3, 3, seed=3).data
    closed = mn.relative_entropy_coherence(rho)
    near = mn.monotone_alpha(rho, mn.Coherence(), 1.0 + 5e-7, restarts=6)
    assert abs(near - closed) <= 1e-5


def test_entanglement_closed_forms():
    lam = np.array([2 / 3, 1 / 6, 1 / 6])
    psi = np.zeros((3, 3), dtype=complex)
    for i, li in enumerate(lam):
        psi[i, i] = math.sqrt(li)
    vec = psi.reshape(-1)
    rho = np.outer(vec, vec.conj())
    th = mn.PureBipartiteEntanglement(3, 3)
    h = -sum(li * math.log2(li) for li in lam)
    assert abs(mn.monotone_alpha(rho, th, 1.0) - h) <= 1e-10
    assert abs(mn.monotone_alpha(rho, th, 0.5) + math.log2(2 / 3)) <= 1e-10
    with pytest.raises(TheoryUnsupported):
        mn.monotone_alpha(rho, th, 0.75)
    mixed = np.kron(np.eye(2) / 2, np.eye(2) / 2)
    with pytest.raises(TheoryUnsupported):
        mn.monotone_alpha(mixed, mn.PureBipartiteEntanglement(2, 2), 1.0)


@pytest.mark.parametrize("p,alpha", [((0.5, 0.5), 100.0), ((0.5, 0.5), 500.0),
                                     ((0.5, 0.5), 1e5), ((0.5, 0.5), 1e300),
                                     ((0.7, 0.3), 500.0), ((0.7, 0.3), 1e5),
                                     ((0.7, 0.3), 1e300)])
def test_incoherent_state_at_huge_orders(p, alpha):
    # Tr[M^alpha] under- or overflows on the simplex starts: the divergence
    # the descent minimizes is resummed in the log domain
    rho = np.diag(p).astype(complex)
    val, q = mn.coherence_monotone(rho, alpha)
    assert math.isfinite(val) and abs(val) <= 1e-9
    assert np.all(np.isfinite(q))


def test_coherent_qubit_large_orders_below_robustness():
    rho = qmat.random_state(2, 2, seed=1).data
    v10 = mn.monotone_alpha(rho, mn.Coherence(), 10.0)
    v100 = mn.monotone_alpha(rho, mn.Coherence(), 100.0)
    assert v10 <= v100 <= mn.generalized_robustness(rho, mn.Coherence()) + 1e-6


def test_alpha_range_check():
    with pytest.raises(AlphaOutOfRange):
        mn.monotone_alpha(plus_state(), mn.Coherence(), 0.3)


# ---------------------------------------------------------------------------
# simplex mirror descent
# ---------------------------------------------------------------------------

def _mirror_one_start_at_a_time(obj, grad, starts, iters, exits):
    """_mirror_opt with one start after another, each a stack of one row: the
    reference that the lockstep descent must match bit for bit. exits collects
    why each start stopped."""
    best_val, best_q = math.inf, None
    for q0 in starts:
        q = np.clip(np.asarray(q0, dtype=float), 1e-14, None)
        q = q / q.sum()
        val = obj(q[None])[0]
        step = 0.5
        reason = "iters"
        for _ in range(iters):
            g = grad(q[None])[0]
            scale = np.max(np.abs(g))
            if scale < 1e-16:
                reason = "gradient"
                break
            accepted = False
            for _ in range(25):
                qn = q * np.exp(-step * g / scale)
                qn = np.clip(qn, 1e-300, None)
                qn = qn / qn.sum()
                vn = obj(qn[None])[0]
                if vn < val - 1e-18:
                    accepted = True
                    break
                step *= 0.5
                if step < 1e-14:
                    break
            if not accepted:
                reason = "failed"
                break
            improved = val - vn
            q, val = qn, vn
            step = min(step * 1.5, 50.0)
            if improved < mn.SIMPLEX_TOL:
                reason = "converged"
                break
        exits.append(reason)
        if val < best_val:
            best_val, best_q = val, q
    return best_val, best_q


def _paired_mirror(monkeypatch):
    """Route every _mirror_opt call through the lockstep descent and the
    reference, and log whether they agree (values, arguments and the number of
    rows obj and grad see), the reference's exit reasons and grad calls, and
    the row count of each lockstep grad call."""
    lockstep = mn._mirror_opt
    log = {"same": [], "exits": [], "ref_grads": [], "sizes": []}

    def both(obj, grad, starts, iters):
        ref_grads, ref_objs, sizes, objs = [0], [0], [], []

        def ref_grad(q):
            ref_grads[0] += 1
            return grad(q)

        def ref_obj(q):
            ref_objs[0] += 1
            return obj(q)

        def sized_grad(q):
            sizes.append(len(q))
            return grad(q)

        def sized_obj(q):
            objs.append(len(q))
            return obj(q)

        ref = _mirror_one_start_at_a_time(ref_obj, ref_grad, starts, iters, log["exits"])
        out = lockstep(sized_obj, sized_grad, starts, iters)
        log["same"].append(out[0] == ref[0] and np.array_equal(out[1], ref[1])
                           and sum(sizes) == ref_grads[0] and sum(objs) == ref_objs[0])
        log["ref_grads"].append(ref_grads[0])
        log["sizes"].append(sizes)
        return out

    monkeypatch.setattr(mn, "_mirror_opt", both)
    return log


def _bowl_with_a_wrong_gradient():
    # |q - t|^2 / 1000 with its gradient, negated on rows with q_0 > 0.9: a
    # start at t, or an ulp away, stops on the gradient scale (< 1e-16), and
    # one near vertex 0 fails all 25 trials
    t = np.array([0.5, 0.25, 0.25])

    def obj(q):
        return ((q - t) ** 2).sum(axis=1) / 1000.0

    def grad(q):
        return 2.0 * (q - t) / 1000.0 * np.where(q[:, :1] > 0.9, -1.0, 1.0)

    starts = [t, np.full(3, 1.0 / 3.0), np.array([0.95, 0.03, 0.02]),
              np.array([0.1, 0.1, 0.8]), np.array([0.2, 0.7, 0.1]),
              np.array([0.5, np.nextafter(0.25, 1.0), 0.25])]
    return obj, grad, starts


@pytest.mark.parametrize("case", ["primal", "monotone", "log_domain", "exits"])
def test_lockstep_mirror_matches_each_start_alone(case, monkeypatch):
    log = _paired_mirror(monkeypatch)
    if case == "primal":
        for d in range(2, 7):
            mn.fidelity_coherence_primal(qmat.random_state(d, d, seed=40 + d).data)
    elif case == "monotone":
        rho = qmat.random_state(3, 3, seed=11).data
        for alpha in (0.6, 0.9, 1.5, 3.0):
            mn.coherence_monotone(rho, alpha)
    elif case == "log_domain":
        # Tr[M^alpha] under- or overflows on the starts: the divergence is
        # resummed in the log domain
        for alpha in (500.0, 1e300):
            mn.coherence_monotone(np.diag([0.7, 0.3]).astype(complex), alpha)
    else:
        obj, grad, starts = _bowl_with_a_wrong_gradient()
        value, q = mn._mirror_opt(obj, grad, starts, 200)
        assert value == 0.0 and np.array_equal(q, starts[0])
        assert log["exits"][0] == log["exits"][-1] == "gradient"
        assert {"failed", "converged"} <= set(log["exits"])
        # on a tie the first start wins
        value, q = mn._mirror_opt(lambda q: np.zeros(len(q)), np.zeros_like, starts[::-1], 10)
        assert value == 0.0 and np.array_equal(q, starts[-1])
    assert log["same"] and all(log["same"])
    for sizes in log["sizes"]:
        assert np.all(np.diff(sizes) <= 0)
    if case == "primal":
        # the starts stop at different iterations, so the stack thins out
        assert all(len(set(sizes)) >= 3 for sizes in log["sizes"][1:])


def test_lockstep_mirror_grad_calls(monkeypatch):
    # one stacked grad call serves every live start of an iteration
    log = _paired_mirror(monkeypatch)
    mn.fidelity_coherence_primal(qmat.random_state(4, 4, seed=3).data)
    (sizes,), (ref_grads,) = log["sizes"], log["ref_grads"]
    assert sizes[0] == 10
    assert len(sizes) <= ref_grads / 3


# ---------------------------------------------------------------------------
# fidelity of coherence
# ---------------------------------------------------------------------------

def test_primal_diagonal_state():
    rho = np.diag([0.6, 0.4]).astype(complex)
    res = mn.fidelity_coherence_primal(rho, restarts=4)
    assert abs(res.value - 1.0) <= 1e-10
    assert np.allclose(res.argmax, [0.6, 0.4], atol=1e-5)


def test_primal_plus_state():
    res = mn.fidelity_coherence_primal(plus_state(), restarts=4)
    assert abs(res.value - 0.5) <= 1e-10


def test_primal_matches_qubit_grid_oracle():
    for seed in (1, 2, 3):
        rho = qmat.random_state(2, 2, seed=seed).data
        oracle = brute_force_coherence_fidelity(rho)
        got = mn.fidelity_coherence_primal(rho, restarts=6).value
        assert abs(got - oracle) <= 1e-6


def test_primal_reaches_pure_state_optimum():
    # F_coh of a pure state is max_i |psi_i|^2, attained at a vertex of the
    # simplex: the descent must get there at criterion 03's budget
    for seed in range(7400, 7420):
        for d in range(2, 7):
            rho = qmat.random_state(d, 1, seed=seed).data
            got = mn.fidelity_coherence_primal(rho, restarts=6, seed=0).value
            assert abs(got - float(np.max(np.diag(rho).real))) <= 1e-5


def test_primal_at_least_uniform_witness():
    for seed in range(5):
        d = 2 + seed % 3
        rho = qmat.random_state(d, d, seed=seed).data
        assert mn.fidelity_coherence_primal(rho, restarts=4).value >= 1.0 / d - 1e-12


def test_dual_diagonal_state_and_plus():
    rho = np.diag([0.6, 0.4]).astype(complex)
    res = mn.fidelity_coherence_dual(rho, restarts=6)
    assert abs(res.value - 1.0) <= 1e-6
    res_plus = mn.fidelity_coherence_dual(plus_state(), restarts=6)
    assert abs(res_plus.value - 0.5) <= 1e-6


def test_dual_reports_feasible_r():
    rho = qmat.random_state(3, 3, seed=9).data
    res = mn.fidelity_coherence_dual(rho, restarts=6)
    r = res.argmin_r
    w = np.linalg.eigvalsh(r)
    assert w[0] > 0
    # every feasible R upper-bounds the primal value
    primal = mn.fidelity_coherence_primal(rho, restarts=6).value
    direct = float(np.trace(rho @ np.linalg.inv(r)).real) * float(np.max(np.diag(r).real))
    assert direct >= primal - 1e-9


def test_primal_dual_agreement_random():
    for d in (2, 3, 4, 5):
        rho = qmat.random_state(d, d, seed=40 + d).data
        p = mn.fidelity_coherence_primal(rho, restarts=6).value
        dl = mn.fidelity_coherence_dual(rho, restarts=6).value
        assert abs(p - dl) <= 1e-5


def test_dual_gradient_matches_central_difference(monkeypatch):
    # the objective-and-gradient callable the dual hands to the optimizer
    seen = []
    minimize = optimize.minimize

    def spy(fun, x0, **kwargs):
        seen.append(fun)
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(optimize, "minimize", spy)
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        rho = qmat.random_state(d, d, seed=20 + d).data
        mn.fidelity_coherence_dual(rho, restarts=1)
        fun = seen[-1]
        for _ in range(4):
            x = rng.standard_normal(2 * d * d)
            v = rng.standard_normal(2 * d * d)
            h = 1e-6
            fd = (fun(x + h * v)[0] - fun(x - h * v)[0]) / (2.0 * h)
            assert abs(float(fun(x)[1] @ v) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_dual_certified_on_maximally_coherent_states():
    # F_coh(Phi_d) = 1/d exactly; a float evaluation at the optimizer's nearly
    # singular R used to read below it at d = 5 and 6
    for d in range(2, 9):
        res = mn.fidelity_coherence_dual(plus_state(d), restarts=6)
        assert res.value >= 1.0 / d
        assert res.value - 1.0 / d <= 1e-6


def test_dual_value_bounds_float_reevaluation():
    eps = np.finfo(float).eps
    states = [plus_state(d) for d in (3, 5, 6)]
    states += [qmat.random_state(d, d, seed=70 + d).data for d in (2, 3, 4, 5)]
    for rho in states:
        d = rho.shape[0]
        res = mn.fidelity_coherence_dual(rho, restarts=6)
        w = np.linalg.eigvalsh(res.argmin_r)
        kappa = w[-1] / w[0]
        # the cap, up to the rounding of eigvalsh in the smallest eigenvalue
        assert w[0] > 0 and kappa <= mn.KAPPA_CAP * (1.0 + 1e-6)
        direct = (float(np.trace(rho @ np.linalg.inv(res.argmin_r)).real)
                  * float(np.max(np.diag(res.argmin_r).real)))
        assert res.value >= direct * (1.0 - 4.0 * d * eps * kappa)


def test_dual_runs_one_polish(monkeypatch):
    # the dual starts at the primal's transition operator: one L-BFGS-B run
    calls = []
    minimize = optimize.minimize

    def spy(fun, x0, **kwargs):
        calls.append(fun)
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(optimize, "minimize", spy)
    for d in (2, 3, 4, 5):
        rho = qmat.random_state(d, d, seed=50 + d).data
        before = len(calls)
        mn.fidelity_coherence_dual(rho, restarts=6, seed=d)
        assert len(calls) == before + 1
    mn.fidelity_coherence_dual(plus_state(4), restarts=6)
    assert len(calls) == 5


def _dual_edge_states():
    zero_row = np.zeros((3, 3), dtype=complex)
    zero_row[0, 0] = zero_row[2, 2] = 0.5
    zero_row[0, 2] = zero_row[2, 0] = 0.4
    tiny = np.array([1.0, 1e-9, 1.0], dtype=complex) / math.sqrt(2.0)
    states = [pytest.param(np.diag([1.0, 0.0]).astype(complex), id="ket0"),
              pytest.param(np.diag([1.0, 0.0, 0.0]).astype(complex), id="diag100"),
              pytest.param(zero_row, id="zero_row"),
              pytest.param(np.outer(tiny, tiny.conj()), id="tiny_amplitude")]
    rng = np.random.default_rng(3)
    for d in range(2, 7):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        states.append(pytest.param(np.outer(psi, psi.conj()), id=f"pure_d{d}"))
    return states


@pytest.mark.parametrize("rho", _dual_edge_states())
def test_dual_edge_states(rho):
    # singular states put zeros in the primal's argmax: the start stays finite
    with np.errstate(all="raise"):
        p = mn.fidelity_coherence_primal(rho, restarts=6).value
        res = mn.fidelity_coherence_dual(rho, restarts=6)
    assert math.isfinite(res.value)
    assert res.value >= p - 1e-9
    assert res.value - p <= 1e-5
    w = np.linalg.eigvalsh(res.argmin_r)
    assert w[0] > 0 and w[-1] / w[0] <= mn.KAPPA_CAP * (1.0 + 1e-6)


def test_transition_operator_alone_nearly_certifies(monkeypatch):
    # with the polish run replaced by its start, the certified value of the
    # transition operator is within 1e-4 of the primal on the criterion-03
    # states: the KKT argument for the warm start, checked numerically
    monkeypatch.setattr(optimize, "minimize",
                        lambda fun, x0, **kwargs: SimpleNamespace(x=x0))
    worst = 0.0
    for d, count in {2: 13, 3: 13, 4: 12, 5: 12}.items():
        for k in range(count):
            rho = qmat.random_state(d, d, seed=1000 * d + k).data
            p = mn.fidelity_coherence_primal(rho, restarts=6, seed=k).value
            dl = mn.fidelity_coherence_dual(rho, restarts=6, seed=k).value
            assert dl >= p - 1e-9
            worst = max(worst, dl - p)
    assert worst <= 1e-4


def test_multiplicativity():
    diag_a = np.diag([0.7, 0.3]).astype(complex)
    diag_b = np.diag([0.2, 0.8]).astype(complex)
    rep = mn.multiplicativity_check(diag_a, diag_b, restarts=4)
    assert abs(rep.gap) <= 1e-9
    rep_plus = mn.multiplicativity_check(plus_state(), plus_state(), restarts=4)
    assert abs(rep_plus.lhs - 0.25) <= 1e-6
    assert abs(rep_plus.rhs - 0.25) <= 1e-8
    with pytest.raises(DimensionCap):
        mn.multiplicativity_check(np.eye(5) / 5, np.eye(5) / 5)


# ---------------------------------------------------------------------------
# generalized robustness
# ---------------------------------------------------------------------------

def test_robustness_free_states():
    gam = np.diag([0.8, 0.2]).astype(complex)
    assert abs(mn.generalized_robustness(gam, mn.Athermality(gam))) <= 1e-10
    assert abs(mn.generalized_robustness(np.diag([0.5, 0.5]).astype(complex),
                                         mn.Coherence())) <= 1e-6


def test_robustness_plus_state_is_one_bit():
    got = mn.generalized_robustness(plus_state(), mn.Coherence())
    assert abs(got - 1.0) <= 1e-4
    oracle = brute_force_coherence_dmax(plus_state())
    assert abs(got - oracle) <= 1e-3


def test_robustness_chain_random():
    for seed in range(4):
        rho = qmat.random_state(3, 3, seed=seed + 60).data
        gam = qmat.random_classical(3, seed=seed + 70)
        th_a = mn.Athermality(np.diag(gam.probs.astype(complex)))
        for th in (th_a, mn.Coherence()):
            rob = mn.generalized_robustness(rho, th)
            d1 = mn.monotone_alpha(rho, th, 1.0)
            dh = mn.monotone_alpha(rho, th, 0.5)
            assert rob >= d1 - 1e-6
            assert d1 >= dh - 1e-6


def test_robustness_certified_on_pure_states():
    # log2 (sum_i |psi_i|)^2 exactly (Napoli et al., PRL 116, 150502 (2016));
    # the returned q certifies the upper end: 2^value diag(q) >= rho
    rng = np.random.default_rng(8)
    for d in (2, 3, 4, 5):
        for _ in range(2):
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            val, q = mn.coherence_monotone(rho, math.inf)
            assert abs(val - math.log2(np.sum(np.abs(psi)) ** 2)) <= 1e-6
            assert np.linalg.eigvalsh(2.0 ** val * np.diag(q) - rho)[0] >= -1e-9


def test_robustness_pure_states_with_zero_amplitudes():
    # the closed form on rank-one states with zero amplitudes, down to a
    # basis state, which is incoherent
    for psi in ([1.0, 0.0, 0.0], [0.6, 0.0, 0.8j], [0.0, 1.0, 1.0, 0.0]):
        v = np.array(psi, dtype=complex) / np.linalg.norm(psi)
        rho = np.outer(v, v.conj())
        val, q = mn.coherence_monotone(rho, math.inf)
        assert abs(val - math.log2(np.sum(np.abs(v)) ** 2)) <= 1e-12
        assert np.all(q >= 0.0) and abs(q.sum() - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(2.0 ** val * np.diag(q) - rho)[0] >= -1e-12


def test_robustness_mixed_state_the_bisection_overstated():
    # a bisection over a 400-step subgradient feasibility test read 1.045130
    # here: its test called feasible levels infeasible
    rho = qmat.random_state(6, 6, seed=904).data
    val, q = mn.coherence_monotone(rho, math.inf)
    assert val <= 1.0434333
    assert np.linalg.eigvalsh(2.0 ** val * np.diag(q) - rho)[0] >= -1e-12


def test_robustness_interval_is_certified_on_mixed_states():
    # W >= 0 with unit diagonal makes lo a lower bound by weak duality, and
    # 2^hi diag(q) >= rho makes hi an upper bound; the two nearly meet
    for d in range(2, 7):
        for rank in range(2, d + 1):
            for seed in (0, 1):
                rho = qmat.random_state(d, rank, seed=500 + 10 * d + rank + 100 * seed).data
                hi, q, lo, w = mn._robustness_coherence(rho)
                assert np.linalg.eigvalsh(w)[0] >= -1e-12
                assert np.max(np.abs(np.diag(w) - 1.0)) <= 1e-12
                assert abs(2.0 ** lo - np.trace(rho @ w).real) <= 1e-12
                assert lo <= hi <= lo + 1e-7
                assert np.all(q >= 0.0) and abs(q.sum() - 1.0) <= 1e-12
                assert np.linalg.eigvalsh(2.0 ** hi * np.diag(q) - rho)[0] >= -1e-12


def _feasible_by_subgradient(c, iters):
    # is there a diagonal state q with diag(q) >= c? subgradient descent on
    # lambda_max(c - diag q) over the simplex, from two starts in lockstep
    d = c.shape[0]
    diag = np.clip(np.diag(c).real, 1e-12, None)
    q = np.stack([np.full(d, 1.0 / d), diag / diag.sum()])
    best, best_q = math.inf, None
    for t in range(iters):
        w, u = np.linalg.eigh(c - q[:, :, None] * np.eye(d))
        k = int(np.argmin(w[:, -1]))
        if w[k, -1] < best:
            best, best_q = float(w[k, -1]), q[k]
        if best <= 0.0:
            return True, best_q
        g = -np.abs(u[:, :, -1]) ** 2
        q = q * np.exp(-0.5 / math.sqrt(t + 1.0) * g / np.max(np.abs(g), axis=1, keepdims=True))
        q = q / q.sum(axis=1, keepdims=True)
    return best <= 1e-9, best_q


def _robustness_by_bisection(rho, iters=1600, width=1e-7):
    # slow reference: bisection on log2 of the robustness with a subgradient
    # feasibility test; returns the least level it certified feasible
    lo, hi = 0.0, math.log2(rho.shape[0] * np.linalg.eigvalsh(rho)[-1]) + 1e-6
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        ok, q = _feasible_by_subgradient(2.0 ** (-mid) * rho, iters)
        if ok:
            assert np.linalg.eigvalsh(2.0 ** mid * np.diag(q) - rho)[0] >= -2.0 ** mid * 1e-9
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("d, rank, seed", [(4, 2, 66), (4, 3, 63), (4, 4, 65)])
def test_robustness_not_above_a_slow_bisection(d, rank, seed):
    rho = qmat.random_state(d, rank, seed=seed).data
    val, _ = mn.coherence_monotone(rho, math.inf)
    assert val <= _robustness_by_bisection(rho) + 1e-9


@pytest.mark.parametrize("p", [(1.0, 0.0), (0.3, 0.0, 0.7), (0.0, 0.25, 0.0, 0.75),
                               (0.2, 0.0, 0.0, 0.5, 0.3)])
def test_robustness_incoherent_states_with_zero_entries(p):
    val, q = mn.coherence_monotone(np.diag(p).astype(complex), math.inf)
    assert val == 0.0
    assert np.all(np.isfinite(q)) and np.allclose(q, p, rtol=0.0, atol=1e-15)


def test_robustness_theory_unsupported():
    with pytest.raises(TheoryUnsupported):
        mn.generalized_robustness(plus_state(), mn.PureBipartiteEntanglement(2, 2))


# ---------------------------------------------------------------------------
# free-operation samplers
# ---------------------------------------------------------------------------

def test_gibbs_preserving_channel_fixes_gibbs():
    gam = np.diag([0.6, 0.3, 0.1]).astype(complex)
    ch = mn.gibbs_preserving_channel(gam, weight=0.4)
    assert np.max(np.abs(qmat.apply_channel(gam, ch) - gam)) <= 1e-12


def test_dephasing_covariant_channel_preserves_diagonal():
    ch = mn.dephasing_covariant_channel(3, seed=5)
    diag = np.diag([0.5, 0.3, 0.2]).astype(complex)
    out = qmat.apply_channel(diag, ch)
    off = out - np.diag(np.diag(out))
    assert np.max(np.abs(off)) <= 1e-12
