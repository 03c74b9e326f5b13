import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmono import divergences as dv
from resmono import qmat
from resmono.errors import AlphaOutOfRange, DimensionMismatch, SupportViolation

RHO2 = np.diag([1.0, 0.0]).astype(complex)
SIG2 = np.eye(2, dtype=complex) / 2.0


def classical_renyi_oracle(p, q, alpha):
    # independent scalar summation
    if alpha == 1.0:
        return sum(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0)
    s = sum(pi ** alpha * qi ** (1 - alpha) for pi, qi in zip(p, q) if pi > 0 and qi > 0)
    return math.log2(s) / (alpha - 1)


def test_sandwiched_self_is_zero():
    rho = qmat.random_state(3, 3, seed=0).data
    for alpha in (0.5, 0.75, 1.0, 2.0, math.inf):
        assert abs(dv.sandwiched(rho, rho, alpha)) <= 1e-9


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5, 3.0, math.inf])
def test_sandwiched_pure_vs_maximally_mixed(alpha):
    assert abs(dv.sandwiched(RHO2, SIG2, alpha) - 1.0) <= 1e-10


def test_sandwiched_classical_collapse():
    p = np.array([2 / 3, 1 / 12, 1 / 4])
    g = np.array([0.7, 0.2, 0.1])
    expected = classical_renyi_oracle(p, g, 1.0)
    assert abs(dv.sandwiched(np.diag(p.astype(complex)), np.diag(g.astype(complex)), 1.0)
               - expected) <= 1e-12
    for alpha in (0.5, 0.8, 1.3, 2.0):
        assert abs(dv.sandwiched(np.diag(p.astype(complex)), np.diag(g.astype(complex)), alpha)
                   - classical_renyi_oracle(p, g, alpha)) <= 1e-12


def test_sandwiched_alpha_out_of_range():
    with pytest.raises(AlphaOutOfRange):
        dv.sandwiched(RHO2, SIG2, 0.3)
    # two distributions too, although the classical path takes every order
    with pytest.raises(AlphaOutOfRange, match="alpha >= 1/2, got 0.3"):
        dv.sandwiched(np.array([0.5, 0.5]), np.array([0.3, 0.7]), 0.3)


@pytest.mark.parametrize("alpha", [math.nan, -math.inf])
def test_non_real_alpha_rejected(alpha):
    with pytest.raises(AlphaOutOfRange, match=str(alpha)):
        dv.sandwiched(RHO2, SIG2, alpha)
    with pytest.raises(AlphaOutOfRange, match=str(alpha)):
        dv.classical_renyi(np.array([0.5, 0.5]), np.array([0.3, 0.7]), alpha)


def test_sandwiched_support_conventions():
    # alpha > 1 with supp(rho) not inside supp(sigma) -> +inf
    rho = np.diag([0.5, 0.5]).astype(complex)
    sig = np.diag([1.0, 0.0]).astype(complex)
    assert math.isinf(dv.sandwiched(rho, sig, 2.0))
    # alpha < 1 with orthogonal states -> +inf
    assert math.isinf(dv.sandwiched(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.75))
    # alpha < 1 non-orthogonal but support-deficient stays finite
    assert math.isfinite(dv.sandwiched(rho, sig, 0.75))


def test_sandwiched_half_equals_minus_log_fidelity():
    a = qmat.random_state(3, 3, seed=1).data
    b = qmat.random_state(3, 3, seed=2).data
    assert abs(dv.sandwiched(a, b, 0.5) + math.log2(qmat.fidelity(a, b))) <= 1e-10


def _half_by_svd(rho, sigma):
    """-2 log2 ||sqrt(rho) sqrt(sigma)||_1 from an SVD, with noise-level
    eigenvalues clipped: an order-1/2 oracle apart from the spectral path."""
    def root(m):
        w, u = np.linalg.eigh(m)
        w = np.where(w > 1e-14 * w.max(), w, 0.0)
        return (u * np.sqrt(w)) @ u.conj().T
    return -2.0 * math.log2(np.linalg.svd(root(rho) @ root(sigma), compute_uv=False).sum())


def test_sandwiched_half_meets_an_svd_oracle_on_rank_deficient_pairs():
    for i in range(40):
        d = 2 + i % 5
        rho = qmat.random_state(d, 1 + i % d, seed=6100 + i).data
        sig = qmat.random_state(d, 1 + (i // 5) % d, seed=6200 + i).data
        assert abs(dv.sandwiched(rho, sig, 0.5) - _half_by_svd(rho, sig)) <= 1e-12


@pytest.mark.parametrize("scale, finite", [(0.5, False), (1.0, False), (100.0, True)])
def test_sandwiched_half_follows_the_overlap_rule(scale, finite):
    # like every order below 1, +inf once rho's mass on supp(sigma) is at most OVERLAP_TOL
    t = scale * dv.OVERLAP_TOL
    rho = np.diag([1.0 - t, t]).astype(complex)
    sig = np.diag([0.0, 1.0]).astype(complex)
    got = dv.sandwiched(rho, sig, 0.5)
    assert math.isfinite(got) == finite == math.isfinite(dv.sandwiched(rho, sig, 0.75))
    if finite:
        assert abs(got + math.log2(t)) <= 1e-9


def test_petz_basics():
    rho = qmat.random_state(3, 3, seed=3).data
    assert abs(dv.petz(rho, rho, 0.5)) <= 1e-10
    # commuting collapse: petz == sandwiched
    p = np.diag([0.6, 0.3, 0.1]).astype(complex)
    q = np.diag([0.2, 0.5, 0.3]).astype(complex)
    for alpha in (0.4, 0.7, 1.5, 2.0):
        if alpha >= 0.5:
            assert abs(dv.petz(p, q, alpha) - dv.sandwiched(p, q, alpha)) <= 1e-10
    with pytest.raises(AlphaOutOfRange):
        dv.petz(rho, rho, 2.5)


def test_petz_appendix_closed_form():
    # D_petz(|phi><phi| || diag(1/2,1/2,0)) = log2 - log(1-eps^2)/(1-alpha)
    eps, alpha = 0.1, 0.75
    phi = np.array([math.sqrt(1 - eps ** 2), 0.0, eps])
    sig3 = np.diag([0.5, 0.5, 0.0]).astype(complex)
    target = 1.0 - math.log2(1 - eps ** 2) / (1 - alpha)
    assert abs(dv.petz(np.outer(phi, phi), sig3, alpha) - target) <= 1e-12


def test_umegaki_and_dmax_rank_one():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([0.999, 0.001]).astype(complex)
    expected = -math.log2(0.999)
    assert abs(dv.umegaki(rho, sig) - expected) <= 1e-12
    assert abs(dv.dmax(rho, sig) - expected) <= 1e-12
    assert abs(dv.umegaki(rho, rho)) <= 1e-12
    assert abs(dv.dmax(rho, rho)) <= 1e-12


def test_umegaki_support_violation_infinite():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sig = np.diag([1.0, 0.0]).astype(complex)
    assert math.isinf(dv.umegaki(rho, sig))
    assert math.isinf(dv.dmax(rho, sig))


def test_divergence_ordering_chain():
    # D_max >= D >= D_(1/2) on random pairs
    for seed in range(10):
        a = qmat.random_state(3, 3, seed=seed).data
        b = qmat.random_state(3, 3, seed=70 + seed).data
        dm = dv.dmax(a, b)
        du = dv.umegaki(a, b)
        dh = dv.sandwiched(a, b, 0.5)
        assert dm >= du - 1e-10
        assert du >= dh - 1e-10


def test_q_alpha_identities():
    a = qmat.random_state(3, 3, seed=5).data
    b = qmat.random_state(3, 3, seed=6).data
    assert abs(dv.q_alpha(a, a, 0.75) - 1.0) <= 1e-10
    assert abs(dv.q_alpha(a, b, 0.5) - math.sqrt(qmat.fidelity(a, b))) <= 1e-12
    # multiplicativity under tensor products
    c = qmat.random_state(2, 2, seed=7).data
    d = qmat.random_state(2, 2, seed=8).data
    lhs = dv.q_alpha(qmat.tensor(a, c), qmat.tensor(b, d), 0.7)
    rhs = dv.q_alpha(a, b, 0.7) * dv.q_alpha(c, d, 0.7)
    assert abs(lhs - rhs) <= 1e-10
    with pytest.raises(AlphaOutOfRange):
        dv.q_alpha(a, b, 1.5)


def test_rel_entropy_variance_classical_oracle():
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    llr = [math.log2(pi / qi) for pi, qi in zip(p, q)]
    d = sum(pi * l for pi, l in zip(p, llr))
    expected = sum(pi * l * l for pi, l in zip(p, llr)) - d * d
    got = dv.rel_entropy_variance(np.diag(p.astype(complex)), np.diag(q.astype(complex)))
    assert abs(got - expected) <= 1e-12
    assert abs(dv.classical_rel_entropy_variance(p, q) - expected) <= 1e-12


def test_rel_entropy_variance_additivity_and_errors():
    a = qmat.random_state(2, 2, seed=9).data
    b = qmat.random_state(2, 2, seed=10).data
    v1 = dv.rel_entropy_variance(a, b)
    assert v1 >= -1e-10
    for n in (2, 3):
        an, bn = a, b
        for _ in range(n - 1):
            an, bn = qmat.tensor(an, a), qmat.tensor(bn, b)
        assert abs(dv.rel_entropy_variance(an, bn) - n * v1) <= 1e-9
    assert abs(dv.rel_entropy_variance(a, a)) <= 1e-10
    with pytest.raises(SupportViolation):
        dv.rel_entropy_variance(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))


def test_classical_renyi_matches_diagonal_sandwiched():
    p = np.array([2 / 3, 1 / 12, 1 / 4])
    g = np.array([0.7, 0.2, 0.1])
    assert abs(dv.classical_renyi(p, p, 0.8)) <= 1e-12
    # Bhattacharyya identity at alpha = 1/2
    bc = -2.0 * math.log2(sum(math.sqrt(pi * gi) for pi, gi in zip(p, g)))
    assert abs(dv.classical_renyi(p, g, 0.5) - bc) <= 1e-12
    for alpha in (0.5, 0.75, 1.0, 2.0, 5.0, math.inf):
        assert abs(dv.classical_renyi(p, g, alpha)
                   - dv.sandwiched(np.diag(p.astype(complex)),
                                   np.diag(g.astype(complex)), alpha)) <= 1e-12
    with pytest.raises(DimensionMismatch):
        dv.classical_renyi(p, np.array([0.5, 0.5]), 1.0)


def test_classical_divergences_reject_non_vectors():
    p = np.array([0.5, 0.3, 0.2])
    fns = [lambda a, b: dv.classical_renyi(a, b, 0.75), dv.classical_kl,
           dv.classical_rel_entropy_variance]
    for fn in fns:
        for a, b in ((p, p[:2] / p[:2].sum()), (SIG2, SIG2), (p[:2], SIG2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # no ComplexWarning before the check
                with pytest.raises(DimensionMismatch):
                    fn(a, b)


def test_quantum_divergences_reject_mismatched_shapes():
    rho3 = np.eye(3, dtype=complex) / 3.0
    calls = [lambda: dv.sandwiched(SIG2, rho3, 0.75), lambda: dv.sandwiched(SIG2, rho3, 1.0),
             lambda: dv.petz(SIG2, rho3, 0.5), lambda: dv.umegaki(SIG2, rho3),
             lambda: dv.dmax(SIG2, rho3)]
    for call in calls:
        with pytest.raises(DimensionMismatch, match=r"\(2, 2\).*\(3, 3\)"):
            call()


def mp_renyi(p, q, alpha):
    """The Renyi divergence of two vectors at 60 digits, with classical_renyi's
    support rule: for alpha > 1, p-mass up to OVERLAP_TOL where q is 0 is
    dropped and more makes it +inf; entries where p or q is 0 add nothing."""
    import mpmath
    with mpmath.workdps(60):
        if alpha > 1.0 and any(pi > dv.OVERLAP_TOL and qi == 0.0 for pi, qi in zip(p, q)):
            return math.inf
        a = mpmath.mpf(alpha)
        s = sum(mpmath.mpf(pi) ** a * mpmath.mpf(qi) ** (1 - a)
                for pi, qi in zip(p, q) if pi > 0.0 and qi > 0.0)
        if s == 0:
            return math.inf if alpha < 1.0 else -math.inf
        return float(mpmath.log(s, 2) / (a - 1))


@pytest.mark.parametrize("alpha", [1075.0, 1e5, 1e300, -1e3, -1e300])
def test_classical_renyi_extreme_orders(alpha):
    # p^alpha q^(1-alpha) under- or overflows here; the sum is taken in the log domain
    p, q = [0.5, 0.3, 0.2], [0.3, 0.6, 0.1]
    expected = mp_renyi(p, q, alpha)
    got = dv.classical_renyi(np.array(p), np.array(q), alpha)
    assert math.isfinite(got)
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("p, q, alpha, expected", [
    ([0.5, 0.5], [0.3, 0.7], 1075.0, 0.7360344954697444),
    ([0.5, 0.5], [0.3, 0.7], -1075.0, -0.4844974591405019),
    ([0.5, 0.5], [1e-300, 1.0], 3.0, 995.0784284662087),
    ([1e-13, 0.0], [0.0, 1.0], 2.0, -math.inf),
])
def test_classical_renyi_prints_no_warning(p, q, alpha, expected):
    # a power over- or underflows, or no mass is left where both are positive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dv.classical_renyi(np.array(p), np.array(q), alpha) == expected


@pytest.mark.parametrize("p, q", [([1.0, 0.0, 0.0], [2.225073858507e-311, 0.5, 0.5]),
                                  ([0.0, 0.0, 1.0], [0.5, 0.5, 2.225073858507e-311])])
def test_classical_kl_and_dmax_over_a_subnormal_entry(p, q):
    # p / q leaves the float range: log2 p - log2 q takes its place
    p, q = np.array(p), np.array(q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dv.classical_kl(p, q) == 1031.9657842846623
        assert dv.classical_renyi(p, q, math.inf) == 1031.9657842846623
        assert dv.dmax(p, q) == 1031.9657842846623
        for alpha in (1.0, 1.0 + 1e-8, math.inf):
            assert dv.classical_renyi_rows(p[None], q, alpha)[0] == 1031.9657842846623
    assert dv.classical_renyi(p, q, 2.0) == 1031.9657842846623


def scalar_renyi(p, q, alpha):
    """classical_renyi's rules, one order at a time with a scalar exponent:
    the plain numpy expression that the many-orders pass must match bit for bit."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if alpha > 1.0 and np.any((p > dv.OVERLAP_TOL) & (q <= 0)):
        return math.inf
    if abs(alpha - 1.0) < dv.ALPHA_ONE_WINDOW:
        return dv.classical_kl(p, q)
    m = (p > 0) & (q > 0)
    if math.isinf(alpha):
        return float(np.max(dv._log2_ratio(p[m], q[m]))) if m.any() else -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        s = float((p[m] ** alpha * q[m] ** (1.0 - alpha)).sum())
    if 0.0 < s < math.inf:
        return float(np.log2(s)) / (alpha - 1.0)
    if not m.any():
        return math.inf if alpha < 1.0 else -math.inf
    return dv._renyi_log_domain(p[m], q[m], alpha)


_EDGE = dv.ALPHA_ONE_WINDOW
_FAR = 0.5 + dv.POW_SAFE_RADIUS
ORDER_GRIDS = np.concatenate([1.0 - np.geomspace(1e-6, 0.5, 200),
                              1.0 + np.geomspace(1e-6, 5.0, 200)])
SPECIAL_ORDERS = [
    0.5, 2.0, -1.0, 0.0,                        # numpy's scalar fast powers: sqrt, square, 1/x
    0.5 - 2.0 ** -54, -1.0 + 2.0 ** -53,        # 1 - alpha rounds to 1/2 and to 2
    math.nextafter(0.5, 1.0), math.nextafter(2.0, 3.0),
    *(x for e in (1.0 - _EDGE, 1.0 + _EDGE)     # both edges of the alpha = 1 window
      for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 3.0))),
    _FAR, math.nextafter(_FAR, 3.0), 1.0 - _FAR, math.nextafter(1.0 - _FAR, -3.0),
    1075.0, -1075.0, 1e5, 1e300, -1e300,        # resummed in the log domain
    math.inf,
]
_Q_ENTRY = st.one_of(st.just(0.0), st.sampled_from([5e-324, 2.2e-311, 1e-300]),
                     st.floats(1e-3, 1.0))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 6), data=st.data())
def test_many_orders_match_scalar_classical_renyi(d, data):
    # vectors with zeros, subnormal q entries and mass of p off supp q; each
    # order of both exponent grids and of the special orders, plus random
    # ones, in one call
    p = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                                    min_size=d, max_size=d)))
    p = p / p.sum() if p.sum() > 0 else p
    q = np.array(data.draw(st.lists(_Q_ENTRY, min_size=d, max_size=d)))
    extra = data.draw(st.lists(st.floats(-50.0, 50.0), max_size=20))
    orders = np.concatenate([ORDER_GRIDS, SPECIAL_ORDERS, extra])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [float.hex(float(v)) for v in dv.classical_renyi_orders(p, q)(orders)]
        one = [float.hex(dv.classical_renyi(p, q, a)) for a in orders.tolist()]
    assert got == one
    assert got == [float.hex(scalar_renyi(p, q, a)) for a in orders.tolist()]
    if np.any((p > dv.OVERLAP_TOL) & (q == 0.0)):
        assert all(float.fromhex(g) == math.inf for g, a in zip(got, orders) if a > 1.0)


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_classical_renyi_power_gate_edges(side, monkeypatch):
    # on the last order inside |alpha - 1/2| <= POW_SAFE_RADIUS the plain sum
    # stays finite on the worst entry, the least subnormal; the next order out
    # is guarded
    guards = []
    errstate = np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kw: guards.append(kw) or errstate(**kw))
    away = math.inf if side == "upper" else -math.inf
    outside = 0.5 + math.copysign(dv.POW_SAFE_RADIUS, away)
    while abs(outside - 0.5) <= dv.POW_SAFE_RADIUS:
        outside = math.nextafter(outside, away)
    inside = math.nextafter(outside, 0.5)
    tiny = math.ulp(0.0)
    p, q = ([0.5, 0.5], [1.0, tiny]) if side == "upper" else ([1.0, tiny], [0.5, 0.5])
    for alpha, guarded in ((inside, 0), (outside, 1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dv.classical_renyi(np.array(p), np.array(q), alpha)
        expected = mp_renyi(p, q, alpha)
        assert abs(got - expected) <= 1e-12 * abs(expected)
        assert len(guards) == guarded
        guards.clear()


def _near_tolerance_pairs():
    # a third entry eps of p on ker(q), of q under mass of p, or of both, at
    # 0.5, 1 and 2 times OVERLAP_TOL and the spectral-clip floor KERNEL_TOL
    for tol_name, tol in (("overlap", dv.OVERLAP_TOL), ("clip", qmat.KERNEL_TOL)):
        for t in (0.5, 1.0, 2.0):
            eps = t * tol
            yield f"p_on_ker_q-{t}x{tol_name}", [0.6 - eps, 0.4, eps], [0.5, 0.5, 0.0]
            yield f"q_small-{t}x{tol_name}", [0.6, 0.3, 0.1], [0.5 - eps / 2, 0.5 - eps / 2, eps]
            yield f"both_small-{t}x{tol_name}", [0.6 - eps, 0.4, eps], [0.5 - eps / 2, 0.5 - eps / 2, eps]


_SIGMA_KERNEL_FAULT = pytest.mark.xfail(
    strict=True, reason="sandwiched treats a sigma eigenvalue <= KERNEL_TOL as kernel for "
    "alpha < 1, and one <= SUPPORT_RTOL times the largest as kernel for alpha > 1")


def _near_tolerance_cases():
    for name, p, q in _near_tolerance_pairs():
        yield pytest.param("classical", p, q, id=f"classical-{name}")
        marks = _SIGMA_KERNEL_FAULT if name.startswith("q_small") and "clip" in name else ()
        yield pytest.param("sandwiched", p, q, id=f"sandwiched-{name}", marks=marks)


@pytest.mark.parametrize("kind, p, q", _near_tolerance_cases())
def test_divergences_near_the_support_tolerance(kind, p, q):
    # the classical path and the quantum one on the diagonal embeddings,
    # against 60 digits, within test_sandwiched_huge_orders' 1e-9
    for alpha in (0.5, 0.75, 0.99, 1.5, 2.0, 5.0):
        if kind == "classical":
            got = dv.classical_renyi(np.array(p), np.array(q), alpha)
        else:
            got = dv.sandwiched(np.diag(np.array(p, dtype=complex)),
                                np.diag(np.array(q, dtype=complex)), alpha)
        expected = mp_renyi(p, q, alpha)
        if math.isinf(expected):
            assert got == expected
        else:
            assert abs(got - expected) <= 1e-9


@pytest.mark.parametrize("alpha", [1e3, 1e5, 1e300])
def test_sandwiched_huge_orders(alpha):
    # Tr[M^alpha] overflows from about alpha = 2000 on; D_alpha tends to D_max
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    sig = np.eye(2, dtype=complex) / 2.0
    got = dv.sandwiched(rho, sig, alpha)
    if alpha == 1e300:
        expected = dv.dmax(rho, sig)
    else:
        import mpmath
        with mpmath.workdps(60):
            a, b, c = (mpmath.mpf(x) for x in (0.7, 0.1, 0.3))
            root = mpmath.sqrt((a - c) ** 2 + 4 * b ** 2)
            lam = ((a + c + root) / 2, (a + c - root) / 2)
            # with sigma = I/2, Tr[M^alpha] = 2^(alpha - 1) Tr[rho^alpha]
            k = mpmath.mpf(alpha)
            expected = float(1 + mpmath.log(lam[0] ** k + lam[1] ** k, 2) / (k - 1))
    assert abs(got - expected) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [2000.0, 1e300])
def test_sandwiched_huge_orders_print_no_warning(alpha):
    # w^alpha overflows or underflows in the plain sum before the log-domain resum
    for seed in range(6):
        rho, sig = (qmat.random_state(3, 3, seed=s).data for s in (2 * seed, 2 * seed + 1))
        assert math.isfinite(dv.sandwiched(rho, sig, alpha))


@pytest.mark.parametrize("wrap", [np.array, qmat.ClassicalDist], ids=["array", "dist"])
@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 2.0, math.inf])
def test_quantum_entry_points_take_the_classical_path(wrap, alpha):
    p, g = [2 / 3, 1 / 12, 1 / 4], [0.7, 0.2, 0.1]
    assert dv.sandwiched(wrap(p), wrap(g), alpha) == dv.classical_renyi(p, g, alpha)
    assert dv.umegaki(wrap(p), wrap(g)) == dv.classical_kl(p, g)
    assert dv.dmax(wrap(p), wrap(g)) == dv.classical_renyi(p, g, math.inf)
    assert (dv.rel_entropy_variance(wrap(p), wrap(g))
            == dv.classical_rel_entropy_variance(p, g))


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 2.0, math.inf])
def test_vector_with_matrix_is_embedded_on_the_diagonal(alpha):
    p = np.array([2 / 3, 1 / 12, 1 / 4])
    sig = qmat.random_state(3, 3, seed=5).data
    diag = np.diag(p.astype(complex))
    for a, b, da, db in ((p, sig, diag, sig), (sig, p, sig, diag)):
        assert dv.sandwiched(a, b, alpha) == dv.sandwiched(da, db, alpha)
        assert dv.umegaki(a, b) == dv.umegaki(da, db)
        assert dv.dmax(a, b) == dv.dmax(da, db)
        assert dv.rel_entropy_variance(a, b) == dv.rel_entropy_variance(da, db)


def test_classical_dmax_drops_mass_below_overlap_tolerance():
    # gamma_2 = 1e-13 <= OVERLAP_TOL sits where p is 0: the quantum dmax of the
    # diagonal embeddings ignores it, and so does the classical fast path
    gam, p = np.array([0.5, 1e-13, 0.4999999999999]), np.array([0.5, 0.0, 0.5])
    quantum = dv.dmax(np.diag(gam.astype(complex)), np.diag(p.astype(complex)))
    assert abs(dv.dmax(gam, p) - quantum) <= 1e-15
    assert dv.classical_renyi_rows(gam[None], p, math.inf)[0] == dv.dmax(gam, p)
    # with no mass left on supp(q), both read -inf
    tiny, q = np.array([1e-13, 0.0]), np.array([0.0, 1.0])
    assert dv.dmax(tiny, q) == dv.dmax(np.diag(tiny), np.diag(q)) == -math.inf


def test_alpha_monotonicity_spot(verify_case):
    verify_case("divergences", "alpha_monotonicity")


def test_classical_skew_symmetry_identity(verify_case):
    verify_case("divergences", "classical_skew_identity")
