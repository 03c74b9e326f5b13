import math
import warnings

import numpy as np
import pytest

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


def test_alpha_monotonicity_spot():
    a = qmat.random_state(3, 3, seed=20).data
    b = qmat.random_state(3, 3, seed=21).data
    grid = [0.5, 0.6, 0.8, 1.0, 1.5, 2.0, 3.0]
    vals = [dv.sandwiched(a, b, al) for al in grid]
    assert all(vals[i + 1] >= vals[i] - 1e-9 for i in range(len(vals) - 1))


def test_classical_skew_symmetry_identity():
    # D_alpha(g||p) = (alpha/(1-alpha)) D_(1-alpha)(p||g) for alpha in (1/2, 1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.random(3) + 0.01
        p /= p.sum()
        g = rng.random(3) + 0.01
        g /= g.sum()
        alpha = 0.5 + 0.49 * rng.random()
        lhs = dv.classical_renyi(g, p, alpha)
        rhs = (alpha / (1.0 - alpha)) * dv.classical_renyi(p, g, 1.0 - alpha)
        assert abs(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("alpha", [1075.0, 1e5, 1e300, -1e3, -1e300])
def test_classical_renyi_extreme_orders(alpha):
    # p^alpha q^(1-alpha) under- or overflows here; the sum is taken in the log domain
    import mpmath
    mpmath.mp.dps = 60
    p, q = [0.5, 0.3, 0.2], [0.3, 0.6, 0.1]
    a = mpmath.mpf(alpha)
    s = sum(mpmath.mpf(pi) ** a * mpmath.mpf(qi) ** (1 - a) for pi, qi in zip(p, q))
    expected = float(mpmath.log(s, 2) / (a - 1))
    got = dv.classical_renyi(np.array(p), np.array(q), alpha)
    assert math.isfinite(got)
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


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
