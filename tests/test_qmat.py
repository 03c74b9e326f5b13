import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmono import qmat
from resmono import smoothing as sm
from resmono.errors import DimensionMismatch, InvalidRank, NonHermitian


def test_eigh_identity():
    w, u = qmat.eigh(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_eigh_diagonal_descending():
    w, _ = qmat.eigh(np.diag([0.7, 0.2, 0.1]))
    assert np.allclose(w, [0.7, 0.2, 0.1], atol=1e-14)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        qmat.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("mat,t,expected", [
    (np.eye(2), 0.5, np.eye(2)),
    (np.diag([4.0, 1.0]), 0.5, np.diag([2.0, 1.0])),
    (np.diag([0.5, 0.5]), -1.0, np.diag([2.0, 2.0])),
])
def test_mpow_scalar_cases(mat, t, expected):
    assert np.allclose(qmat.mpow(mat, t), expected, atol=1e-12)


def test_mpow_kernel_convention():
    # zero eigenvalues map to zero for negative powers
    m = qmat.mpow(np.diag([0.5, 0.0]), -0.5)
    assert np.allclose(m, np.diag([math.sqrt(2.0), 0.0]), atol=1e-12)


def _rank_deficient(d=4, rank=2, seed=5):
    """A PSD matrix with known spectrum, its support basis and its kernel basis."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    w = np.zeros(d)
    w[:rank] = rng.uniform(0.1, 0.6, rank)
    return (u * w) @ u.conj().T, w[:rank], u[:, :rank], u[:, rank:]


# Tr[m^alpha] and its gradient are evaluated by the smoothing objective alone;
# with sigma = 1 its Q(c) is Tr[c^alpha] and its gradient alpha c^(alpha-1) on supp(c)

@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.5, 2.0])
def test_trace_power_rank_deficient(alpha):
    m, w, _, kernel = _rank_deficient()
    obj = sm._SandwichedObjective(np.eye(4), alpha)
    expected = float((w ** alpha).sum())
    assert abs(obj.q(m[None])[0] - expected) <= 1e-12
    val, grad = obj.qg(m[None])
    assert abs(val[0] - expected) <= 1e-12
    assert np.max(np.abs(grad[0] @ kernel)) <= 1e-10


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.5, 2.0])
def test_trace_power_grad_matches_central_difference(alpha):
    m, _, support, _ = _rank_deficient()
    obj = sm._SandwichedObjective(np.eye(4), alpha)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = support @ (x + x.conj().T) @ support.conj().T    # Hermitian, on supp(m)
    t = 1e-5
    fd = (obj.q((m + t * h)[None])[0] - obj.q((m - t * h)[None])[0]) / (2.0 * t)
    _, grad = obj.qg(m[None])
    assert abs(fd - float(np.trace(grad[0] @ h).real)) <= 1e-7


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_trace_power_on_a_stack_matches_each_matrix(alpha):
    # spectra of very different scale: the noise threshold is taken per matrix
    m, _, _, _ = _rank_deficient()
    stack = np.array([m, 1e-9 * m, qmat.random_state(4, 4, seed=3).data])
    obj = sm._SandwichedObjective(qmat.random_state(4, 4, seed=4).data, alpha)
    w = qmat.spectral_clip(np.linalg.eigvalsh(qmat.hermitize(obj.a @ stack @ obj.a)))
    vals = obj.q(stack)
    assert np.array_equal(vals, (w ** alpha).sum(axis=-1))
    gvals, grads = obj.qg(stack)
    for i in range(len(stack)):
        val, grad = obj.qg(stack[i:i + 1])
        assert vals[i] == obj.q(stack[i:i + 1])[0]
        assert gvals[i] == val[0]
        assert np.max(np.abs(grads[i] - grad[0])) <= 1e-12 * np.max(np.abs(grad[0]))
    assert np.array_equal(qmat.spectral_clip(np.array([[1.0, 1e-15], [1e-9, 1e-24]])),
                          [[1.0, 0.0], [1e-9, 0.0]])


def test_fidelity_normalized_self():
    rho = qmat.random_state(3, 3, seed=0).data
    assert abs(qmat.fidelity(rho, rho) - 1.0) <= 1e-12


def test_fidelity_pure_vs_maximally_mixed():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert abs(qmat.fidelity(rho, np.eye(2) / 2) - 0.5) <= 1e-12


def test_fidelity_subnormalized_tilted_pure():
    # F(|phi>, |0><0| in d=3) = 1 - eps^2 for phi = (sqrt(1-eps^2), 0, eps)
    eps = 0.1
    phi = np.array([math.sqrt(1 - eps ** 2), 0.0, eps])
    rho3 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert abs(qmat.fidelity(np.outer(phi, phi), rho3) - (1 - eps ** 2)) <= 1e-12


def test_fidelity_qubit_closed_form_oracle():
    # F = Tr(rho sigma) + 2 sqrt(det rho det sigma) for qubits
    for seed in range(8):
        a = qmat.random_state(2, 2, seed=seed).data
        b = qmat.random_state(2, 2, seed=100 + seed).data
        oracle = float(np.trace(a @ b).real) + 2.0 * math.sqrt(
            max(0.0, np.linalg.det(a).real * np.linalg.det(b).real))
        assert abs(qmat.fidelity(a, b) - oracle) <= 1e-10


def test_generalized_fidelity_scaled_self():
    # sqrt(F)((1-e^2) rho, rho) = sqrt(1-e^2) for normalized rho, so P = e
    rho = qmat.random_state(3, 1, seed=5).data
    eps = 0.3
    assert abs(qmat.purified_distance((1 - eps ** 2) * rho, rho) - eps) <= 1e-10


def test_distances_identical_and_orthogonal():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert qmat.purified_distance(a, a) <= 1e-8
    assert qmat.gen_trace_distance(a, a) == 0.0
    assert abs(qmat.purified_distance(a, b) - 1.0) <= 1e-12
    assert abs(qmat.gen_trace_distance(a, b) - 1.0) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=2, max_value=4))
def test_fidelity_symmetric_hypothesis(seed, d):
    a = qmat.random_state(d, d, seed=seed).data
    b = qmat.random_state(d, max(1, d - 1), seed=seed + 1).data
    f = qmat.fidelity(a, b)
    assert 0.0 <= f <= 1.0
    assert abs(f - qmat.fidelity(b, a)) <= 1e-12


def test_tensor_and_partial_trace():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.5, 0.5]).astype(complex)
    t = qmat.tensor(a, b)
    assert np.allclose(np.diag(t).real, [0.5, 0.5, 0.0, 0.0])
    assert np.max(np.abs(qmat.partial_trace(t, [2, 2], [0]) - a)) <= 1e-12
    assert np.max(np.abs(qmat.partial_trace(t, [2, 2], [1]) - b)) <= 1e-12


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    red = qmat.partial_trace(np.outer(bell, bell.conj()), [2, 2], [0])
    assert np.allclose(red, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        qmat.partial_trace(np.eye(4) / 4, [3, 2], [0])


def test_apply_channel_identity_and_dephasing():
    rho = qmat.random_state(2, 2, seed=3).data
    ident = qmat.KrausChannel([np.eye(2, dtype=complex)])
    assert np.max(np.abs(qmat.apply_channel(rho, ident) - rho)) <= 1e-14
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = qmat.apply_channel(plus, qmat.dephasing_channel(2))
    assert np.allclose(out, np.eye(2) / 2, atol=1e-14)


def test_channel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        qmat.apply_channel(np.eye(3) / 3, qmat.dephasing_channel(2))


def test_random_state_determinism_and_purity():
    a = qmat.random_state(2, 1, seed=0)
    b = qmat.random_state(2, 1, seed=0)
    assert np.array_equal(a.data, b.data)
    assert np.max(np.abs(a.data @ a.data - a.data)) <= 1e-12   # rank-1 idempotent
    with pytest.raises(InvalidRank):
        qmat.random_state(2, 3, seed=0)


def test_random_channel_preserves_states():
    rho = qmat.random_state(3, 3, seed=9)
    ch = qmat.random_channel(3, 4, 2, seed=9)
    out = qmat.apply_channel(rho.data, ch)
    w = np.linalg.eigvalsh(out)
    assert w[0] >= -1e-10
    assert abs(np.trace(out).real - 1.0) <= 1e-10


def test_mutual_information_cases():
    a = qmat.random_state(2, 2, seed=1).data
    b = qmat.random_state(2, 2, seed=2).data
    assert abs(qmat.mutual_information(qmat.tensor(a, b), (2, 2))) <= 1e-10

    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    assert abs(qmat.mutual_information(np.outer(bell, bell.conj()), (2, 2)) - 2.0) <= 1e-10

    cc = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert abs(qmat.mutual_information(cc, (2, 2)) - 1.0) <= 1e-10


def test_matrix_json_roundtrip():
    rho = qmat.random_state(3, 3, seed=4).data
    back = qmat.matrix_from_json(qmat.matrix_to_json(rho))
    assert np.max(np.abs(back - rho)) <= 1e-15


def test_density_operator_validation():
    with pytest.raises(NonHermitian):
        qmat.DensityOperator(np.array([[0.5, 0.1], [0.3, 0.5]]))
    with pytest.raises(ValueError):
        qmat.DensityOperator(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        qmat.DensityOperator(np.diag([0.9, 0.3]))   # trace > 1
    sub = qmat.DensityOperator(np.diag([0.4, 0.3]))  # subnormalized is fine
    assert abs(sub.trace - 0.7) <= 1e-14


@pytest.mark.parametrize("m", [
    [[0.0, math.inf], [math.inf, 0.5]],
    [[0.5, math.nan], [math.nan, 0.5]],
    [[math.nan, 0.0], [0.0, 0.5]],
], ids=["inf_off_diagonal", "nan_off_diagonal", "nan_diagonal"])
def test_non_finite_matrices_rejected(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # rejected before any arithmetic warns
        with pytest.raises(ValueError, match="NaN or infinite"):
            qmat.DensityOperator(np.array(m))
        with pytest.raises(ValueError, match="NaN or infinite"):
            qmat._check_psd(np.array(m, dtype=complex))


@pytest.mark.parametrize("v", [[math.nan, 0.5], [0.5, math.inf], [-math.inf, 0.5]],
                         ids=["nan", "inf", "minus_inf"])
def test_non_finite_distributions_rejected(v):
    # both comparisons of the other checks are False on NaN
    with pytest.raises(ValueError, match="NaN or infinite"):
        qmat.ClassicalDist(np.array(v))


def test_eigh_reconstruction_random(verify_case):
    verify_case("qmat", "eigh_reconstruction")


def test_trace_distance_below_purified_distance(verify_case):
    verify_case("qmat", "distance_inequalities")
