import math
from fractions import Fraction

import numpy as np
import pytest

from resmono import constructions as cs
from resmono import divergences as dv
from resmono import monotones as mn
from resmono.errors import (DimensionMismatch, InfeasibleRounding, InvalidGibbs,
                            NotRational, SupportViolation)

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
# Bloch sweep
# ---------------------------------------------------------------------------

def test_bloch_sweep_reproduces_published_point():
    grid, rep = cs.bloch_sweep(np.diag([0.999, 0.001]), grid_n=120,
                               d_target=2.0, theta_points=300)
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
        cs.bloch_sweep(np.array([[0.9, 0.1], [0.1, 0.1]]), 50, 2.0)
    with pytest.raises(InvalidGibbs):
        cs.bloch_sweep(np.diag([1.0, 0.0]), 50, 2.0)


# ---------------------------------------------------------------------------
# thermomajorization and regions
# ---------------------------------------------------------------------------

def test_thermomajorizes_reflexive_and_gibbs():
    ok, _ = cs.thermomajorizes(FIG1_P, FIG1_P, FIG1_GAMMA)
    assert ok
    ok, _ = cs.thermomajorizes(FIG1_P, FIG1_GAMMA, FIG1_GAMMA)
    assert ok
    # the Gibbs state thermomajorizes nothing but itself-like states
    ok, _ = cs.thermomajorizes(FIG1_GAMMA, FIG1_P, FIG1_GAMMA)
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
        ok, _ = cs.thermomajorizes(FIG1_P, q, FIG1_GAMMA)
        qhat = cs.embedding_channel(q, FIG1_GAMMA_FRAC).probs
        cum_q = np.cumsum(np.sort(qhat)[::-1])
        assert ok == bool(np.all(cum_p >= cum_q - 1e-12))


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
