"""The library's numbers against stored values, bit for bit.

Each entry of VALUES calls public entry points of one numeric module on fixed
inputs and seeds and flattens what they return, optimizers included, into a
list of floats. tests/data/golden/values.json holds each list as float.hex
strings, and the test asks for the same strings: a refactor that is meant to
keep the numbers keeps every bit of them. The values are those of one numpy
and LAPACK build; on another the last bits may differ, and the file is then
regenerated there from the parent commit.

After a change that is meant to move a value, regenerate the file with

    PYTHONPATH=src python tests/test_golden_values.py

which prints the largest and the median relative shift of each entry against
the stored file; paste that into CHANGES.md.
"""

import dataclasses
import enum
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

from resmono import catalysis as ct
from resmono import constructions as cs
from resmono import divergences as dv
from resmono import monotones as mn
from resmono import qmat
from resmono import smoothing as sm

PATH = os.path.join(os.path.dirname(__file__), "data", "golden", "values.json")


def _flat(x) -> list:
    """The floats in x, in a fixed order: the fields of a dataclass, the items
    of a sequence, the values of a dict by key, the entries of an array, real
    part before imaginary. Strings, enums and None carry no float."""
    if x is None or isinstance(x, (str, enum.Enum)):
        return []
    if dataclasses.is_dataclass(x):
        return [v for f in dataclasses.fields(x) for v in _flat(getattr(x, f.name))]
    if isinstance(x, dict):
        return [v for k in sorted(x) for v in _flat(x[k])]
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in _flat(item)]
    a = np.asarray(x)
    if a.dtype.kind in "US":
        return []
    if a.dtype.kind == "c":
        return [float(v) for pair in zip(a.real.ravel(), a.imag.ravel()) for v in pair]
    return [float(v) for v in a.ravel()]


def _pure(d, seed):
    return qmat.random_state(d, 1, seed=seed).data


# rho full rank in d = 3; sigma full rank, and SIG_SING of rank 2 whose
# support holds RHO_IN, so that orders above 1 stay finite on it
RHO = qmat.random_state(3, 3, seed=101).data
SIG = qmat.random_state(3, 3, seed=102).data
SIG_SING = 0.5 * _pure(3, 103) + 0.5 * _pure(3, 104)
RHO_IN = 0.3 * _pure(3, 103) + 0.7 * _pure(3, 104)
PAIRS = [(RHO, SIG), (RHO_IN, SIG_SING), (RHO, SIG_SING)]
P, Q = np.array([2 / 3, 1 / 12, 1 / 4]), np.array([0.7, 0.2, 0.1])
Q_ZERO = np.array([0.5, 0.5, 0.0])
Q_FRAC = [Fraction(7, 10), Fraction(2, 10), Fraction(1, 10)]


def _qmat_mpow():
    return [qmat.mpow(m, t) for m in (RHO, SIG_SING) for t in (-1.0, -0.5, 0.0, 0.25, 0.5, 2.0)]


def _qmat_plog2m():
    return [qmat.plog2m(m) for m in (RHO, SIG_SING, RHO_IN)]


def _qmat_fidelities():
    out = []
    for r, s in PAIRS:
        out += [qmat.root_fidelity(r, s), qmat.fidelity(r, s), qmat.purified_distance(r, s),
                qmat.gen_trace_distance(r, s), qmat.gen_trace_distance(r, 0.8 * s)]
    return out + [qmat.sqrtm_psd(RHO), qmat.vn_entropy(RHO), qmat.vn_entropy(RHO_IN),
                  qmat.bures_geodesic(RHO, SIG, 0.3)]


def _qmat_channels():
    tau = qmat.random_state(6, 6, seed=105).data
    ch = qmat.random_channel(3, 2, 2, seed=106)
    return [qmat.partial_trace(tau, [2, 3], [0]), qmat.partial_trace(tau, [2, 3], [1]),
            qmat.apply_channel(RHO, ch), qmat.random_classical(4, seed=107)]


def _divergences_quantum():
    out = []
    for r, s in PAIRS:
        out += [dv.sandwiched(r, s, a) for a in (0.5, 0.75, 0.99, 1.0, 1.5, 2.0, 5.0, math.inf)]
        out += [dv.petz(r, s, a) for a in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)]
        out += [dv.umegaki(r, s), dv.dmax(r, s), dv.q_alpha(r, s, 0.5), dv.q_alpha(r, s, 0.75)]
    return out + [dv.rel_entropy_variance(RHO, SIG), dv.rel_entropy_variance(RHO_IN, SIG_SING)]


def _divergences_classical():
    out = []
    for q in (Q, Q_ZERO):
        out += [dv.classical_renyi(P, q, a)
                for a in (0.0, 0.5, 0.75, 1.0, 2.0, 10.0, 2000.0, math.inf)]
        out.append(dv.classical_kl(P[::-1], q))
    rows_p = np.array([P, P[::-1], [1.0, 0.0, 0.0], [1e-300, 0.5, 0.5]])
    out += [dv.classical_renyi_rows(rows_p, Q, a) for a in (0.5, 1.0, 3.0, 2000.0, math.inf)]
    return out + [dv.classical_rel_entropy_variance(P, Q), dv.shannon_entropy(P)]


def _smoothing_balls():
    out = []
    for ball in sm.Ball:
        for alpha in (0.75, 2.0):
            for r, s in PAIRS[:2]:
                spec = sm.SmoothingSpec(epsilon=0.1, alpha=alpha, ball=ball, restarts=2,
                                        max_iters=60, seed=3)
                out.append(sm.smoothed_sandwiched(r, s, spec))
    # the closed form at alpha = 1/2
    spec = sm.SmoothingSpec(epsilon=0.1, alpha=0.5, ball=sm.Ball.NORMALIZED_PURIFIED)
    return out + [sm.smoothed_sandwiched(RHO, SIG, spec)]


def _smoothing_dp_check():
    out = []
    for i, (d, alpha, eps) in enumerate([(2, 0.5, 0.05), (3, 0.7, 0.2), (2, 0.9, 0.2),
                                         (3, 0.5, 0.2)]):
        rho = qmat.random_state(d, d, seed=110 + i).data
        sig = qmat.random_state(d, d, seed=120 + i).data
        ch = qmat.random_channel(d, d, 2, seed=130 + i)
        out.append(sm.dp_check(rho, sig, ch, alpha, eps, restarts=2, max_iters=120, seed=i))
    return out


def _smoothing_appendix_b():
    return sm.appendix_b_suite()


def _monotones_coherence():
    rank2 = qmat.random_state(3, 2, seed=141).data
    return [mn.coherence_monotone(r, a, restarts=4, seed=1)
            for r in (RHO, rank2) for a in (0.5, 0.75, 2.0, math.inf)]


def _monotones_fidelity_of_coherence():
    out = []
    for r in (RHO, 0.9 * cs.maximally_coherent_state(3) + 0.1 * np.eye(3) / 3):
        out += [mn.fidelity_coherence_primal(r, restarts=4, seed=2),
                mn.fidelity_coherence_dual(r, restarts=4, seed=2)]
    return out


def _monotones_closed_forms():
    gibbs = np.array([0.6, 0.3, 0.1])
    gibbs_m = qmat.random_state(3, 3, seed=151).data
    pure = _pure(4, 152)
    ent = mn.PureBipartiteEntanglement(2, 2)
    return [mn.monotone_alpha(P, mn.Athermality(gibbs), a) for a in (0.5, 2.0, math.inf)] + [
        mn.monotone_alpha(RHO, mn.Athermality(gibbs_m), 0.75),
        mn.monotone_alpha(pure, ent, 0.5), mn.monotone_alpha(pure, ent, 1.0),
        mn.schmidt_vector(pure, 2, 2), mn.relative_entropy_coherence(RHO),
        mn.generalized_robustness(RHO, mn.Coherence()),
        mn.generalized_robustness(P, mn.Athermality(gibbs)),
        mn.multiplicativity_check(qmat.random_state(2, 2, seed=153).data,
                                  qmat.random_state(2, 2, seed=154).data, restarts=3)]


def _constructions_pairs():
    return [cs.build_athermal_qutrit_pair(10 ** 4, 0.1), cs.build_entanglement_pair(3, 2 / 3),
            cs.build_coherence_pair(4, 0.5, 1.0 - 1.0 / math.log2(3.0)),
            cs.embedding_channel(P, Q_FRAC),
            cs.thermomajorizes(P, [0.5, 0.3, 0.2], Q)]


def _constructions_bloch():
    return cs.bloch_level_set(np.diag([0.999, 0.001]).astype(complex), 2.0, theta_points=72)


def _constructions_regions():
    return cs.classify_simplex_regions(P, Q, 8, alpha_grid=cs.default_alpha_grid(8),
                                       gamma_rational=Q_FRAC)


def _catalysis_exponents():
    pairs = [(np.array([0.6, 0.4]), np.array([0.5, 0.5]), np.array([0.55, 0.45]),
              np.array([0.5, 0.5])),
             (0.8 * _pure(2, 161) + 0.1 * np.eye(2), np.eye(2) / 2,
              0.4 * _pure(2, 162) + 0.3 * np.eye(2), np.eye(2) / 2)]
    # a zero entry in p1 (its grid winner sits at alpha = 1/2), d = 4, and a
    # grid winner at alpha = 3.69, beyond 1/2 + dv.POW_SAFE_RADIUS
    pairs += [tuple(np.array(v) for v in p) for p in (
        ([0.7, 0.3, 0.0], [0.4, 0.3, 0.3], [0.5, 0.3, 0.2], [0.4, 0.3, 0.3]),
        ([0.4, 0.3, 0.2, 0.1], [0.25] * 4, [0.3, 0.3, 0.2, 0.2], [0.25] * 4),
        ([0.59, 0.02, 0.39], [0.66, 0.26, 0.08], [0.63, 0.26, 0.11], [0.65, 0.28, 0.07]))]
    return [(ct.error_exponent_first_order(*p), ct.error_exponent_optimized(*p)) for p in pairs]


def _catalysis_duan():
    return [ct.duan_catalyst([0.8, 0.2], [0.6, 0.4], [0.5, 0.5], [0.5, 0.5], n=3),
            ct.duan_catalyst([0.7, 0.2, 0.1], [0.5, 0.3, 0.2], [0.4, 0.4, 0.2],
                             [0.3, 0.4, 0.3], n=2)]


def _schmidt_state(lam):
    """The pure bipartite state with Schmidt coefficients lam in the product basis."""
    v = np.diag(np.sqrt(lam)).reshape(-1).astype(complex)
    return np.outer(v, v.conj())


def _catalysis_bounds():
    ath = cs.build_athermal_qutrit_pair(10 ** 4, 0.1)
    th = mn.Athermality(ath.diagnostics["gibbs"])
    ent = cs.build_entanglement_pair(3, 2 / 3)
    ent_th = mn.PureBipartiteEntanglement(3, 3)
    psi, psi_p = (_schmidt_state(lam.probs) for lam in (ent.rho, ent.rho_prime))
    coh = cs.build_coherence_pair(4, 0.5, 1.0 - 1.0 / math.log2(3.0))
    return [ct.catalyst_q_bound(ath.rho, ath.rho_prime, th, 0.75, 1e-2),
            ct.catalyst_q_bound(psi, psi_p, ent_th, 0.5, 1e-3),
            ct.catalyst_q_bound(coh.rho, coh.rho_prime, mn.Coherence(), 0.5, 1e-2),
            ct.catalyst_fidelity_bound_tight(psi, psi_p, ent_th, 1e-3),
            ct.catalyst_fidelity_bound_tight(coh.rho, coh.rho_prime, mn.Coherence(), 1e-2),
            ct.scaling_curve(ath.rho, ath.rho_prime, th, [1e-1, 1e-2, 1e-3, 1e-4], 0.5)]


VALUES = {
    "qmat.mpow": _qmat_mpow,
    "qmat.plog2m": _qmat_plog2m,
    "qmat.fidelities": _qmat_fidelities,
    "qmat.channels": _qmat_channels,
    "divergences.quantum": _divergences_quantum,
    "divergences.classical": _divergences_classical,
    "smoothing.smoothed_sandwiched": _smoothing_balls,
    "smoothing.dp_check": _smoothing_dp_check,
    "smoothing.appendix_b_suite": _smoothing_appendix_b,
    "monotones.coherence_monotone": _monotones_coherence,
    "monotones.fidelity_of_coherence": _monotones_fidelity_of_coherence,
    "monotones.closed_forms": _monotones_closed_forms,
    "constructions.hard_pairs": _constructions_pairs,
    "constructions.bloch_level_set": _constructions_bloch,
    "constructions.classify_simplex_regions": _constructions_regions,
    "catalysis.error_exponents": _catalysis_exponents,
    "catalysis.duan_catalyst": _catalysis_duan,
    "catalysis.bounds": _catalysis_bounds,
}


def _hex(name) -> list:
    return [float.hex(v) for v in _flat(VALUES[name]())]


@pytest.fixture(scope="module")
def stored():
    with open(PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_match_golden_bits(name, stored):
    got, want = _hex(name), stored[name]
    assert len(got) == len(want), f"{name}: {len(got)} values, {len(want)} stored"
    moved = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not moved, (f"{name}: {len(moved)} of {len(want)} values moved, first at "
                       f"{moved[0]}: {float.fromhex(got[moved[0]])!r} "
                       f"!= {float.fromhex(want[moved[0]])!r}")


def _shift(new: str, old: str) -> float:
    """|new - old| relative to |old| (absolute where old is 0); inf where one
    of them is not finite and they differ."""
    if new == old:
        return 0.0
    a, b = float.fromhex(new), float.fromhex(old)
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / abs(b) if b else abs(a)


if __name__ == "__main__":
    old = {}
    if os.path.exists(PATH):
        with open(PATH) as fh:
            old = json.load(fh)
    new = {name: _hex(name) for name in VALUES}
    for name, vals in new.items():
        if name not in old or len(old[name]) != len(vals):
            print(f"{name}: {len(vals)} values, not comparable with the stored file")
            continue
        shifts = np.array([_shift(a, b) for a, b in zip(vals, old[name])])
        print(f"{name}: {len(vals)} values, {int((shifts > 0).sum())} moved, "
              f"max shift {shifts.max():.3g}, median {np.median(shifts):.3g}")
    with open(PATH, "w") as fh:
        json.dump(new, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, new.values()))} values to {PATH}", file=sys.stderr)
