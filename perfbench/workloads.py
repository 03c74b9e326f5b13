"""The benchmark workloads: rounds of ops with inputs made from a seed, and warm-ups.

Every round of a workload holds the same op mix; round k draws fresh random
inputs from (seed, k), so a run covers many distinct instances while its
rounds stay short. Each op is one call into resmono's public API, and its
check runs after the timed window. Inputs are generated here with numpy's
seeded generator, not with resmono's own samplers, so the program only ever
sees finished inputs.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from resmono import cli, monotones, qmat, smoothing


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    # failure codes that a known program fault produces on this input every time
    known_faults: frozenset = field(default_factory=frozenset)


@dataclass
class Workload:
    make_round: Callable[[int], list]   # round k -> its ops
    warmups: list      # one op of each kind, on inputs that do not depend on the seed


def ginibre_state(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return (m + m.conj().T) / (2.0 * np.trace(m).real)


def isometry_kraus(rng, d, n_kraus):
    """Kraus operators of a random channel: blocks of a random isometry C^d -> C^(d n)."""
    g = rng.standard_normal((d * n_kraus, d)) + 1j * rng.standard_normal((d * n_kraus, d))
    q, _ = np.linalg.qr(g)
    return [q[i * d:(i + 1) * d, :] for i in range(n_kraus)]


def maximally_coherent(d):
    v = np.full(d, 1.0 / math.sqrt(d), dtype=complex)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# smooth_dp: one smoothing.dp_check per op, at the criterion-05 budget
# ---------------------------------------------------------------------------

DP_DIMS = (2, 3, 4, 6)
DP_ALPHAS = (0.5, 0.7, 0.9)
DP_EPSILONS = (0.05, 0.2)
DP_RESTARTS = 2
DP_MAX_ITERS = 120


def _dp_op(rng, d, alpha, eps, program_seed):
    rho, sigma = ginibre_state(rng, d), ginibre_state(rng, d)
    kraus = isometry_kraus(rng, d, 2)
    channel = qmat.KrausChannel(kraus)

    def call():
        return smoothing.dp_check(rho, sigma, channel, alpha, eps, restarts=DP_RESTARTS,
                                  max_iters=DP_MAX_ITERS, seed=program_seed)

    def check(out):
        return checks.check_dp(rho, sigma, kraus, alpha, out.lhs, out.rhs, out.slack)

    return Op(f"d={d} alpha={alpha} eps={eps}", call, check)


def smooth_dp(seed):
    # 12 ops a round: every (d, alpha), with eps alternating so that each d
    # and each alpha meets both radii
    grid = [(d, a, DP_EPSILONS[(i + j) % 2])
            for i, d in enumerate(DP_DIMS) for j, a in enumerate(DP_ALPHAS)]

    def make_round(k):
        rng = np.random.default_rng([seed, 1, k])
        return [_dp_op(rng, d, a, e, program_seed=(seed * 1009 + k) * 100 + i)
                for i, (d, a, e) in enumerate(grid)]

    warm = [_dp_op(np.random.default_rng(0), 2, 0.7, 0.2, program_seed=0)]
    return Workload(make_round, warm)


# ---------------------------------------------------------------------------
# coherence_certify: fidelity-of-coherence primal, then dual, per op
# ---------------------------------------------------------------------------

# random states per dimension in a round: more of the cheap small ones, so
# that the median op falls inside the dense d = 4 cluster of op times rather
# than in the sparse gap above it, where it moved with every seed
COH_RANDOM_COUNTS = {2: 6, 3: 6, 4: 6, 5: 4, 6: 4}
COH_PHI_DIMS = (2, 3, 4, 5, 6)
COH_RESTARTS = 6


def _coherence_op(rho, program_seed, is_phi):
    def call():
        p = monotones.fidelity_coherence_primal(rho, restarts=COH_RESTARTS, seed=program_seed)
        dl = monotones.fidelity_coherence_dual(rho, restarts=COH_RESTARTS, seed=program_seed)
        return p, dl

    def check(out):
        p, dl = out
        return checks.check_coherence(rho, p.value, p.argmax, dl.value, dl.argmin_r, is_phi)

    d = rho.shape[0]
    if is_phi:
        # the dual's near-singular R rounds its value below the exact primal 1/d
        return Op(f"phi d={d}", call, check,
                  known_faults=frozenset({"weak_duality"}))
    return Op(f"random d={d}", call, check)


def coherence_certify(seed):
    def make_round(k):
        rng = np.random.default_rng([seed, 2, k])
        ops = [_coherence_op(ginibre_state(rng, d), (seed * 1009 + k) * 100 + 10 * d + j, False)
               for d, n in COH_RANDOM_COUNTS.items() for j in range(n)]
        # maximally coherent inputs and their program seed do not depend on --seed
        return ops + [_coherence_op(maximally_coherent(d), 0, True) for d in COH_PHI_DIMS]

    warm = [_coherence_op(ginibre_state(np.random.default_rng(0), 2), 0, False)]
    return Workload(make_round, warm)


# ---------------------------------------------------------------------------
# cli_readme: every README example except verify, through resmono.cli.main
# ---------------------------------------------------------------------------

README_EXAMPLES = [
    "divergence --kind sandwiched --alpha 0.75 --p 2/3,1/12,1/4 --q 7/10,2/10,1/10",
    "monotone --theory coherence --alpha 0.5 --p 0.5,0.3,0.2",
    "smooth --appendix-b",
    "regions --p 2/3,1/12,3/12 --gamma 7/10,2/10,1/10 --grid 200",
    "sweep --gamma 0.999,0.001 --level 2.0 --grid 400",
    "pairs --which all",
    "bound --alpha 0.5 --eps-list 1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
    "exponent --p1 0.6,0.4 --q1 0.5,0.5 --p2 0.55,0.45 --q2 0.5,0.5 --optimized",
    "catalyst --rho 0.8,0.2 --rho-prime 0.6,0.4 --eta 0.5,0.5 --eta-prime 0.5,0.5 --n 3",
]

# reduced sizes of the slow examples; the others warm up at their README sizes
WARMUP_OVERRIDES = {
    "smooth": " --restarts 1 --iters 5",
    "regions": " --grid 20",
    "sweep": " --grid 20 --theta-points 36",
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


def _cli_op(example):
    argv = example.split()

    def check(out):
        return checks.check_cli(argv, *out)

    return Op(example, lambda: run_cli(argv), check)


def cli_readme(seed):
    # the examples are fixed; the seed only orders them, afresh in every round
    def make_round(k):
        order = np.random.default_rng([seed, 3, k]).permutation(len(README_EXAMPLES))
        return [_cli_op(README_EXAMPLES[i]) for i in order]

    warm = [_cli_op(ex + WARMUP_OVERRIDES.get(ex.split()[0], "")) for ex in README_EXAMPLES]
    return Workload(make_round, warm)


WORKLOADS = {
    "smooth_dp": smooth_dp,
    "coherence_certify": coherence_certify,
    "cli_readme": cli_readme,
}
