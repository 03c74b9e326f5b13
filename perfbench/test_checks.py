"""The checkers reject wrong outputs, so that no check passes vacuously.

    python3 -m pytest perfbench/test_checks.py -q

Each test takes a real output of resmono, confirms that it passes, then feeds
the checker deliberately wrong variants of it.
"""

import csv
import io
import json
import math
import os
import sys

import numpy as np
import pytest

import run  # pins BLAS threads; defines the metric lists

sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import workloads  # noqa: E402
from resmono import monotones, qmat, smoothing  # noqa: E402


def codes(fails):
    return {code for code, _ in fails}


# ---------------------------------------------------------------------------
# smooth_dp
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dp_case():
    rng = np.random.default_rng(7)
    rho, sigma = workloads.ginibre_state(rng, 3), workloads.ginibre_state(rng, 3)
    kraus = workloads.isometry_kraus(rng, 3, 2)
    alpha = 0.7
    out = smoothing.dp_check(rho, sigma, qmat.KrausChannel(kraus), alpha, 0.2,
                             restarts=2, max_iters=120, seed=0)
    return rho, sigma, kraus, alpha, out


def test_dp_passes_real_output(dp_case):
    rho, sigma, kraus, alpha, out = dp_case
    assert checks.check_dp(rho, sigma, kraus, alpha, out.lhs, out.rhs, out.slack) == []


def test_dp_rejects_wrong_outputs(dp_case):
    rho, sigma, kraus, alpha, out = dp_case
    d_in = checks.sandwiched_renyi(rho, sigma, alpha)
    d_out = checks.sandwiched_renyi(checks.apply_kraus(rho, kraus),
                                    checks.apply_kraus(sigma, kraus), alpha)

    def fails(lhs, rhs):
        return codes(checks.check_dp(rho, sigma, kraus, alpha, lhs, rhs, lhs - rhs))

    assert "dp_slack" in fails(out.rhs - 1e-3, out.rhs)
    assert "lhs_floor" in fails(d_in - 1e-3, min(out.rhs, d_in - 1e-3))
    assert "rhs_floor" in fails(out.lhs, d_out - 1e-3)
    assert fails(math.inf, out.rhs) == {"finite"}


def test_reference_divergence_matches_a_closed_form():
    # commuting states: the sandwiched divergence is the classical Renyi divergence
    p, q = np.array([0.6, 0.3, 0.1]), np.array([0.2, 0.5, 0.3])
    got = checks.sandwiched_renyi(np.diag(p).astype(complex), np.diag(q).astype(complex), 0.7)
    assert abs(got - checks.classical_renyi(p, q, 0.7)) < 1e-12


# ---------------------------------------------------------------------------
# coherence_certify
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coherence_case():
    rho = workloads.ginibre_state(np.random.default_rng(11), 3)
    p = monotones.fidelity_coherence_primal(rho, restarts=6, seed=1)
    dl = monotones.fidelity_coherence_dual(rho, restarts=6, seed=1)
    return rho, p, dl


def test_coherence_passes_real_output(coherence_case):
    rho, p, dl = coherence_case
    assert checks.check_coherence(rho, p.value, p.argmax, dl.value, dl.argmin_r, False) == []


def test_coherence_rejects_wrong_outputs(coherence_case):
    rho, p, dl = coherence_case

    def fails(primal=p.value, argmax=p.argmax, dual=dl.value, r=dl.argmin_r, phi=False, state=rho):
        return codes(checks.check_coherence(state, primal, argmax, dual, r, phi))

    assert "weak_duality" in fails(dual=p.value - 1e-3)
    assert "duality_gap" in fails(dual=p.value + 1e-3)
    assert "primal_recompute" in fails(primal=p.value + 1e-3, dual=p.value + 1e-3)
    q = np.array(p.argmax) * np.array([1.2, 1.0, 0.8])
    assert "primal_recompute" in fails(argmax=q / q.sum())
    assert "argmax" in fails(argmax=np.array(p.argmax) * 1.01)
    r = np.array(dl.argmin_r)
    assert "dual_recompute" in fails(r=r + 1e-3 * np.eye(3))
    assert "dual_feasible" in fails(r=r - 2.0 * np.eye(3))
    phi = workloads.maximally_coherent(3)
    assert "phi_value" in fails(state=phi, primal=1 / 3 + 1e-3, argmax=np.full(3, 1 / 3),
                                dual=1 / 3 + 1e-3, r=3.0 * phi + 1e-3 * np.eye(3), phi=True)


# ---------------------------------------------------------------------------
# cli_readme
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_outputs():
    return {ex.split()[0]: (ex.split(), *workloads.run_cli(ex.split()))
            for ex in workloads.README_EXAMPLES}


def to_csv(meta, rows):
    buf = io.StringIO()
    for k, v in meta.items():
        buf.write(f"# {k}={v}\n")
    w = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


def to_json(meta, rows):
    """The shape of emit's --format json output."""
    return json.dumps({"meta": meta, "rows": rows}, indent=2)


def edited(text, edit):
    meta, rows = checks.parse_output(text)
    edit(meta, rows)
    return to_csv(meta, rows)


def shift(row, col, by=1e-3):
    row[col] = repr(float(row[col]) + by)


@pytest.mark.parametrize("cmd", [ex.split()[0] for ex in workloads.README_EXAMPLES])
def test_cli_passes_real_output_in_both_formats(cli_outputs, cmd):
    argv, code, out = cli_outputs[cmd]
    assert checks.check_cli(argv, code, out) == []
    meta, rows = checks.parse_output(out)
    assert checks.check_cli(argv, code, to_json(meta, rows)) == []
    assert checks.check_cli(argv, code, to_csv(meta, rows)) == []


def test_cli_rejects_exit_codes_and_garbage(cli_outputs):
    argv, _, out = cli_outputs["divergence"]
    assert codes(checks.check_cli(argv, 3, out)) == {"exit_code"}
    assert codes(checks.check_cli(argv, 0, "not,a\ncsv,output,at all\n")) == {"parse"}
    assert codes(checks.check_cli(argv, 0, "")) == {"parse"}


WRONG = {
    "divergence": [lambda m, r: shift(r[0], "bits")],
    "monotone": [lambda m, r: shift(r[0], "value_bits")],
    "smooth": [
        lambda m, r: shift(r[2], "value_bits"),
        lambda m, r: shift(next(x for x in r if x["case"] == "petz_normalized_3d"),
                           "value_bits", -1e-3),
        lambda m, r: r.pop(),
    ],
    "regions": [
        lambda m, r: r.pop(),
        lambda m, r: m.update(nesting_violations="1"),
    ],
    # a point well inside the disk: on the rim, r is clipped at 1
    "sweep": [lambda m, r: shift([x for x in r if x["which"] == "level"][len(r) // 2], "x")],
    "pairs": [
        lambda m, r: r[0].update(relent_ordered="False"),
        lambda m, r: r.pop(),
    ],
    "bound": [
        lambda m, r: shift(r[-1], "lower_bits"),
        lambda m, r: r[1].update(upper_bits="0"),
        lambda m, r: m.update(lower_slope="1.001"),
    ],
    "exponent": [lambda m, r: r[0].update(first_order_bits=repr(float(r[0]["first_order_bits"]) * 1.001))],
}


@pytest.mark.parametrize("cmd,k", [(c, k) for c, edits in WRONG.items() for k in range(len(edits))])
def test_cli_rejects_wrong_values(cli_outputs, cmd, k):
    argv, code, out = cli_outputs[cmd]
    assert checks.check_cli(argv, code, edited(out, WRONG[cmd][k])) != []


def test_cli_rejects_a_truncated_csv(cli_outputs):
    argv, code, out = cli_outputs["regions"]
    cut = out[: len(out) // 2]
    assert checks.check_cli(argv, code, cut) != []


def test_catalyst_check_reads_either_output_shape(cli_outputs):
    argv, code, out = cli_outputs["catalyst"]
    payload = json.loads(out)
    payload["D_bits"] = repr(float(payload["bound_bits"]) + 1e-3)
    assert codes(checks.check_cli(argv, code, json.dumps(payload))) == {"catalyst_bound"}
    as_csv = to_csv({"command": "catalyst"}, [{"D_bits": payload["D_bits"],
                                               "bound_bits": payload["bound_bits"]}])
    assert codes(checks.check_cli(argv, code, as_csv)) == {"catalyst_bound"}


# ---------------------------------------------------------------------------
# the benchmark's declared metrics match what run.py prints
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
