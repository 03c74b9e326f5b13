import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import resmono
from resmono import cli, qmat
from resmono import constructions as cs
from resmono import divergences as dv
from resmono.errors import SupportViolation


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_divergence_classical_rational_inputs():
    code, out = run_cli(["divergence", "--kind", "sandwiched", "--alpha", "1",
                         "--p", "2/3,1/12,1/4", "--q", "7/10,2/10,1/10"])
    assert code == 0
    row = out.strip().splitlines()[-1].split(",")
    p = [2 / 3, 1 / 12, 1 / 4]
    g = [0.7, 0.2, 0.1]
    expected = sum(pi * math.log2(pi / gi) for pi, gi in zip(p, g))
    assert abs(float(row[2]) - expected) <= 1e-10


@pytest.mark.parametrize("kind, p, q", [
    ("dmax", "0.5,0.5", "1e-14,1"),
    ("dmax", "2/3,1/12,1/4", "7/10,2/10,1/10"),
    ("umegaki", "0.5,0.5", "1e-14,1"),
    ("umegaki", "2/3,1/12,1/4", "7/10,2/10,1/10"),
])
def test_divergence_vectors_print_the_library_value(kind, p, q):
    # vectors reach divergences as they are, which takes the classical path
    code, out = run_cli(["divergence", "--kind", kind, "--p", p, "--q", q, "--format", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    vec = [np.array([float(Fraction(x)) for x in v.split(",")]) for v in (p, q)]
    expected = getattr(dv, kind)(*vec)
    assert math.isfinite(expected) and row["infinite"] is False
    assert row["bits"] == cli._fmt(expected)


def test_divergence_matrix_files(tmp_path):
    rho = qmat.random_state(2, 2, seed=0).data
    sig = qmat.random_state(2, 2, seed=1).data
    pr = tmp_path / "rho.json"
    ps = tmp_path / "sigma.json"
    pr.write_text(qmat.matrix_to_json(rho))
    ps.write_text(qmat.matrix_to_json(sig))
    code, out = run_cli(["divergence", "--kind", "dmax",
                         "--rho", str(pr), "--sigma", str(ps)])
    assert code == 0
    assert "dmax" in out


def test_monotone_coherence():
    for alpha, label in (("1", "exact"), ("0.5", "heuristic"), ("inf", "certified")):
        code, out = run_cli(["monotone", "--theory", "coherence", "--alpha", alpha,
                             "--p", "0.5,0.3,0.2"])
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert abs(float(row["value_bits"])) <= 1e-8
        assert not row["value_bits"].startswith("-0")
        assert row["certified"] == label


def test_smooth_appendix_b_fast():
    code, out = run_cli(["smooth", "--appendix-b", "--restarts", "2",
                         "--iters", "60"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0].startswith("case,")
    assert len(lines) == 8


def test_regions_small_and_deterministic():
    argv = ["regions", "--p", "2/3,1/12,3/12", "--gamma", "7/10,2/10,1/10",
            "--grid", "24"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "# nesting_violations=0" in out1
    assert "# oracle_disagreements=0" in out1


def test_regions_where_powers_overflow():
    # at alpha = 40, gamma_2^(1 - alpha) overflows: the grid points are summed
    # in the log domain, so the point equal to p reads D = 0 against p
    argv = ["regions", "--p=0.0,1.0,0.0", "--gamma=0.5,1e-08,0.49999998999999995",
            "--grid=1", "--alpha-points=2"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, out, err = run_cli_err(argv)
    assert code == 0, err
    assert "# nesting_violations=0" in out
    assert "0,1,0,FO,26.5754247591," in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_regions_gamma_entry_below_overlap_tolerance():
    # gamma_2 = 1e-13 <= OVERLAP_TOL: the grid point equal to p puts 0 there,
    # which violates no support condition, so it is CO as well as FO
    argv = ["regions", "--p", "0.5,0,0.5", "--gamma", "0.5,1e-13,0.4999999999999",
            "--grid", "4", "--alpha-points", "4"]
    code, out, err = run_cli_err(argv)
    assert code == 0, err
    assert "# nesting_violations=0" in out
    assert "0.5,0,0.5,FO," in out


def test_sweep_outputs_theta_row():
    code, out = run_cli(["sweep", "--gamma", "0.999,0.001", "--level", "2.0",
                         "--grid", "60", "--theta-points", "120"])
    assert code == 0
    meta = dict(l[2:].split("=", 1) for l in out.splitlines() if l.startswith("# "))
    assert abs(float(meta["theta_bloch"]) - math.pi / 3.38) <= 0.02


@pytest.mark.parametrize("gamma, level", [("0.999,0.001", "2.0"), ("0.7,0.3", "1.7"),
                                          ("0.9,0.1", "1.5")])
def test_sweep_rows_give_their_ray_angle(gamma, level):
    # every row, max_F included, gives the angle of the ray from (0, g0 - g1)
    # through its own (x, z); at g0 = 0.7, level 1.7 the maximum is the pure endpoint
    code, out = run_cli(["sweep", "--gamma", gamma, "--level", level, "--grid", "20",
                         "--theta-points", "36"])
    assert code == 0
    g0, g1 = (float(v) for v in gamma.split(","))
    rows = [l.split(",") for l in out.splitlines() if l.startswith(("max_F,", "min_F,", "level,"))]
    assert [r[0] for r in rows[:2]] == ["max_F", "min_F"] and len(rows) == 38
    for row in rows:
        theta, x, z = (float(v) for v in row[1:4])
        assert abs(theta - math.atan2(x, z - (g0 - g1))) <= 1e-9


def test_pairs_json_format():
    code, out = run_cli(["pairs", "--which", "entanglement", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["pair"] == "entanglement"
    assert row["relent_ordered"] in (True, "True")


def test_bound_curve_csv():
    code, out = run_cli(["bound", "--alpha", "0.5",
                         "--eps-list", "1e-2,1e-3,1e-4"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "eps,lower_bits,upper_bits,n_used,gamma_used"
    vals = [list(map(float, l.split(","))) for l in lines[1:]]
    assert all(v[1] <= v[2] + 1e-9 for v in vals)
    # slope metadata present
    assert any(l.startswith("# lower_slope=1") for l in out.splitlines())


def test_bound_curve_json():
    code, out = run_cli(["bound", "--alpha", "0.5", "--eps-list", "1e-2,1e-3",
                         "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["eps"] for r in rows] == ["0.01", "0.001"]
    assert all(isinstance(r["n_used"], int) for r in rows)


def test_exponent_subcommand():
    code, out = run_cli(["exponent", "--p1", "0.6,0.4", "--q1", "0.5,0.5",
                         "--p2", "0.55,0.45", "--q2", "0.5,0.5", "--optimized"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    first, opt = (float(x) for x in lines[1].split(",")[:2])
    assert opt >= first - 1e-6


CATALYST_ARGV = ["catalyst", "--rho", "0.8,0.2", "--rho-prime", "0.6,0.4",
                 "--eta", "0.5,0.5", "--eta-prime", "0.5,0.5", "--n", "2"]


def test_catalyst_subcommand_json():
    code, out = run_cli(CATALYST_ARGV + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["n"] == 2
    assert float(row["D_bits"]) <= float(row["bound_bits"])
    assert payload["meta"]["command"] == "catalyst"


def test_catalyst_subcommand_csv():
    code, out = run_cli(CATALYST_ARGV)
    assert code == 0
    meta = dict(l[2:].split("=", 1) for l in out.splitlines() if l.startswith("# "))
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "n,D_bits,bound_bits,P_tau,xi_eps0,marginal_dev"
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["n"] == "2"
    assert float(row["D_bits"]) <= float(row["bound_bits"])
    assert "," not in meta["block_dims"]
    assert len(meta["block_dims"].split("|")) == 2


def test_verify_fast_suite_exit_zero():
    code, out = run_cli(["verify", "--suite", "qmat,divergences", "--seed", "0"])
    assert code == 0
    assert "PASS qmat.eigh_reconstruction" in out
    assert "FAIL" not in out


def test_verify_takes_no_output_options(tmp_path):
    out = tmp_path / "f.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "qmat", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


# runs that succeed as they stand, so that only an added flag can make them exit 2
QUICK_ARGV = {
    "divergence": ["divergence", "--p", "0.5,0.5", "--q", "0.3,0.7"],
    "smooth": ["smooth", "--appendix-b", "--restarts", "1", "--iters", "5"],
    "regions": ["regions", "--p", "2/3,1/12,3/12", "--gamma", "7/10,2/10,1/10", "--grid", "3",
                "--alpha-points", "2"],
    "sweep": ["sweep", "--gamma", "0.999,0.001", "--grid", "3", "--theta-points", "8"],
    "pairs": ["pairs", "--which", "entanglement"],
    "bound": ["bound", "--eps-list", "1e-1,1e-2"],
    "exponent": ["exponent", "--p1", "0.6,0.4", "--q1", "0.5,0.5", "--p2", "0.55,0.45",
                 "--q2", "0.5,0.5"],
    "catalyst": ["catalyst", "--rho", "0.8,0.2", "--rho-prime", "0.6,0.4", "--eta", "0.5,0.5",
                 "--eta-prime", "0.5,0.5", "--n", "2"],
}
UNREAD_FLAGS = ([(cmd, ["--seed", "1"]) for cmd in ("divergence", "regions", "sweep", "pairs",
                                                    "bound", "exponent", "catalyst")]
                + [(cmd, ["--rationalize", "10"]) for cmd in ("smooth", "pairs", "bound")]
                + [("catalyst", ["--xi-mode", "exact_surrogate"])])


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[f"{cmd}{flag[0]}" for cmd, flag in UNREAD_FLAGS])
def test_flag_the_command_does_not_read_exits_two(command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(QUICK_ARGV[command] + flag)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["monotone", "--theory", "coherence", "--alpha", "2", "--p", "0.6,0.4", "--seed", "1"],
    QUICK_ARGV["smooth"] + ["--seed", "1"],
    ["verify", "--suite", "qmat", "--seed", "1"],
], ids=["monotone", "smooth", "verify"])
def test_seed_is_taken_where_it_is_read(argv):
    assert run_cli(argv)[0] == 0


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["monotone"])     # missing required --theory
    assert exc.value.code == 2


REGIONS_ARGV = ["regions", "--p", "2/3,1/12,3/12", "--gamma", "7/10,2/10,1/10"]
# vectors whose entries overflow any sum or product: refused before one is formed
HUGE_ENTRY_ARGV = [
    ["exponent", "--p1", "1e308,1e308", "--q1", "0.5,0.5", "--p2", "0.5,0.5", "--q2", "0.5,0.5"],
    ["monotone", "--theory", "coherence", "--p", "1e308,1e308"],
    ["regions", "--p", "1e308,1e308,0", "--gamma", "0.3,0.3,0.4", "--grid", "3"],
    ["catalyst", "--rho", "1e308,1e308", "--rho-prime", "0.6,0.4", "--eta", "0.5,0.5",
     "--eta-prime", "0.5,0.5", "--n", "3"],
    ["divergence", "--kind", "classical", "--alpha", "0.5", "--p", "1e308,1e308",
     "--q", "0.5,0.5"],
    ["divergence", "--kind", "umegaki", "--p", "1e308,1e308", "--q", "0.5,0.5"],
    ["monotone", "--theory", "athermality", "--p", "0.5,0.5", "--gamma", "1e308,1e308"],
]
HUGE_ENTRY_IDS = ["exponent_p1_huge", "monotone_p_huge", "regions_p_huge", "catalyst_rho_huge",
                  "divergence_classical_p_huge", "divergence_umegaki_p_huge",
                  "athermality_gamma_huge"]
# Gibbs matrix files that are not normalized, or not positive definite
GAMMA_FILE_ARGV = [["monotone", "--theory", "athermality", "--p", "0.5,0.5", "--gamma-file", f]
                   for f in ("{gamma_trace_0_6}", "{gamma_indefinite}")]
GAMMA_FILE_IDS = ["athermality_gamma_file_trace_0_6", "athermality_gamma_file_indefinite"]
# --dims must be two positive integers
DIMS_ARGV = [["monotone", "--theory", "entanglement", "--p", "1,0,0,0", dims]
             for dims in ("--dims=2", "--dims=2,x", "--dims=-1,-4")]
DIMS_IDS = ["entanglement_dims_one_entry", "entanglement_dims_not_integer",
            "entanglement_dims_negative"]
# divergence --p must be a distribution, --q need not be
DIVERGENCE_P_SUM_ARGV = ["divergence", "--kind", "petz", "--alpha", "0.5", "--p", "0.9,0.9",
                         "--q", "0.5,0.5"]


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    """Paths of JSON matrix files, for argv tokens written as {name}."""
    mats = {"state2": qmat.random_state(2, 2, seed=0).data,
            "state2b": qmat.random_state(2, 2, seed=1).data,
            "state3": qmat.random_state(3, 3, seed=0).data,
            "not_state": np.diag([1.5, -0.5, 0.0]).astype(complex),
            "trace_two": np.diag([1.2, 0.8]).astype(complex),
            "nan_entry": np.array([[0.5, math.nan], [math.nan, 0.5]], dtype=complex),
            "gamma_trace_0_6": np.diag([0.3, 0.3]).astype(complex),
            "gamma_indefinite": np.diag([0.5, -0.5]).astype(complex)}
    root = tmp_path_factory.mktemp("matrices")
    paths = {}
    for name, m in mats.items():
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(qmat.matrix_to_json(m))
    paths["no_dim"] = str(root / "no_dim.json")
    (root / "no_dim.json").write_text('{"re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}')
    return paths


def _with_files(argv, paths):
    return [a.format(**paths) if a.startswith("{") else a for a in argv]


def run_cli_err(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(argv)
    return code, out, err.getvalue()


@pytest.mark.parametrize("argv", [
    ["bound", "--eps-list", "0,1e-2"],
    ["monotone", "--theory", "coherence", "--p", "0.5,0.7"],
    ["monotone", "--theory", "coherence", "--p", "0.5,abc"],
    ["smooth"],
    ["divergence", "--rho", "no/such/rho.json", "--sigma", "no/such/sigma.json"],
    ["divergence", "--kind", "petz", "--p", "0.5,0.5", "--q", "0.3,0.3,0.4"],
    ["regions", "--p", "0.5,0.5", "--gamma", "0.3,0.3,0.4"],
    ["divergence", "--kind", "sandwiched", "--p", "0.5,0.5", "--q", "0.3,0.3,0.4"],
    CATALYST_ARGV[:-1] + ["0"],
    ["sweep", "--gamma", "1,0"],
    ["monotone", "--theory", "athermality", "--alpha", "1", "--p", "0.5,0.5",
     "--gamma", "1,0"],
    ["sweep", "--gamma", "0.999,0.001", "--level", "-1"],
    ["sweep", "--gamma", "0.999,0.001", "--level", "nan"],
    ["sweep", "--gamma", "0.7,0.3", "--level", "3.0"],
    ["sweep", "--gamma", "0.999,0.001", "--theta-points", "0"],
    ["sweep", "--gamma", "0.999,0.001", "--grid", "0"],
    ["sweep", "--gamma", "0.3,0.7", "--level", "1.0"],
    REGIONS_ARGV + ["--grid", "0"],
    REGIONS_ARGV + ["--grid", "-3"],
    REGIONS_ARGV + ["--alpha-points", "0"],
    ["regions", "--p", "0.5,0.7,0.2", "--gamma", "7/10,2/10,1/10"],
    ["regions", "--p", "2/3,1/12,3/12", "--gamma", "0.5,0.5,0.5"],
    ["regions", "--p", "2/3,1/12,3/12", "--gamma", "1,0,0"],
    ["smooth", "--appendix-b", "--alpha", "2.5", "--restarts", "1", "--iters", "5"],
    ["smooth", "--appendix-b", "--alpha", "1", "--restarts", "1", "--iters", "5"],
    ["smooth", "--appendix-b", "--alpha", "1.5", "--restarts", "1", "--iters", "5"],
    ["divergence", "--kind", "classical", "--alpha", "nan", "--p", "0.5,0.5", "--q", "0.3,0.7"],
    ["divergence", "--kind", "sandwiched", "--alpha", "nan", "--rho", "{state2}",
     "--sigma", "{state2b}"],
    ["smooth", "--alpha", "inf", "--rho", "{state2}", "--sigma", "{state2b}"],
    ["smooth", "--rho", "{state3}", "--sigma", "{state2}"],
    ["smooth", "--rho", "{not_state}", "--sigma", "{state3}"],
    ["smooth", "--rho", "{trace_two}", "--sigma", "{state2}"],
    ["divergence", "--kind", "sandwiched", "--alpha", "0.5", "--rho", "{not_state}",
     "--sigma", "{state3}"],
    ["divergence", "--kind", "sandwiched", "--alpha", "0.5", "--rho", "{state3}",
     "--sigma", "{not_state}"],
    ["divergence", "--rho", "{no_dim}", "--sigma", "{state2}"],
    ["divergence", "--kind", "sandwiched", "--alpha", "0.3", "--p", "0.5,0.5", "--q", "0.3,0.7"],
    ["monotone", "--theory", "coherence", "--alpha", "0.5", "--p", "0,0"],
    ["monotone", "--theory", "coherence", "--alpha", "2", "--p", "0,0"],
    ["monotone", "--theory", "coherence", "--alpha", "inf", "--p", "0,0"],
    ["pairs", "--which", "athermal", "--eps-param=-inf"],
    ["pairs", "--which", "coherence", "--coh-eps", "inf"],
    ["pairs", "--which", "coherence", "--coh-dim", "0", "--coh-eps=-inf"],
    ["pairs", "--which", "coherence", "--mu", "nan"],
    ["sweep", "--gamma", "nan,0.5", "--grid", "3", "--level", "0.5", "--theta-points", "1"],
    ["sweep", "--gamma", "0.5,nan", "--grid", "3", "--level", "0.5", "--theta-points", "1"],
    ["monotone", "--theory", "coherence", "--alpha=-inf", "--p", "0.6,0.4"],
    ["monotone", "--theory", "coherence", "--alpha", "inf", "--state", "{not_state}"],
    ["monotone", "--theory", "coherence", "--alpha", "inf", "--state", "{trace_two}"],
    ["monotone", "--theory", "coherence", "--alpha", "inf", "--state", "{nan_entry}"],
    ["divergence", "--rho", "{nan_entry}", "--sigma", "{state2}"],
    ["verify", "--suite", "nope"],
    ["verify", "--suite", ""],
    ["monotone", "--theory", "coherence", "--alpha", "0.5", "--p=inf,-inf"],
    CATALYST_ARGV[:6] + ["0.5,nan"] + CATALYST_ARGV[7:],
    ["exponent", "--p1", "0.6,0.4", "--q1", "0.5,0.5", "--p2=1.5,-0.5", "--q2", "0.5,0.5"],
    ["divergence", "--kind", "classical", "--alpha", "0.5", "--p=2,-1", "--q", "0.5,0.5"],
    DIVERGENCE_P_SUM_ARGV,
    *GAMMA_FILE_ARGV,
    *HUGE_ENTRY_ARGV,
    *DIMS_ARGV,
], ids=["eps_zero", "sum_above_one", "not_a_number", "smooth_without_rho", "missing_file",
        "petz_shapes", "regions_shapes", "sandwiched_shapes", "catalyst_n_zero",
        "sweep_rank_deficient_gamma", "monotone_rank_deficient_gamma", "sweep_level_negative",
        "sweep_level_nan", "sweep_level_above_max", "sweep_theta_points_zero", "sweep_grid_zero",
        "sweep_gamma_ascending", "regions_grid_zero", "regions_grid_negative",
        "regions_alpha_points_zero", "regions_p_not_normalized",
        "regions_gamma_not_normalized", "regions_gamma_rank_deficient",
        "smooth_appendix_b_petz_alpha", "smooth_appendix_b_alpha_one",
        "smooth_appendix_b_alpha_above_one", "classical_alpha_nan", "sandwiched_alpha_nan",
        "smooth_alpha_inf", "smooth_shapes", "smooth_rho_not_state", "smooth_rho_trace_two",
        "divergence_rho_not_state", "divergence_sigma_not_psd", "matrix_file_without_dim",
        "sandwiched_vectors_alpha_below_half", "monotone_zero_p_alpha_half",
        "monotone_zero_p_alpha_two", "monotone_zero_p_alpha_inf", "pairs_eps_param_minus_inf",
        "pairs_coh_eps_inf", "pairs_coh_dim_zero", "pairs_mu_nan", "sweep_gamma_nan_first",
        "sweep_gamma_nan_second", "monotone_alpha_minus_inf", "monotone_state_not_state",
        "monotone_state_trace_two", "monotone_state_nan_entry", "divergence_rho_nan_entry",
        "verify_unknown_suite", "verify_empty_suite", "monotone_p_inf_minus_inf",
        "catalyst_eta_nan", "exponent_p2_negative", "divergence_p_negative",
        "divergence_p_sum_above_one", *GAMMA_FILE_IDS, *HUGE_ENTRY_IDS, *DIMS_IDS])
def test_bad_input_exit_two(argv, matrix_files):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli_err(_with_files(argv, matrix_files))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, named", [
    (["divergence", "--kind", "sandwiched", "--alpha", "nan", "--rho", "{state2}",
      "--sigma", "{state2b}"], "alpha >= 1/2, got nan"),
    (["smooth", "--alpha", "inf", "--rho", "{state2}", "--sigma", "{state2b}"], "got inf"),
    (["smooth", "--alpha=-inf", "--rho", "{state2}", "--sigma", "{state2b}"], "got -inf"),
    (["smooth", "--rho", "{state3}", "--sigma", "{state2}"],
     "rho has shape (3, 3) but sigma has shape (2, 2)"),
    (["smooth", "--rho", "{not_state}", "--sigma", "{state3}"], "--rho "),
    (["divergence", "--rho", "{state3}", "--sigma", "{not_state}"], "--sigma "),
    (["monotone", "--theory", "athermality", "--alpha", "2", "--p", "0,0", "--gamma", "0.5,0.5"],
     "--p must have a positive sum"),
    (["sweep", "--gamma", "0.999,0.001", "--grid", "0"], "grid must be >= 1, got 0"),
    # vector entries are checked once, at parse time
    (CATALYST_ARGV[:6] + ["0.5,nan"] + CATALYST_ARGV[7:], "--eta must have finite entries"),
    (["exponent", "--p1", "0.6,0.4", "--q1", "0.5,0.5", "--p2=1.5,-0.5", "--q2", "0.5,0.5"],
     "--p2 must have finite entries, none below -1e-12"),
    (["divergence", "--kind", "classical", "--alpha", "0.5", "--p=2,-1", "--q", "0.5,0.5"],
     "--p must have finite entries"),
    (DIVERGENCE_P_SUM_ARGV, "--p: sum 1.8 exceeds 1"),
    (["monotone", "--theory", "athermality", "--p", "0.5,0.5", "--gamma", "0.3,0.3"],
     "--gamma: Gibbs state must be normalized"),
    *zip(GAMMA_FILE_ARGV, ["--gamma-file ", "--gamma-file "]),
    *zip(HUGE_ENTRY_ARGV, ["--p1: entry 1e+308 exceeds 1", "--p: entry 1e+308 exceeds 1",
                           "p must be a distribution", "rho must be a distribution",
                           "--p: entry 1e+308 exceeds 1", "--p: entry 1e+308 exceeds 1",
                           "--gamma: entry 1e+308 exceeds 1"]),
    *((argv, "usage error: --dims: need two positive integers") for argv in DIMS_ARGV),
], ids=["sandwiched_alpha_nan", "smooth_alpha_inf", "smooth_alpha_minus_inf", "smooth_shapes",
        "smooth_rho_not_state", "divergence_sigma_not_psd", "monotone_zero_p", "sweep_grid_zero",
        "catalyst_eta_nan", "exponent_p2_negative", "divergence_p_negative",
        "divergence_p_sum_above_one", "athermality_gamma_not_normalized", *GAMMA_FILE_IDS,
        *HUGE_ENTRY_IDS, *DIMS_IDS])
def test_bad_input_names_the_input(argv, named, matrix_files):
    code, _, err = run_cli_err(_with_files(argv, matrix_files))
    assert code == 2
    assert named in err


# 1e308: entries whose sums and products overflow
FUZZ_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, 0.5, 1e308]),
                        st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=50, deadline=None)
@example(kind="appendix_b", alpha=1.0, eps=0.1)
@example(kind="classical", alpha=math.nan, eps=0.1)
@example(kind="sandwiched", alpha=1075.0, eps=0.1)
@given(kind=st.sampled_from(["sandwiched", "petz", "classical", "appendix_b"]),
       alpha=FUZZ_FLOATS, eps=FUZZ_FLOATS)
def test_argv_fuzz_exit_codes(kind, alpha, eps):
    # --flag=value, so that argparse reads "-inf" or "-1e-05" as a value
    if kind == "appendix_b":
        argv = ["smooth", "--appendix-b", "--restarts", "1", "--iters", "2",
                f"--alpha={alpha!r}", f"--eps={eps!r}"]
    else:
        argv = ["divergence", "--kind", kind, f"--alpha={alpha!r}",
                "--p", "0.5,0.5", "--q", "0.3,0.7"]
    _assert_clean_exit(argv)


def _assert_clean_exit(argv):
    """Exit 0, 2 or 3 without a traceback, and well-formed CSV on exit 0."""
    try:
        code, out, err = run_cli_err(argv)
    except SystemExit as exc:           # argparse rejects the arguments
        code, out, err = exc.code, "", ""
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        header, rows = lines[0].split(","), [l.split(",") for l in lines[1:]]
        assert rows and all(len(r) == len(header) for r in rows)
        assert all(cell != "nan" for r in rows for cell in r)


def _pair_of(x):
    return f"{x!r},{1.0 - x!r}"


FUZZ_ARGV = {
    "monotone": lambda x, y: ["monotone", "--theory", "coherence", f"--alpha={x!r}",
                              f"--p={_pair_of(y)}"],
    # an equal pair, which a large x takes far above 1
    "monotone_athermality": lambda x, y: ["monotone", "--theory", "athermality",
                                          f"--p={x!r},{x!r}", f"--gamma={_pair_of(y)}"],
    "bound": lambda x, y: ["bound", f"--alpha={x!r}", f"--eps-list={y!r},1e-2"],
    "exponent": lambda x, y: ["exponent", f"--p1={_pair_of(x)}", "--q1", "0.5,0.5",
                              f"--p2={_pair_of(y)}", "--q2", "0.5,0.5", "--optimized"],
    "catalyst": lambda x, y: ["catalyst", f"--rho={_pair_of(x)}", "--rho-prime", "0.6,0.4",
                              "--eta", "0.5,0.5", f"--eta-prime={_pair_of(y)}", "--n", "3"],
}


@pytest.mark.parametrize("command", sorted(FUZZ_ARGV))
@settings(max_examples=30, deadline=None)
@example(x=1e308, y=0.5)
@example(x=0.5, y=1e308)
@given(x=FUZZ_FLOATS, y=FUZZ_FLOATS)
def test_argv_fuzz_exit_codes_more_commands(command, x, y):
    _assert_clean_exit(FUZZ_ARGV[command](x, y))


@st.composite
def _hermitian(draw, n=None):
    """n x n Hermitian matrices, 2x2 to 4x4 where n is None: states, scaled
    states (trace 0 to 3), states with a zero row and column, indefinite ones,
    and states with a NaN or infinite entry."""
    n = draw(st.integers(2, 4)) if n is None else n
    block = st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)
    g = np.reshape(draw(block), (n, n)) + 1j * np.reshape(draw(block), (n, n))
    kind = draw(st.sampled_from(["state", "indefinite", "zero_row", "non_finite"]))
    if kind == "indefinite":
        return g + g.conj().T
    m = g @ g.conj().T
    m = m / max(np.trace(m).real, 1e-300) * draw(st.sampled_from([1.0, 1.0, 0.5, 3.0, 0.0]))
    if kind == "zero_row":
        k = draw(st.integers(0, n - 1))
        m[k, :] = m[:, k] = 0.0
    elif kind == "non_finite":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i, j] = m[j, i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return m


def _assert_clean_exit_with_files(argv, **mats):
    """_assert_clean_exit on argv, with each token {name} replaced by the path
    of a JSON file that holds the matrix mats[name]."""
    with tempfile.TemporaryDirectory() as root:
        paths = {}
        for name, m in mats.items():
            paths[name] = os.path.join(root, f"{name}.json")
            with open(paths[name], "w") as fh:
                fh.write(qmat.matrix_to_json(m))
        _assert_clean_exit(_with_files(argv, paths))


@settings(max_examples=30, deadline=None)
@example(m=np.diag([0.5, 0.0, 0.5]).astype(complex))
@example(m=np.array([[0.5, 0.5], [0.5, math.nan]], dtype=complex))
@given(m=_hermitian())
def test_argv_fuzz_monotone_robustness_state_file(m):
    _assert_clean_exit_with_files(["monotone", "--theory", "coherence", "--alpha", "inf",
                                   "--state", "{state}"], state=m)


@settings(max_examples=30, deadline=None)
@given(pair=st.integers(2, 4).flatmap(lambda n: st.tuples(_hermitian(n), _hermitian(n))),
       alpha=st.sampled_from([0.5, 0.75, 0.99, 2.0]),
       ball=st.sampled_from(["subnormalized", "normalized", "trace"]))
def test_argv_fuzz_smooth_matrix_files(pair, alpha, ball):
    _assert_clean_exit_with_files(["smooth", "--rho", "{rho}", "--sigma", "{sigma}",
                                   f"--alpha={alpha!r}", f"--ball={ball}",
                                   "--restarts", "1", "--iters", "5"],
                                  rho=pair[0], sigma=pair[1])


@settings(max_examples=30, deadline=None)
@given(gamma=_hermitian(), alpha=st.one_of(st.sampled_from([0.5, 1.0, 2.0, math.inf]),
                                           FUZZ_FLOATS))
def test_argv_fuzz_monotone_gamma_file(gamma, alpha):
    # a uniform --p of the size of the Gibbs matrix
    p = ",".join([f"1/{gamma.shape[0]}"] * gamma.shape[0])
    _assert_clean_exit_with_files(["monotone", "--theory", "athermality", f"--alpha={alpha!r}",
                                   "--p", p, "--gamma-file", "{gamma}"], gamma=gamma)


def _vector(n):
    """Comma lists for an n-entry argument: n-entry distributions, or fuzzed
    entries of any length up to n + 2."""
    dist = st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1).map(
        lambda v: v + [1.0 - sum(v)])
    return st.one_of(dist, st.lists(FUZZ_FLOATS, min_size=1, max_size=n + 2)).map(
        lambda v: ",".join(repr(x) for x in v))


# sizes stay small: --grid <= 30, --theta-points <= 40, --D <= 100, --dims <= 5
FUZZ_SIZED_ARGV = {
    # product states as point masses, and fuzzed vectors; --dims need not
    # match --p, nor hold two positive entries
    "monotone_entanglement": st.builds(
        lambda alpha, p, dims: ["monotone", "--theory", "entanglement", f"--alpha={alpha!r}",
                                f"--p={p}", f"--dims={dims}"],
        FUZZ_FLOATS, st.one_of(st.sampled_from(["1,0,0,0", "0,0,0,1"]), _vector(4)),
        st.one_of(st.lists(st.integers(-1, 5), min_size=1, max_size=3).map(
            lambda v: ",".join(map(str, v))), st.sampled_from(["2,2", "2,x", ""]))),
    "regions": st.builds(
        lambda p, g, n, k: ["regions", f"--p={p}", f"--gamma={g}", f"--grid={n}",
                            f"--alpha-points={k}"],
        _vector(3), _vector(3), st.integers(-2, 30), st.integers(-1, 8)),
    "sweep": st.builds(
        lambda g, level, n, k: ["sweep", f"--gamma={g}", f"--level={level!r}", f"--grid={n}",
                                f"--theta-points={k}"],
        _vector(2), FUZZ_FLOATS, st.integers(-2, 30), st.integers(-2, 40)),
    "pairs": st.builds(
        lambda which, big_d, e, dim, kappa, coh_dim, coh_e, mu: [
            "pairs", f"--which={which}", f"--D={big_d}", f"--eps-param={e!r}", f"--dim={dim}",
            f"--kappa={kappa!r}", f"--coh-dim={coh_dim}", f"--coh-eps={coh_e!r}",
            *([] if mu is None else [f"--mu={mu!r}"])],
        st.sampled_from(["athermal", "entanglement", "coherence", "all"]),
        st.integers(-2, 100), FUZZ_FLOATS, st.integers(-1, 6), FUZZ_FLOATS,
        st.integers(-1, 6), FUZZ_FLOATS, st.one_of(st.none(), FUZZ_FLOATS)),
}


@pytest.mark.parametrize("p, gamma", [("1.0,0.0,0.0", "2.225073858507e-311,0.5,0.5"),
                                      ("0.0,0.0,1.0", "0.5,2.225073858507e-311,0.5")])
def test_regions_subnormal_gamma_exits_clean(p, gamma):
    # p / gamma overflows in the FO ordering of p, then of a grid point (found by the fuzz below)
    _assert_clean_exit(["regions", f"--p={p}", f"--gamma={gamma}", "--grid=1", "--alpha-points=1"])


@pytest.mark.parametrize("command", sorted(FUZZ_SIZED_ARGV))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_argv_fuzz_exit_codes_sized_commands(command, data):
    _assert_clean_exit(data.draw(FUZZ_SIZED_ARGV[command]))


@pytest.mark.parametrize("vector_rho", [False, True], ids=["matrix_matrix", "vector_matrix"])
def test_classical_divergence_rejects_matrix_files(tmp_path, vector_rho):
    ps = tmp_path / "sigma.json"
    ps.write_text(qmat.matrix_to_json(qmat.random_state(2, 2, seed=1).data))
    if vector_rho:
        rho_args = ["--p", "0.5,0.5"]
    else:
        pr = tmp_path / "rho.json"
        pr.write_text(qmat.matrix_to_json(qmat.random_state(2, 2, seed=0).data))
        rho_args = ["--rho", str(pr)]
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("error")      # a ComplexWarning from a cast fails the test
        code, _ = run_cli(["divergence", "--kind", "classical", *rho_args, "--sigma", str(ps)])
    assert code == 2
    assert err.getvalue().startswith("usage error: ")
    assert err.getvalue().count("\n") == 1


def test_numerical_failure_exit_three(monkeypatch):
    def fail(args):
        raise SupportViolation("the pullback leaves the support")

    monkeypatch.setattr(cli, "cmd_pairs", fail)
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli(["pairs"])
    assert code == 3
    assert err.getvalue() == "numerical failure: the pullback leaves the support\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--gamma", "0.7,0.3", "--level", "1.7", "--grid", "20", "--theta-points", "36"],
    ["sweep", "--gamma", "0.999,0.001", "--level", "9.9", "--grid", "20",
     "--theta-points", "36"],
    ["sweep", "--gamma", "0.7,0.3", "--level", "1.0", "--grid", "20", "--theta-points", "300"],
    ["sweep", "--gamma", "0.9,0.1", "--level", "1.5", "--grid", "20", "--theta-points", "200"],
], ids=["g07_level17", "g0999_level99", "g07_level1_300", "g09_level15_min_off_axis"])
def test_sweep_extremum_at_pure_endpoint(argv):
    code, out = run_cli(argv)
    assert code == 0
    g0, g1 = (float(v) for v in argv[2].split(","))
    level = float(argv[4])
    rows = [l.split(",") for l in out.splitlines() if l.startswith("level,")]
    assert len(rows) == int(argv[-1])
    extremes = {l.split(",")[0]: l.split(",") for l in out.splitlines()
                if l.startswith(("max_F,", "min_F,"))}
    assert len(extremes) == 2
    for row in rows + list(extremes.values()):
        d = cs._qubit_d_bits(np.array(float(row[2])), np.array(float(row[3])), g0, g1)
        assert abs(float(d) - level) <= 1e-9
    # min_F gives its ray angle from (0, g0 - g1), the convention of the level rows
    theta, x, z = (float(v) for v in extremes["min_F"][1:4])
    assert abs(theta - math.atan2(x, z - (g0 - g1))) <= 1e-9


def test_closed_pipe_exits_one_without_traceback():
    # the reader takes one line and closes the pipe, as `| head -1` does; the
    # CSV is far larger than a pipe buffer, so the writer meets the closed end
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(resmono.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "resmono.cli", *REGIONS_ARGV, "--grid", "100"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_readme_examples_leave_scipy_optimize_unloaded():
    # importing scipy.optimize adds about 48 MB and most of the start-up
    # time; of the README examples only the coherence monotone (whose dual
    # runs L-BFGS-B at other orders) and verify may need it
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        examples = [line.split("#")[0].split()[1:] for line in fh if line.startswith("resmono ")]
    examples = [argv for argv in examples
                if argv[0] != "verify" and argv[:3] != ["monotone", "--theory", "coherence"]]
    assert len(examples) == 8
    script = ("import contextlib, io, json, sys\n"
              "from resmono import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.main(argv) == 0, argv\n"
              "print('scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(resmono.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(examples)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_readme_examples_rerun_in_one_process(monkeypatch):
    # the parser and the code hash are built once per process: after an
    # argparse rejection and a patched handler, a second run of each README
    # example prints the same bytes, under the hash of the package files
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as fh:
        examples = [line.split("#")[0].split()[1:] for line in fh if line.startswith("resmono ")]
    examples = [argv for argv in examples if argv[0] != "verify"]   # 3 s, and no emit
    assert len(examples) == 9
    first = [run_cli(argv) for argv in examples]
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as exc:
        cli.main(["pairs", "--which", "none"])
    assert exc.value.code == 2
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_pairs", lambda args: 3)
        assert run_cli(["pairs"]) == (3, "")
    assert [run_cli(argv) for argv in examples] == first
    fresh = cli.code_version_hash.__wrapped__()
    assert cli.code_version_hash() == fresh
    for code, out in first:
        assert code == 0
        assert f"# code_version={fresh}\n" in out


def test_determinism_byte_identical():
    argv = ["smooth", "--appendix-b", "--restarts", "2", "--iters", "60",
            "--seed", "0"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


def test_smooth_custom_matrices(tmp_path):
    rho = qmat.random_state(3, 1, seed=2).data
    sig = qmat.random_state(3, 3, seed=3).data
    pr = tmp_path / "rho.json"
    ps = tmp_path / "sigma.json"
    pr.write_text(qmat.matrix_to_json(rho))
    ps.write_text(qmat.matrix_to_json(sig))
    code, out = run_cli(["smooth", "--rho", str(pr), "--sigma", str(ps),
                         "--alpha", "0.75", "--eps", "0.1",
                         "--restarts", "2", "--iters", "80"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["certified"] == "heuristic_lower_bound"


def test_monotone_entanglement_with_state_file(tmp_path):
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    ps = tmp_path / "bell.json"
    ps.write_text(qmat.matrix_to_json(np.outer(bell, bell.conj())))
    code, out = run_cli(["monotone", "--theory", "entanglement", "--alpha", "1",
                         "--state", str(ps), "--dims", "2,2"])
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert abs(float(row["value_bits"]) - 1.0) <= 1e-10
