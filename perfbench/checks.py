"""Output checkers for the benchmark workloads.

Each checker returns a list of ``(code, message)`` failures; an empty list
means the output passed. The reference values are computed here with plain
numpy from the inputs, never by calling ``resmono``, so a wrong kernel in the
program cannot also make its own check pass. Checkers run after the timed
window.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np

LOG2E = math.log2(math.e)
EPS64 = float(np.finfo(float).eps)

DP_SLACK_TOL = 1e-6        # data processing, at the criterion-05 tolerance
DP_FLOOR_TOL = 1e-9        # smoothed value >= the unsmoothed value at the centre
DUAL_WEAK_TOL = 1e-9       # primal <= dual + tol
DUAL_GAP_TOL = 1e-5        # dual - primal <= tol (criterion 03)
RECOMPUTE_TOL = 1e-9
PHI_TOL = 1e-8             # F = 1/d on maximally coherent states
APPENDIX_B_TOL = 1e-6
LEVEL_TOL = 1e-6
SLOPE_TOL = 1e-9


# ---------------------------------------------------------------------------
# reference linear algebra
# ---------------------------------------------------------------------------

def _herm(m):
    return (m + m.conj().T) / 2.0


def _psd_power(m, t):
    """m^t on the support of a PSD matrix; eigenvalues at noise level -> 0."""
    w, u = np.linalg.eigh(_herm(m))
    w = np.clip(w, 0.0, None)
    keep = w > 1e-13 * max(w.max(), 1e-300)
    wt = np.zeros_like(w)
    wt[keep] = w[keep] ** t
    return (u * wt) @ u.conj().T


def sandwiched_renyi(rho, sigma, alpha):
    """D_alpha(rho||sigma) = log2 Tr[(s^g rho s^g)^alpha] / (alpha-1), g = (1-alpha)/(2 alpha)."""
    a = _psd_power(sigma, (1.0 - alpha) / (2.0 * alpha))
    w = np.clip(np.linalg.eigvalsh(_herm(a @ rho @ a)), 0.0, None)
    return math.log2(float((w ** alpha).sum())) / (alpha - 1.0)


def apply_kraus(rho, kraus):
    return _herm(sum(k @ rho @ k.conj().T for k in kraus))


def fidelity_to_diagonal(rho, q):
    """F(rho, diag q) = (Tr sqrt(sqrt(diag q) rho sqrt(diag q)))^2."""
    s = np.sqrt(np.clip(np.asarray(q, dtype=float), 0.0, None))
    m = _herm(s[:, None] * rho * s[None, :])
    w = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    w = np.where(w > 1e-14 * max(w.max(), 1e-300), w, 0.0)
    return float(np.sqrt(w).sum()) ** 2


def classical_renyi(p, q, alpha):
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return math.log2(float((p ** alpha * q ** (1.0 - alpha)).sum())) / (alpha - 1.0)


def first_order_exponent(p1, q1, p2, q2):
    """gap^2 log2(e) / (8 (V1 + V2)) with D and V the relative entropy and its variance."""
    def d_and_v(p, q):
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        llr = np.log2(p / q)
        d = float((p * llr).sum())
        return d, float((p * llr ** 2).sum()) - d * d

    d1, v1 = d_and_v(p1, q1)
    d2, v2 = d_and_v(p2, q2)
    gap = max(d1 - d2, 0.0)
    return gap * gap * LOG2E / (8.0 * (v1 + v2))


def qubit_relative_entropy(x, z, g0, g1):
    """D(rho(x, z) || diag(g0, g1)) in bits for the Bloch-plane state rho(x, z)."""
    r = min(math.hypot(x, z), 1.0)
    ent = -sum(w * math.log2(w) for w in ((1.0 + r) / 2.0, (1.0 - r) / 2.0) if w > 0.0)
    return -ent - ((1.0 + z) / 2.0 * math.log2(g0) + (1.0 - z) / 2.0 * math.log2(g1))


# ---------------------------------------------------------------------------
# smooth_dp
# ---------------------------------------------------------------------------

def check_dp(rho, sigma, kraus, alpha, lhs, rhs, slack):
    """dp_check output: data processing holds and each side is at least the
    unsmoothed divergence, since the centre itself lies in its ball."""
    fails = []
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        return [("finite", f"lhs={lhs} rhs={rhs}")]
    if slack < -DP_SLACK_TOL:
        fails.append(("dp_slack", f"slack {slack:.3e} < -{DP_SLACK_TOL:g}"))
    d_in = sandwiched_renyi(rho, sigma, alpha)
    if lhs < d_in - DP_FLOOR_TOL:
        fails.append(("lhs_floor", f"lhs {lhs!r} < D_alpha(rho||sigma) {d_in!r}"))
    d_out = sandwiched_renyi(apply_kraus(rho, kraus), apply_kraus(sigma, kraus), alpha)
    if rhs < d_out - DP_FLOOR_TOL:
        fails.append(("rhs_floor", f"rhs {rhs!r} < D_alpha(E rho||E sigma) {d_out!r}"))
    return fails


# ---------------------------------------------------------------------------
# coherence_certify
# ---------------------------------------------------------------------------

def check_coherence(rho, primal, argmax, dual, r_mat, maximally_coherent):
    """A certified fidelity-of-coherence interval [primal, dual]."""
    fails = []
    if not (math.isfinite(primal) and math.isfinite(dual)):
        return [("finite", f"primal={primal} dual={dual}")]
    if primal > dual + DUAL_WEAK_TOL:
        fails.append(("weak_duality", f"primal {primal!r} > dual {dual!r}"))
    if dual - primal > DUAL_GAP_TOL:
        fails.append(("duality_gap", f"gap {dual - primal:.3e} > {DUAL_GAP_TOL:g}"))
    q = np.asarray(argmax, dtype=float)
    if q.min() < 0.0 or abs(q.sum() - 1.0) > 1e-9:
        fails.append(("argmax", f"argmax is not a distribution: {q}"))
    f_re = fidelity_to_diagonal(rho, q)
    if abs(f_re - primal) > RECOMPUTE_TOL:
        fails.append(("primal_recompute", f"primal {primal!r} vs F(rho, diag q) {f_re!r}"))
    r_mat = np.asarray(r_mat)
    w = np.linalg.eigvalsh(_herm(r_mat))
    if w[0] <= 0.0:
        fails.append(("dual_feasible", f"R is not positive definite: min eig {w[0]:.3e}"))
    else:
        d_re = float(np.trace(rho @ np.linalg.inv(r_mat)).real) * float(np.diag(r_mat).real.max())
        # forward error of a solve with R grows with its condition number
        tol = RECOMPUTE_TOL + 16.0 * (w[-1] / w[0]) * EPS64
        if abs(d_re - dual) > tol * max(abs(dual), 1.0):
            fails.append(("dual_recompute", f"dual {dual!r} vs Tr[rho R^-1] max diag R {d_re!r}"))
    if maximally_coherent:
        d = rho.shape[0]
        if abs(primal - 1.0 / d) > PHI_TOL:
            fails.append(("phi_value", f"F {primal!r} != 1/{d}"))
    return fails


# ---------------------------------------------------------------------------
# cli_readme
# ---------------------------------------------------------------------------

def parse_output(text):
    """CSV with '#' metadata, emit's JSON, or a flat JSON object -> (meta, rows).

    Values stay strings, as printed."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        if isinstance(obj.get("rows"), list):
            return dict(obj.get("meta", {})), [dict(r) for r in obj["rows"]]
        return {}, [obj]
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key] = val
        elif line:
            body.append(line)
    if not body:
        raise ValueError("no CSV header")
    reader = csv.reader(body)
    header = next(reader)
    rows = []
    for rec in reader:
        if len(rec) != len(header):
            raise ValueError(f"row with {len(rec)} fields under a {len(header)}-field header")
        rows.append(dict(zip(header, rec)))
    return meta, rows


def _field(meta, rows, name):
    if rows and name in rows[0]:
        return rows[0][name]
    if name in meta:
        return meta[name]
    raise KeyError(name)


def _vec(text):
    return np.array([float(Fraction(t)) for t in text.split(",")])


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def _check_divergence(argv, meta, rows):
    alpha = float(_argv_value(argv, "--alpha"))
    ref = classical_renyi(_vec(_argv_value(argv, "--p")), _vec(_argv_value(argv, "--q")), alpha)
    got = float(rows[0]["bits"])
    if abs(got - ref) > 1e-9:
        return [("divergence_value", f"{got!r} vs classical Renyi {ref!r}")]
    return []


def _check_monotone(argv, meta, rows):
    got = float(rows[0]["value_bits"])
    if abs(got) > 1e-9:
        return [("monotone_value", f"{got!r} on a diagonal (free) state, expected 0")]
    return []


APPENDIX_B_CASES = {
    # case -> (target kind, comparison)
    "sandwiched_normalized_2d": ("one", "eq"),
    "sandwiched_normalized_3d": ("sand", "eq"),
    "sandwiched_subnormalized_2d": ("sand", "eq"),
    "sandwiched_subnormalized_3d": ("sand", "eq"),
    "petz_normalized_2d": ("one", "eq"),
    "petz_normalized_3d": ("petz", "ge"),
    "petz_subnormalized_2d": ("sand", "eq"),
}


def _check_smooth(argv, meta, rows):
    fails = []
    seen = {r["case"]: r for r in rows}
    if sorted(seen) != sorted(APPENDIX_B_CASES) or len(rows) != len(APPENDIX_B_CASES):
        return [("appendix_b_rows", f"cases {sorted(seen)}")]
    for case, (kind, cmp) in APPENDIX_B_CASES.items():
        r = seen[case]
        alpha, eps = float(r["alpha"]), float(r["eps"])
        shift = math.log2(1.0 / (1.0 - eps * eps))
        target = {"one": 1.0,
                  "sand": 1.0 + alpha / (1.0 - alpha) * shift,
                  "petz": 1.0 + 1.0 / (1.0 - alpha) * shift}[kind]
        got = float(r["value_bits"])
        bad = got < target - APPENDIX_B_TOL if cmp == "ge" else abs(got - target) > APPENDIX_B_TOL
        if bad:
            fails.append(("appendix_b_value", f"{case}: {got!r} vs target {target!r} ({cmp})"))
    return fails


def _check_regions(argv, meta, rows):
    g = int(_argv_value(argv, "--grid"))
    fails = []
    if len(rows) != (g + 1) * (g + 2) // 2:
        fails.append(("regions_rows", f"{len(rows)} rows, expected {(g + 1) * (g + 2) // 2}"))
    if int(meta.get("nesting_violations", -1)) != 0:
        fails.append(("regions_nesting", f"nesting_violations={meta.get('nesting_violations')}"))
    return fails


def _check_sweep(argv, meta, rows):
    g0, g1 = _vec(_argv_value(argv, "--gamma"))
    level = float(_argv_value(argv, "--level"))
    pts = [r for r in rows if r["which"] == "level"]
    if not pts:
        return [("sweep_level_set", "no level-set points")]
    worst = max(abs(qubit_relative_entropy(float(r["x"]), float(r["z"]), g0, g1) - level)
                for r in pts)
    if worst > LEVEL_TOL:
        return [("sweep_level_set", f"level-set point off D={level} by {worst:.3e}")]
    return []


def _check_pairs(argv, meta, rows):
    fails = []
    if sorted(r["pair"] for r in rows) != ["athermal", "coherence", "entanglement"]:
        fails.append(("pairs_rows", f"pairs {[r['pair'] for r in rows]}"))
    for r in rows:
        hard = (str(r["relent_ordered"]) == "True" and str(r["fidelity_reversed"]) == "True"
                and float(r["sqrtF_gap"]) > 0.0)
        if not hard:
            fails.append(("pairs_hard", f"{r['pair']} is not a hard pair: {r}"))
    return fails


def _check_bound(argv, meta, rows):
    alpha = float(_argv_value(argv, "--alpha"))
    want = alpha / (1.0 - alpha)
    fails = []
    eps_in = sorted(float(e) for e in _argv_value(argv, "--eps-list").split(","))
    if sorted(float(r["eps"]) for r in rows) != eps_in:
        fails.append(("bound_rows", f"eps column {[r['eps'] for r in rows]}"))
    for r in rows:
        if float(r["lower_bits"]) > float(r["upper_bits"]):
            fails.append(("bound_order", f"lower > upper at eps={r['eps']}"))
    free = [(math.log2(1.0 / float(r["eps"])), float(r["lower_bits"]))
            for r in rows if float(r["lower_bits"]) > 0.0]
    if len(free) < 2:
        return fails + [("bound_slope", "fewer than two unclamped rows")]
    x, y = np.array(free).T
    slope = float(np.polyfit(x, y, 1)[0])
    if abs(slope - want) > SLOPE_TOL:
        fails.append(("bound_slope", f"slope of the lower rows {slope!r} vs alpha/(1-alpha) {want!r}"))
    reported = float(meta["lower_slope"])
    if abs(reported - want) > SLOPE_TOL:
        fails.append(("bound_slope", f"reported lower_slope {reported!r} vs {want!r}"))
    return fails


def _check_exponent(argv, meta, rows):
    ref = first_order_exponent(*(_vec(_argv_value(argv, f)) for f in ("--p1", "--q1", "--p2", "--q2")))
    got = float(rows[0]["first_order_bits"])
    if abs(got - ref) > 1e-9 * max(abs(ref), 1e-12) + 1e-15:
        return [("exponent_value", f"{got!r} vs gap^2 log2 e / 8(V1+V2) {ref!r}")]
    return []


def _check_catalyst(argv, meta, rows):
    d_bits = float(_field(meta, rows, "D_bits"))
    bound = float(_field(meta, rows, "bound_bits"))
    if not d_bits <= bound:
        return [("catalyst_bound", f"D {d_bits!r} > bound {bound!r}")]
    return []


CLI_CHECKS = {
    "divergence": _check_divergence,
    "monotone": _check_monotone,
    "smooth": _check_smooth,
    "regions": _check_regions,
    "sweep": _check_sweep,
    "pairs": _check_pairs,
    "bound": _check_bound,
    "exponent": _check_exponent,
    "catalyst": _check_catalyst,
}


def check_cli(argv, exit_code, stdout):
    """One README example run through resmono.cli.main(argv)."""
    if exit_code != 0:
        return [("exit_code", f"exit {exit_code}")]
    try:
        meta, rows = parse_output(stdout)
    except (ValueError, StopIteration) as exc:
        return [("parse", f"output is neither CSV nor JSON: {exc}")]
    if not rows:
        return [("parse", "no rows")]
    try:
        return CLI_CHECKS[argv[0]](argv, meta, rows)
    except (KeyError, ValueError, IndexError) as exc:
        return [("parse", f"missing or malformed field: {exc!r}")]
