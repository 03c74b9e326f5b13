"""Batch front-end: one subcommand per reproduction target, CSV/JSON out.

Every run is determined by its flags and the code version; outputs carry a
`#`-prefixed metadata header with the parameters and a source hash, and floats
are printed at 12 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import catalysis as ct
from . import constructions as cs
from . import divergences as dv
from . import monotones as mn
from . import qmat
from . import smoothing as sm
from . import verification as vf
from .errors import InputError, ResmonoError

EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def code_version_hash() -> str:
    h = hashlib.sha256()
    pkg = os.path.dirname(__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode())
                h.update(fh.read())
    return h.hexdigest()[:12]


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if x == 0.0:
            return "0"      # also for -0.0
        return f"{x:.12g}"
    return str(x)


def emit(args, header, rows, meta):
    """Write rows, any iterable of tuples read once, under header and meta."""
    meta = dict(meta)
    meta["code_version"] = code_version_hash()
    out = sys.stdout if args.out == "-" else open(args.out, "w")
    try:
        if args.format == "json":
            payload = {"meta": {k: _fmt(v) if isinstance(v, float) else v for k, v in meta.items()},
                       "rows": [dict(zip(header, [(_fmt(v) if isinstance(v, float) else v)
                                                  for v in row])) for row in rows]}
            out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            for k in sorted(meta):
                out.write(f"# {k}={meta[k]}\n")
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def parse_vector(text, rationalize=None):
    """Comma list of entries, each 'a/b' (exact) or decimal."""
    vals, fracs = [], []
    for tok in text.split(","):
        tok = tok.strip()
        if "/" in tok:
            f = Fraction(tok)
        elif rationalize:
            f = Fraction(tok).limit_denominator(rationalize)
        else:
            f = None
        if f is not None:
            fracs.append(f)
            vals.append(float(f))
        else:
            fracs.append(None)
            vals.append(float(tok))
    all_rational = all(f is not None for f in fracs)
    return np.asarray(vals, dtype=float), (fracs if all_rational else None)


def load_matrix(path, flag=None) -> np.ndarray:
    """The matrix in a JSON file, which must be finite. A --rho or --state
    file must hold a state (Hermitian, PSD, trace in (0, 1]) and a --sigma
    file a Hermitian PSD matrix."""
    if not os.path.isfile(path):
        raise InputError(f"no such matrix file: {path}")
    with open(path) as fh:
        text = fh.read()
    try:
        m = qmat.matrix_from_json(text)
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: not a JSON matrix with keys dim, re, im ({exc!r})") from None
    if not np.all(np.isfinite(m)):
        raise InputError(f"{path}: the matrix has a NaN or infinite entry")
    try:
        if flag in ("rho", "state"):
            qmat.DensityOperator(m)
        elif flag == "sigma":
            qmat._check_psd(m)
    except ValueError as exc:
        raise InputError(f"--{flag} {path}: {exc}") from None
    return m


def _state_arg(args, name_matrix, name_vector, rationalize=None):
    path = getattr(args, name_matrix, None)
    if path:
        return load_matrix(path, name_matrix), None
    vec = getattr(args, name_vector, None)
    if vec is None:
        raise InputError(f"need --{name_matrix.replace('_', '-')} or --{name_vector.replace('_', '-')}")
    v, fr = parse_vector(vec, rationalize)
    return v, fr


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_divergence(args):
    alpha = math.inf if args.alpha == "inf" else float(args.alpha)
    rho, _ = _state_arg(args, "rho", "p", args.rationalize)
    sig, _ = _state_arg(args, "sigma", "q", args.rationalize)
    if args.kind == "classical":
        val = dv.classical_renyi(rho, sig, alpha)
    elif args.kind == "sandwiched":
        val = dv.sandwiched(rho, sig, alpha)
    else:
        # vectors are embedded on the diagonal, which keeps these on the quantum path
        r, s = qmat.asmat(rho), qmat.asmat(sig)
        val = {"petz": lambda: dv.petz(r, s, alpha),
               "umegaki": lambda: dv.umegaki(r, s),
               "dmax": lambda: dv.dmax(r, s)}[args.kind]()
    emit(args, ["kind", "alpha", "bits", "infinite"],
         [(args.kind, alpha, val if not math.isinf(val) else 0.0, math.isinf(val))],
         {"command": "divergence"})
    return 0


def _theory_from_args(args):
    if args.theory == "athermality":
        g, _ = _state_arg(args, "gamma_file", "gamma", args.rationalize)
        return mn.Athermality(g)
    if args.theory == "coherence":
        return mn.Coherence()
    d_a, d_b = (int(x) for x in args.dims.split(","))
    return mn.PureBipartiteEntanglement(d_a, d_b)


def cmd_monotone(args):
    alpha = math.inf if args.alpha == "inf" else float(args.alpha)
    state, _ = _state_arg(args, "state", "p", args.rationalize)
    theory = _theory_from_args(args)
    if state.ndim == 1:
        if not state.sum() > 0.0:
            raise InputError(f"--p must have a positive sum, got {state.tolist()}")
        state = qmat.ClassicalDist(state)
    val = mn.monotone_alpha(state, theory, alpha, seed=args.seed)
    # coherence away from alpha = 1 comes from mirror descent, not a closed form,
    # except at alpha = inf: the upper end of a certified primal-dual interval
    if not isinstance(theory, mn.Coherence) or abs(alpha - 1.0) < dv.ALPHA_ONE_WINDOW:
        label = "exact"
    else:
        label = "certified" if math.isinf(alpha) else "heuristic"
    emit(args, ["state_id", "theory", "alpha", "value_bits", "certified", "infinite"],
         [("state-0", args.theory, alpha, val if not math.isinf(val) else 0.0,
           label, math.isinf(val))],
         {"command": "monotone"})
    return 0


def cmd_smooth(args):
    if args.appendix_b:
        rows = sm.appendix_b_suite(alpha=args.alpha, epsilon=args.eps,
                                   restarts=args.restarts, max_iters=args.iters,
                                   seed=args.seed)
        table = sm.suite_csv_rows(rows)
        emit(args, list(table[0]), table[1:],
             {"command": "smooth", "alpha": args.alpha, "eps": args.eps})
        return 0
    if args.rho is None or args.sigma is None:
        raise InputError("smooth needs --rho and --sigma, or --appendix-b")
    rho = load_matrix(args.rho, "rho")
    sig = load_matrix(args.sigma, "sigma")
    ball = {"subnormalized": sm.Ball.SUBNORMALIZED_PURIFIED,
            "normalized": sm.Ball.NORMALIZED_PURIFIED,
            "trace": sm.Ball.SUBNORMALIZED_TRACE}[args.ball]
    spec = sm.SmoothingSpec(epsilon=args.eps, alpha=args.alpha, ball=ball,
                            restarts=args.restarts, max_iters=args.iters, seed=args.seed)
    sv = sm.smoothed_sandwiched(rho, sig, spec)
    emit(args, ["case", "alpha", "eps", "ball", "value_bits", "certified"],
         [("custom", args.alpha, args.eps, ball.value, sv.value, sv.certified.value)],
         {"command": "smooth"})
    return 0


def cmd_regions(args):
    p, _ = parse_vector(args.p, args.rationalize)
    g, g_frac = parse_vector(args.gamma, args.rationalize)
    grid = cs.classify_simplex_regions(p, g, args.grid,
                                       alpha_grid=cs.default_alpha_grid(args.alpha_points),
                                       gamma_rational=g_frac)
    rows = ((pt[0], pt[1], pt[2], lab, db, fv, rm)
            for pt, lab, db, fv, rm in zip(grid.points, grid.labels, grid.d_bits,
                                           grid.f_value, grid.red_margin))
    meta = {"command": "regions", "p": args.p, "gamma": args.gamma, "grid": args.grid,
            "nesting_violations": grid.nesting_violations,
            "oracle_disagreements": grid.oracle_disagreements,
            **{f"count_{k}": v for k, v in grid.counts.items()}}
    emit(args, ["p1", "p2", "p3", "label", "D_bits", "F_value", "red_margin"], rows, meta)
    if grid.nesting_violations:
        print(f"region nesting violated at {grid.nesting_violations} points", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


def cmd_sweep(args):
    g, _ = parse_vector(args.gamma, args.rationalize)
    gamma = np.diag(g.astype(complex))
    # --grid sizes nothing: it is validated and echoed so that existing
    # command lines run unchanged
    cs.check_grid(args.grid)
    rep = cs.bloch_level_set(gamma, args.level, theta_points=args.theta_points)
    d = rep.diagnostics
    rows = [
        ("max_F", d["theta_rho"], float(rep.rho.data[0, 1].real * 2.0),
         float(rep.rho.data[0, 0].real * 2.0 - 1.0), args.level, math.sqrt(d["F_rho"])),
        ("min_F", d["theta_rho_prime"], float(rep.rho_prime.data[0, 1].real * 2.0),
         d["rho_prime_diag"][0] * 2.0 - 1.0, args.level, math.sqrt(d["F_rho_prime"])),
    ]
    rows += [("level", th, x, z, args.level, math.sqrt(fv))
             for th, x, z, fv in d["level_set"]]
    meta = {"command": "sweep", "gamma": args.gamma, "level": args.level,
            "grid": args.grid, "theta_bloch": _fmt(d["theta_bloch"]),
            "F_gap": _fmt(d["F_gap"]),
            "rho_prime_diag": "{}|{}".format(_fmt(d["rho_prime_diag"][0]),
                                             _fmt(d["rho_prime_diag"][1]))}
    emit(args, ["which", "theta_or_coords", "x", "z", "D_bits", "sqrtF"], rows, meta)
    return 0


def cmd_pairs(args):
    mu = args.mu if args.mu is not None else 1.0 - 1.0 / math.log2(3.0)
    builders = {"athermal": lambda: cs.build_athermal_qutrit_pair(args.big_d, args.eps_param),
                "entanglement": lambda: cs.build_entanglement_pair(args.dim, args.kappa),
                "coherence": lambda: cs.build_coherence_pair(args.coh_dim, args.coh_eps, mu)}
    which = args.which
    rows = []
    for name, build in builders.items():
        if which in (name, "all"):
            r = build()
            rows.append((name, r.d_gap, r.fid_gap, r.conditions_met["relent_ordered"],
                         r.conditions_met["fidelity_reversed"]))
    emit(args, ["pair", "D_gap_bits", "sqrtF_gap", "relent_ordered", "fidelity_reversed"],
         rows, {"command": "pairs", "which": which})
    return 0


def cmd_bound(args):
    hp = cs.build_athermal_qutrit_pair(args.big_d, args.eps_param)
    th = mn.Athermality(hp.diagnostics["gibbs"])
    eps_list = [float(e) for e in args.eps_list.split(",")]
    curve = ct.scaling_curve(hp.rho, hp.rho_prime, th, eps_list, alpha=args.alpha)
    rows = list(zip(curve.eps_list, curve.lower_bound_bits, curve.upper_bound_bits,
                    curve.n_used.tolist(), [curve.gamma_used] * len(curve.eps_list)))
    emit(args, ["eps", "lower_bits", "upper_bits", "n_used", "gamma_used"], rows,
         {"command": "bound", "alpha": args.alpha, "D": args.big_d,
          "lower_slope": _fmt(curve.lower_slope),
          "lower_residual": _fmt(curve.lower_residual),
          "upper_slope": _fmt(curve.upper_slope),
          "slope_ratio": _fmt(curve.slope_ratio)})
    return 0


def cmd_exponent(args):
    p1, _ = parse_vector(args.p1, args.rationalize)
    q1, _ = parse_vector(args.q1, args.rationalize)
    p2, _ = parse_vector(args.p2, args.rationalize)
    q2, _ = parse_vector(args.q2, args.rationalize)
    first = ct.error_exponent_first_order(p1, q1, p2, q2)
    if args.optimized:
        opt = ct.error_exponent_optimized(p1, q1, p2, q2)
        rows = [(first, opt.gamma, opt.delta1, opt.delta2, opt.kappa)]
        header = ["first_order_bits", "optimized_bits", "delta1", "delta2", "kappa"]
    else:
        rows = [(first,)]
        header = ["first_order_bits"]
    emit(args, header, rows, {"command": "exponent"})
    return 0


def cmd_catalyst(args):
    p, _ = parse_vector(args.rho, args.rationalize)
    pp, _ = parse_vector(args.rho_prime, args.rationalize)
    e, _ = parse_vector(args.eta, args.rationalize)
    ep, _ = parse_vector(args.eta_prime, args.rationalize)
    rep = ct.duan_catalyst(p, pp, e, ep, n=args.n, xi_mode=args.xi_mode)
    emit(args, ["n", "D_bits", "bound_bits", "P_tau", "xi_eps0", "marginal_dev"],
         [(rep.blocks.n, rep.d_nu_gamma, rep.free_energy_bound, rep.p_tau, rep.xi_eps0,
           rep.marginal_dev)],
         {"command": "catalyst", "rho": args.rho, "rho_prime": args.rho_prime,
          "eta": args.eta, "eta_prime": args.eta_prime, "xi_mode": args.xi_mode,
          "block_dims": "|".join(str(b) for b in rep.blocks.block_dims)})
    return 0


def cmd_verify(args):
    names = [s.strip() for s in args.suite.split(",")]
    results = vf.run_suites(names, seed=args.seed)
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        line = f"{status} {r.suite}.{r.name}"
        if r.detail:
            line += f" ({r.detail})"
        print(line)
    if failed:
        print(f"FAILED invariant: {failed[0].suite}.{failed[0].name}", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="resmono",
                                 description="resource-monotone numerics toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default="-")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rationalize", type=int, default=None,
                       help="turn decimal inputs into fractions with bounded denominator")

    p = sub.add_parser("divergence", help="pointwise divergence values")
    common(p)
    p.add_argument("--kind", choices=["sandwiched", "petz", "umegaki", "dmax", "classical"],
                   default="sandwiched")
    p.add_argument("--alpha", default="1")
    p.add_argument("--rho", help="JSON matrix file")
    p.add_argument("--sigma", help="JSON matrix file")
    p.add_argument("--p", help="inline classical vector")
    p.add_argument("--q", help="inline classical vector")
    p.set_defaults(fn=cmd_divergence)

    p = sub.add_parser("monotone", help="free-set minimization")
    common(p)
    p.add_argument("--theory", choices=["athermality", "coherence", "entanglement"],
                   required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--state", help="JSON matrix file")
    p.add_argument("--p", help="inline classical vector")
    p.add_argument("--gamma", help="inline Gibbs vector")
    p.add_argument("--gamma-file", dest="gamma_file", help="JSON matrix file")
    p.add_argument("--dims", default="2,2", help="dA,dB for entanglement")
    p.set_defaults(fn=cmd_monotone)

    p = sub.add_parser("smooth", help="smoothed divergences / appendix suite")
    common(p)
    p.add_argument("--appendix-b", action="store_true", dest="appendix_b")
    p.add_argument("--alpha", type=float, default=0.75)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--ball", choices=["subnormalized", "normalized", "trace"],
                   default="subnormalized")
    p.add_argument("--rho", help="JSON matrix file")
    p.add_argument("--sigma", help="JSON matrix file")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iters", type=int, default=500)
    p.set_defaults(fn=cmd_smooth)

    p = sub.add_parser("regions", help="simplex region classifier")
    common(p)
    p.add_argument("--p", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--alpha-points", dest="alpha_points", type=int, default=64)
    p.set_defaults(fn=cmd_regions)

    p = sub.add_parser("sweep", help="qubit Bloch-plane level-set sweep")
    common(p)
    p.add_argument("--gamma", required=True)
    p.add_argument("--level", type=float, default=2.0)
    p.add_argument("--grid", type=int, default=400,
                   help="validated (>= 1) and echoed in the meta lines only; kept so that "
                        "existing command lines run unchanged")
    p.add_argument("--theta-points", dest="theta_points", type=int, default=720)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("pairs", help="hard-to-transform pair constructions")
    common(p)
    p.add_argument("--which", choices=["athermal", "entanglement", "coherence", "all"],
                   default="all")
    p.add_argument("--D", dest="big_d", type=int, default=10 ** 4)
    p.add_argument("--eps-param", dest="eps_param", type=float, default=0.1)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--kappa", type=float, default=2.0 / 3.0)
    p.add_argument("--coh-dim", dest="coh_dim", type=int, default=4)
    p.add_argument("--coh-eps", dest="coh_eps", type=float, default=0.5)
    p.add_argument("--mu", type=float, default=None)
    p.set_defaults(fn=cmd_pairs)

    p = sub.add_parser("bound", help="catalyst bound curves")
    common(p)
    p.add_argument("--D", dest="big_d", type=int, default=10 ** 4)
    p.add_argument("--eps-param", dest="eps_param", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--eps-list", dest="eps_list",
                   default="1e-1,1e-2,1e-3,1e-4,1e-5,1e-6")
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("exponent", help="error-exponent bounds")
    common(p)
    p.add_argument("--p1", required=True)
    p.add_argument("--q1", required=True)
    p.add_argument("--p2", required=True)
    p.add_argument("--q2", required=True)
    p.add_argument("--optimized", action="store_true")
    p.set_defaults(fn=cmd_exponent)

    p = sub.add_parser("catalyst", help="block-catalyst construction")
    common(p)
    p.add_argument("--rho", required=True)
    p.add_argument("--rho-prime", dest="rho_prime", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--eta-prime", dest="eta_prime", required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--xi-mode", dest="xi_mode", default="exact_surrogate")
    p.set_defaults(fn=cmd_catalyst)

    p = sub.add_parser("verify", help="run invariant suites")
    common(p)
    p.add_argument("--suite", default="all",
                   help="comma list of suites or 'all'")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): send the unflushed rest, which
        # Python flushes again at exit, to devnull, as the signal docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:       # every InputError, and malformed numbers
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResmonoError as exc:     # NumericalFailure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
