"""Run one resmono benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload smooth_dp --seed 1 --seconds 20 --trace 0

Run from the repository root; resmono is imported from ./src. The run:

1. times SETUP_PROBES fresh interpreters, each doing what this process does
   before its first timed op (imports, inputs from the seed, one warm-up op of
   each kind), and reports their median as setup_s;
2. does the same set-up in this process, then repeats whole passes over the
   workload's ops until --seconds have elapsed, timing each op at its call
   into resmono's public API;
3. checks every output after the timed window and prints
   {"correct", "attempted", "failed", "metrics"} as the last stdout line.

--trace 1 skips the set-up probes, runs the same passes with every layer
boundary wrapped by tracing.Tracer and prints the per-layer metrics instead.
Run records and span files go to perfbench/runs/.
"""

import os
import sys

# one process, one thread: pin BLAS before numpy loads and drop the package's
# own thread-pool override
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RESMONO_THREADS", None)

import argparse
import gc
import json
import resource
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(HERE, "runs")

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}

CLI_SUBCOMMANDS = ("divergence", "monotone", "smooth", "regions", "sweep", "pairs",
                   "bound", "exponent", "catalyst")

# (metric, unit, how, span or layer name[, totals key])
#   calls: calls of a span name (or of every span of a layer) per op
#   self:  self time of a layer per op
#   per_call: inclusive seconds per call of a span name
#   total: a summed value recorded at a span (flops, nfev, nit, bytes) per op
PER_LAYER = [
    ("linalg.calls_per_op", "count", "calls", "linalg"),
    *[(f"linalg.{f}.calls_per_op", "count", "calls", f"linalg.{f}")
      for f in ("eigh", "eigvalsh", "svd", "inv")],
    ("linalg.self_s_per_op", "s", "self", "linalg"),
    ("linalg.flops_per_op", "count", "total", "linalg", "flops"),
    ("qmat.calls_per_op", "count", "calls", "qmat"),
    ("qmat.self_s_per_op", "s", "self", "qmat"),
    ("divergences.calls_per_op", "count", "calls", "divergences"),
    ("divergences.self_s_per_op", "s", "self", "divergences"),
    ("smoothing.smoothed_sandwiched.calls_per_op", "count", "calls",
     "smoothing.smoothed_sandwiched"),
    ("smoothing.smoothed_sandwiched.s_per_call", "s", "per_call",
     "smoothing.smoothed_sandwiched"),
    ("smoothing.self_s_per_op", "s", "self", "smoothing"),
    ("monotones.fidelity_coherence_primal.s_per_call", "s", "per_call",
     "monotones.fidelity_coherence_primal"),
    ("monotones.fidelity_coherence_dual.s_per_call", "s", "per_call",
     "monotones.fidelity_coherence_dual"),
    ("monotones.self_s_per_op", "s", "self", "monotones"),
    ("optimize.minimize.nfev_per_op", "count", "total", "optimize.minimize", "nfev"),
    ("optimize.minimize.nit_per_op", "count", "total", "optimize.minimize", "nit"),
    ("optimize.minimize.self_s_per_op", "s", "self", "optimize"),
    ("constructions.bloch_sweep.s_per_call", "s", "per_call", "constructions.bloch_sweep"),
    ("constructions.classify_simplex_regions.s_per_call", "s", "per_call",
     "constructions.classify_simplex_regions"),
    ("constructions.self_s_per_op", "s", "self", "constructions"),
    ("catalysis.scaling_curve.s_per_call", "s", "per_call", "catalysis.scaling_curve"),
    ("catalysis.error_exponent_optimized.s_per_call", "s", "per_call",
     "catalysis.error_exponent_optimized"),
    ("catalysis.self_s_per_op", "s", "self", "catalysis"),
    *[(f"cli.{c}.s_per_call", "s", "per_call", f"cli.{c}") for c in CLI_SUBCOMMANDS],
    ("cli.emit.s_per_call", "s", "per_call", "cli.emit"),
    ("cli.emit.bytes_per_op", "B", "total", "cli.emit", "bytes"),
    ("cli.self_s_per_op", "s", "self", "cli"),
]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["smooth_dp", "coherence_certify", "cli_readme"])
    ap.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def set_up(name, seed):
    """Imports, the first round's inputs and one warm-up op of each kind:
    everything before the first timed op."""
    sys.path.insert(0, SRC)
    import workloads
    wl = workloads.WORKLOADS[name](seed)
    first = wl.make_round(0)
    for op in wl.warmups:
        op.call()
    return wl, first


def time_setup(args):
    """Wall time from spawning a fresh interpreter to its 'ready' line, per probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(t1 - t0)
    return samples


def timed_rounds(wl, first, seconds, tracer=None):
    """Whole rounds until `seconds` of op time: [(op, seconds, output, error)], op time.

    Later rounds' inputs are made between rounds, outside the timed window.
    When tracing, every round reruns the first round's inputs, so per-op
    counts do not depend on how many rounds fit in the window."""
    records, busy, k = [], 0.0, 0
    ops = first
    while True:
        gc.collect()
        start = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.set_op(len(records))
            t0 = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:        # an op that raises counts as failed
                out, err = None, exc
            records.append((op, time.perf_counter() - t0, out, err))
        busy += time.perf_counter() - start
        k += 1
        if busy >= seconds:
            return records, busy
        if tracer is None:
            ops = wl.make_round(k)


def check_records(records):
    """Per record, its failures; and whether every failure is a known program fault."""
    failures, correct = [], True
    for op, _, out, err in records:
        fails = [("raised", repr(err))] if err is not None else op.check(out)
        if any(code not in op.known_faults for code, _ in fails):
            correct = False
        failures.append(fails)
    return failures, correct


def per_layer_metrics(per_name, totals, n_ops):
    def layer_of(n):
        return n.split(".")[0]

    def over(target, key):
        if "." in target:
            return per_name.get(target, {}).get(key, 0)
        return sum(v[key] for n, v in per_name.items() if layer_of(n) == target)

    out = {}
    for name, unit, how, target, *key in PER_LAYER:
        if how == "calls":
            value = over(target, "calls") / n_ops
        elif how == "self":
            value = over(target, "self_s") / n_ops
        elif how == "per_call":
            calls = over(target, "calls")
            value = over(target, "incl_s") / calls if calls else 0.0
        else:
            value = sum(v for (n, k), v in totals.items()
                        if k == key[0] and (n == target or layer_of(n) == target)) / n_ops
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "resmono", "__init__.py")):
        print(f"resmono sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_samples = [] if args.trace else time_setup(args)
    wl, first = set_up(args.workload, args.seed)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        records, window = timed_rounds(wl, first, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, correct = check_records(records)
    attempted = len(records)
    failed = sum(1 for f in failures if f)
    times = [dt for _, dt, _, _ in records]
    ops_per_s = (attempted - failed) / window

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        per_name = tracer.per_name()
        metrics = per_layer_metrics(per_name, tracer.totals, attempted)

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}_{os.getpid()}"
    os.makedirs(RUNS_DIR, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setup_samples, "window_s": window,
        "rounds": attempted // len(first), "peak_rss_mb": peak_rss_mb,
        "ops": [{"label": op.label, "seconds": dt, "failures": f}
                for (op, dt, _, _), f in zip(records, failures)],
        "metrics": metrics,
    }
    if tracer is not None:
        record["spans"] = per_name
        record["totals"] = {f"{n}:{k}": v for (n, k), v in tracer.totals.items()}
        # one span file per workload, replaced by each traced run
        tracer.save(os.path.join(RUNS_DIR, f"{args.workload}.spans.npz"))
    with open(os.path.join(RUNS_DIR, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for (op, _, _, _), fails in zip(records, failures):
        for code, msg in fails:
            print(f"FAIL {op.label}: {code}: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
