"""Run one twopatch benchmark workload and print its metrics.

From the repository root:

    python3 bench/run.py --workload persistence --seed 1 --seconds 24 --trace 0

Load is a closed loop: this one process issues one operation at a time and
every config uses threads = 1. setup_s is the median wall time of three fresh
interpreters that each import twopatch, generate the inputs and run the
workload's untimed warm-up op. The run then sets up once itself and repeats
the workload's pass (the same inputs each time) until the next pass would end
after --seconds, with at least two passes. Every op's output is checked after
the pass, outside the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with no
wrapper installed. --trace 1 alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, plus trace.overhead_s (traced minus
untraced pass wall time).

The last line of standard output is one JSON object. The run record
(provenance, each op's config and check, spans) goes under .bench_runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3
MIN_PASSES = 2
RUNS_DIR = ".bench_runs"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("persistence", "dynamics", "phase"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up and exit (one setup_s sample)")
    return parser.parse_args(argv)


def pin_threads() -> dict[str, str]:
    """One BLAS/OpenMP thread per pool (<= nproc), set before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def source_digest(package_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unavailable ({type(exc).__name__})"
    return out.stdout.strip()


def setup(workload_name: str, seed: int):
    """Import, input generation and the untimed warm-up ops."""
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed)
    warm_dir = os.path.join(RUNS_DIR, f"warm-up-{workload_name}-{os.getpid()}")
    run_ops(workload.warm_up, warm_dir)
    shutil.rmtree(warm_dir)
    return workload


def run_ops(ops, pass_dir: str, tracer=None, first_id: int = 0):
    """Run ops in order, one at a time; returns (records, outputs, wall seconds).

    Only the op calls are timed. A failing op is recorded and the pass goes on.
    """
    import workloads
    from twopatch import cli

    records, outputs = [], {}
    wall = 0.0
    scope = tracer.installed() if tracer is not None else contextlib.nullcontext()
    with scope:
        for k, op in enumerate(ops):
            op_dir = os.path.join(pass_dir, op.name)
            os.makedirs(op_dir, exist_ok=True)
            if op.command is not None:
                with open(os.path.join(op_dir, "config.txt"), "w") as fh:
                    fh.write(cli.emit_config(op.config))
            if tracer is not None:
                tracer.op = first_id + k
            error = None
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                try:
                    outputs[op.name] = op.run(op_dir)
                except workloads.CheckFailed as exc:
                    error = str(exc)
                except Exception:  # an op failure is a result, not a crash
                    error = traceback.format_exc(limit=3)
                seconds = time.perf_counter() - start
            wall += seconds
            records.append({"id": first_id + k, "name": op.name, "s": seconds, "error": error,
                            "known_defect": op.known_defect, "timer": op.timer})
    return records, outputs, wall


def check_ops(ops, records, outputs, pass_dir: str) -> None:
    """Judge each op's output; fills ok, detail and values in its record."""
    import workloads

    for op, rec in zip(ops, records):
        rec["ok"], rec["detail"], rec["values"] = False, rec["error"], {}
        if rec["error"] is not None:
            continue
        try:
            rec["values"] = op.check(outputs[op.name], os.path.join(pass_dir, op.name), outputs)
            rec["ok"], rec["detail"] = True, ""
        except workloads.CheckFailed as exc:
            rec["detail"] = str(exc)
        except Exception:  # a crashing check fails its op, never the run
            rec["detail"] = traceback.format_exc(limit=3)


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes, setup_samples) -> tuple[dict, dict, dict]:
    """End-to-end metric values, their sample counts, and the printed-only
    metrics as (value, unit, count)."""
    ops = [rec for p in passes for rec in p["ops"]]
    timed = {name: [r["s"] for r in ops if r["timer"] == name]
             for name in ("threshold", "solve")}
    # A pass mixes cheap and costly eigenvalue answers in a fixed proportion;
    # the per-pass mean keeps that mix, where a per-answer median would land
    # between the two cost classes.
    lambda_per_pass = [statistics.mean(r["s"] for r in p["ops"] if r["timer"] == "lambda")
                       for p in passes]
    errors = [v for r in ops for k, v in r["values"].items()
              if k in ("lambda_err", "growth_rate_err")]
    failed = sum(not r["ok"] for r in ops)
    values = {
        "setup_s": median(setup_samples),
        "wall_s": median([p["wall_s"] for p in passes]),
        "lambda_s": median(lambda_per_pass),
        "closed_form_err": max(errors, default=0.0),
        "pass_frac": (len(ops) - failed) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": len(setup_samples), "wall_s": len(passes),
              "lambda_s": len(passes), "closed_form_err": len(errors),
              "pass_frac": len(ops), "peak_rss_mb": 1}
    # Printed only: the metrics that exist on some workloads alone.
    extra = {"failed_frac": (failed / len(ops), "frac", len(ops))}
    for name in ("threshold", "solve"):
        if timed[name]:
            extra[name + "_s"] = (median(timed[name]), "s", len(timed[name]))
    for key, worst, unit in (("lambda_err", max, "1/t"), ("growth_rate_err", max, "1/t"),
                             ("phase_agree", min, "frac")):
        vals = [r["values"][key] for r in ops if key in r["values"]]
        if vals:
            extra[key] = (worst(vals), unit, len(vals))
    return values, counts, extra


def per_layer(passes) -> tuple[dict, dict]:
    from tracing import layer_metrics

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    layers = [layer_metrics(p["spans"]) for p in traced]
    values = {key: median([m[key] for m in layers]) for key in layers[0]}
    values["trace.overhead_s"] = (median([p["wall_s"] for p in traced])
                                  - median([p["wall_s"] for p in untraced]))
    counts = {key: len(traced) for key in values}
    return values, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    package = os.path.join(root, "src", "twopatch")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(package, "__init__.py")) and os.path.isfile(spec_path)):
        print("error: run from a twopatch checkout (src/twopatch and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, os.path.join(root, "src"))

    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    with open(spec_path) as fh:
        spec = json.load(fh)
    script = os.path.abspath(__file__)
    setup_samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, script, "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", "1", "--setup-only"],
                       cwd=root, check=True, timeout=170, stdout=subprocess.DEVNULL)
        setup_samples.append(time.perf_counter() - start)

    workload = setup(args.workload, args.seed)
    import numpy
    import scipy
    import twopatch
    from tracing import Tracer

    if os.path.dirname(os.path.abspath(twopatch.__file__)) != package:
        print(f"error: imported twopatch from {twopatch.__file__}", file=sys.stderr)
        return 2

    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                     f"-{stamp}-{os.getpid()}")
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        index = len(passes)
        tracer = Tracer() if args.trace and index % 2 == 1 else None
        pass_dir = os.path.join(run_dir, f"pass{index}")
        records, outputs, wall = run_ops(workload.ops, pass_dir, tracer,
                                         first_id=index * len(workload.ops))
        check_ops(workload.ops, records, outputs, pass_dir)
        passes.append({"pass": index, "traced": tracer is not None, "wall_s": wall,
                       "ops": records, "spans": tracer.spans if tracer else None})
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and (now - start) + (now - began) > args.seconds:
            break

    if args.trace:
        values, counts = per_layer(passes)
        names = spec["per_layer"]
        extra = {}
    else:
        values, counts, extra = end_to_end(passes, setup_samples)
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2

    ops = [rec for p in passes for rec in p["ops"]]
    failed = [r for r in ops if not r["ok"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "git_commit": git_commit(root),
            "source_sha256": source_digest(package),
            "python": sys.version, "numpy": numpy.__version__, "scipy": scipy.__version__,
            "twopatch": twopatch.__version__, "nproc": len(os.sched_getaffinity(0)),
            "thread_env": threads,
        },
        "configs": {op.name: twopatch.cli.emit_config(op.config) for op in workload.ops},
        "setup_samples_s": setup_samples,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "metrics": values, "counts": counts,
    }
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "run.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with gzip.open(os.path.join(run_dir, "spans.json.gz"), "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "passes": [p["spans"] for p in passes if p["traced"]]}, fh)
    for p in passes:
        shutil.rmtree(os.path.join(run_dir, f"pass{p['pass']}"))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} "
          f"({sum(p['traced'] for p in passes)} traced)  ops {len(ops)}  failed {len(failed)} "
          f"({len(failed) - len(unexpected)} known defect)  record {run_dir}")
    prov = record["provenance"]
    print(f"  commit {prov['git_commit']}  src sha256 {prov['source_sha256'][:16]}  "
          f"twopatch {prov['twopatch']}  numpy {prov['numpy']}  scipy {prov['scipy']}  "
          f"python {sys.version.split()[0]}  nproc {prov['nproc']}  threads pinned to 1")
    for r in failed:
        tag = f"known defect {r['known_defect']}" if r["known_defect"] else "FAILED"
        print(f"  op {r['id']} {r['name']}: {tag}: {r['detail'].strip().splitlines()[-1]}")
    units = {m["name"]: m["unit"] for m in names}
    for name, unit in units.items():
        print(f"  {name:44s} {values[name]:<24.10g} {unit:6s} n={counts[name]}")
    for name, (value, unit, n) in extra.items():
        print(f"  {name:44s} {value:<24.10g} {unit:6s} n={n}")
    result = {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
