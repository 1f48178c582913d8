"""Layered benchmark for bff: four seeded workloads, checked end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. The
workloads are cli-oneshot, batch-reanalysis, meta-combine and oracle-verify
(see WORKLOADS). With --trace 0 the last line of stdout is a JSON object with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run. Lines before it give the same numbers for people,
including error_rate and the tail percentile with its sample count. Details,
provenance and spans are written under .bench_out/.

This file uses the standard library only: every process that imports bff is
a fresh worker (worker.py), started with one BLAS/OpenMP thread, so warm
modules never hide import cost.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent

WORKLOADS = {
    "cli-oneshot": {
        "why": "interactive use: import is ~90% of each invocation, curve compute "
               "under 1%, so this shows the import and serving-path split",
        "size": "closed loop, 1 client, one python -m bff.cli subprocess at a time, "
                "cycling z, chisq --threshold, f, two-sample t and combine of 2-5 "
                "studies --per-study --format svg --out; n 10-10^4",
    },
    "batch-reanalysis": {
        "why": "re-analysing a literature: many small curves, so scalar refinement, "
               "bisection and export rendering carry most of each op",
        "size": "2003 recorded ops (the 3 paper examples first, then a seeded order): "
                "evaluate_bff or, for 1 in 10, combine of 2, on 50-500 step grids, "
                "1-3 thresholds, build_export and render to csv/json/svg; all 7 "
                "designs; n 10-10^4",
    },
    "meta-combine": {
        "why": "one large meta-analysis per op: the grid sweep through effect_sizes "
               "and bayes_factors dominates; exports and the CLI barely run",
        "size": "each cycle runs one recorded op of each size class (studies x "
                "steps): 2x100000, 6x33000, 20x10000, 60x3300, 200x1000, 200x500; "
                "mixed designs, one threshold, export built but not rendered",
    },
    "oracle-verify": {
        "why": "the verification path behind most of the test suite's time: only "
               "oracle, numerics and priors work here",
        "size": "330 recorded log_bf_quadrature points; each cycle takes one t, chisq "
                "and F point from each of 10 cost strata plus one z point; tau2 0.1-10, "
                "t 0.5-4 on 2-40 df, chisq 1-20 on 1-10 df, F 0.3-6 on (1-8, 10-120) "
                "df, z 0.5-4; checked against the closed form",
    },
}

SETUP_RUNS = 5          # set-up-only workers per run; setup_s is their median
IMPORT_RUNS = 3         # fresh interpreters behind import.bff_s
WORKER_TIMEOUT = 150.0  # seconds; a whole run must end within 180
IMPORT_PROBE = (
    "import sys, json; import bff; "
    "print(json.dumps([len(sys.modules), int('scipy' in sys.modules)]))"
)


class BenchError(Exception):
    """The benchmark could not run; no result line is printed."""


def thread_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    return env


def run_worker(root: Path, env: dict, args, mode: str):
    """Start worker.py and wait for it to end.

    Returns the seconds from spawn to READY, and then, for a set-up-only
    worker, the same scaled by the bare interpreter starts just before the
    spawn and just after the exit, or else the worker's result.
    """
    out = root / ".bench_out" / f"worker-{mode}.json"
    if out.exists():
        out.unlink()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out", str(out)]
    before = calibrate.spawns(env) if mode == "setup" else []
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        line = proc.stdout.readline() if ready else b""
        setup = perf_counter() - t0
        if line.strip() != b"READY":
            raise BenchError(f"worker ({mode}) did not finish set-up")
        rest = proc.communicate(timeout=WORKER_TIMEOUT)[0]
        if proc.returncode != 0:
            raise BenchError(f"worker ({mode}) exited {proc.returncode}: {rest[-500:]!r}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if mode == "setup":
        return setup, setup * calibrate.spawn_scale(before, calibrate.spawns(env))
    with open(out, encoding="utf-8") as fh:
        return setup, json.load(fh)


def import_probe(root: Path, env: dict) -> dict:
    """import.* metrics, each from a fresh interpreter."""
    walls, seen = [], None
    for _ in range(IMPORT_RUNS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"import bff failed: {proc.stderr.decode()[-500:]}")
        seen = json.loads(proc.stdout)
    return {"import.bff_s": statistics.median(walls), "import.modules_loaded": seen[0],
            "import.scipy_loaded": seen[1]}


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples); with ten samples or fewer there is
    no such percentile and the maximum is reported as p100.
    """
    xs = sorted(times_ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(times_ms: list[float], setups_s: list[float], res: dict) -> dict:
    """The end-to-end metrics from per-op times and set-up times."""
    value, pct, n = tail(times_ms)
    return {
        "ops_per_s": len(times_ms) / (sum(times_ms) / 1e3),
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_tail": value,
        "setup_s": statistics.median(setups_s),
        "peak_rss_mb": res["peak_rss_mb"],
        "tail": (pct, n),
    }


def provenance(root: Path, args, worker: dict) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "python": worker.get("python"),
        "numpy": worker.get("numpy"), "scipy": worker.get("scipy"),
        "nproc": os.cpu_count(), "cpu": cpu, **WORKLOADS[args.workload],
    }


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "bff" / "__init__.py").is_file():
        print("error: run from the root of a bff checkout (no src/bff here)",
              file=sys.stderr)
        return 2
    try:
        return report(root, args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def report(root: Path, args) -> int:
    spec = load_spec(root)
    (root / ".bench_out").mkdir(exist_ok=True)
    env = thread_env(root)
    # compile and cache the package once, outside every measurement
    subprocess.run([sys.executable, "-c", "import bff"], cwd=root, env=env, check=True,
                   stdin=subprocess.DEVNULL, timeout=60)

    lines = []
    if args.trace:
        layers = import_probe(root, env)
        _, res = run_worker(root, env, args, "trace")
        layers.update(res["per_layer"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {k: {"value": float(layers[k]), "unit": units[k]} for k in units}
        for k in units:
            lines.append(f"{k} {layers[k]:.6g} {units[k]}"
                         f"  [{res['sources'].get(k, 'fresh interpreters')}]")
    else:
        setups = [run_worker(root, env, args, "setup") for _ in range(SETUP_RUNS)]
        _, res = run_worker(root, env, args, "measure")
        if not res["times"]:
            raise BenchError("no op passed its check")
        raw = end_to_end([1e3 * t for t in res["times"]], [s[0] for s in setups], res)
        values = end_to_end([1e3 * t for t in res["scaled"]], [s[1] for s in setups], res)
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            k = m["name"]
            note = "" if k == "peak_rss_mb" else f"  (unscaled {raw[k]:.6g})"
            if k == "op_ms_tail":
                note += "  p{:.1f} of {} ops".format(*values["tail"])
            lines.append(f"{k} {values[k]:.6g} {m['unit']}{note}")
        lines.append(f"error_rate {res['failed'] / res['attempted']:.6g} ratio  "
                     f"({res['failed']} of {res['attempted']} ops failed)")
        res["raw"] = raw
        res["setups_s"] = setups

    details = {"provenance": provenance(root, args, res), "metrics": metrics,
               "attempted": res["attempted"], "failed": res["failed"],
               "failures": res["failures"],
               **{k: v for k, v in res.items() if k in ("sources", "spans", "setups_s", "raw",
                                                        "untraced_ops_per_s",
                                                        "traced_ops_per_s")}}
    out = root / ".bench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1), encoding="utf-8")

    prov = details["provenance"]
    print(f"# {args.workload} seed {args.seed}: {prov['size']}")
    print(f"# commit {prov['commit']}; python {prov['python']}, numpy {prov['numpy']}, "
          f"scipy {prov['scipy']}; {prov['nproc']} cpus, {prov['cpu']}")
    for line in lines:
        print(line)
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
