"""One benchmark process: set up a workload, then measure or trace it.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,measure,trace} --out RESULT.json

run.py starts this in a fresh interpreter and times it from process start
until the line READY, which is printed once `import bff`, input generation and
warm-up are done. In `setup` mode the process then exits; `measure` runs ops
for S seconds of calibrated op time (see calibrate.py) with tracing off;
`trace` runs S/2 such seconds untraced, then a fixed number of ops under the
span shims, then the fixed layer probes. Results go to --out as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import calibrate
import workloads  # imports bff

import bff.bayes_factors as bayes_factors
import bff.cli as cli
import bff.oracle as oracle
from bff.bayes_factors import Family, TestStatistic

BLOCK_S = 0.05      # seconds of ops between two calibration bursts
WALL_LIMIT_S = 100  # no timed window runs longer, whatever the machine's speed

# ops under the shims per traced run; the counts then repeat exactly for a seed
TRACED_OPS = {"cli-oneshot": 5, "batch-reanalysis": 300, "meta-combine": 3,
              "oracle-verify": 10}

# the README's five commands, plus z as JSON so that every format is rendered
CLI_PROBE = (
    ["z", "--stat", "2", "--n", "100"],
    ["chisq", "--stat", "12.65", "--df", "6", "--n", "707", "--mapping", "multinomial",
     "--threshold", "0.2"],
    ["f", "--stat", "1.99", "--df1", "2", "--df2", "137", "--n", "140"],
    ["t", "--stat", "2.5", "--df", "20", "--n1", "11", "--n2", "11"],
    ["combine", "--studies", "{studies}", "--per-study", "--format", "svg",
     "--out", "{out}"],
    ["z", "--stat", "2", "--n", "100", "--format", "json"],
)
ORACLE_PROBE = (
    TestStatistic(Family.Z, 2.0),
    TestStatistic(Family.T, 2.0, df1=10),
    TestStatistic(Family.CHISQ, 8.0, df1=4),
    TestStatistic(Family.F, 2.5, df1=3, df2=30),
)


def run_ops(wl, seconds: float | None, max_ops: int | None = None, tracer=None):
    """Run ops from index 0 until `seconds` of op time or max_ops are spent.

    Ops are timed in blocks of about BLOCK_S with a calibration burst between
    blocks, and each op's time is also given scaled by the bursts on either
    side of its block. The time budget counts scaled op time and ends on a
    whole cycle of the workload's input classes, so every run has the same
    cost mix and about the same number of ops, whatever the seed and however
    fast the machine is at the moment.
    """
    times, scaled, indices, failures, attempted = [], [], [], [], 0
    block, before = [], calibrate.burst()
    factor = calibrate.scale(before)  # provisional, for the open block
    spent = 0.0                       # scaled op seconds in closed blocks
    wall_limit = perf_counter() + WALL_LIMIT_S
    block_start = perf_counter()

    def close_block():
        nonlocal block, before, block_start, factor, spent
        after = calibrate.burst()
        exact = calibrate.scale(before + after)
        scaled.extend(t * exact for t in block)
        spent += exact * sum(block)
        block, before, block_start, factor = [], after, perf_counter(), calibrate.scale(after)

    def more() -> bool:
        if max_ops is not None:
            return attempted < max_ops and perf_counter() < wall_limit
        in_budget = spent + factor * sum(block) < seconds
        return (in_budget or attempted % wl.cycle) and perf_counter() < wall_limit

    i = 0
    while more():
        case = wl.case(i)
        attempted += 1
        try:
            if tracer is None:
                t0 = perf_counter()
                result = wl.run(case)
                dt = perf_counter() - t0
            else:
                with tracer.span("op", wl.studies_in(case)) as s:
                    result = wl.run(case)
                dt = tracer.end[s] - tracer.start[s]
            why = wl.check(case, result, i)
        except Exception as e:  # an op that raises is a failed op, not a crash
            why = f"{type(e).__name__}: {e}"
        if why is None:
            times.append(dt)
            block.append(dt)
            indices.append(i)
        else:
            failures.append(f"op {i}: {why}")
        i += 1
        if perf_counter() - block_start >= BLOCK_S:
            close_block()
    if block:
        close_block()
    return {"times": times, "scaled": scaled, "indices": indices, "attempted": attempted,
            "failed": len(failures), "failures": failures[:20]}


def cli_main_probe(root: Path, tracer=None) -> list[float]:
    """bff.cli.main on CLI_PROBE, in process, output discarded."""
    tmp = root / ".bench_out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    studies = tmp / "readme-studies.json"
    studies.write_text(json.dumps({"studies": workloads.REPLICATION_STUDIES}), encoding="utf-8")
    times = []
    for argv in CLI_PROBE:
        argv = [a.format(studies=studies, out=tmp / "readme.svg") for a in argv]
        width = len(workloads.REPLICATION_STUDIES) if argv[0] == "combine" else 1
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            if tracer is None:
                t0 = perf_counter()
                code = cli.main(argv)
                times.append(perf_counter() - t0)
            else:
                with tracer.span("probe.cli", width):
                    code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"bff {' '.join(argv)} exited {code}")
    return times


def log_bf_ns_per_call() -> dict[str, float]:
    """Median ns per log_bf call over a fixed batch, per family."""
    tau2s = [0.01 * 1.01**j for j in range(1000)]
    out = {}
    for stat in ORACLE_PROBE:
        runs = []
        for _ in range(5):
            t0 = perf_counter()
            for tau2 in tau2s:
                bayes_factors.log_bf(stat, tau2)
            runs.append((perf_counter() - t0) / len(tau2s))
        out[stat.family.value] = 1e9 * statistics.median(runs)
    return out


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def trace(wl, args, root: Path) -> dict:
    import tracing

    untraced = run_ops(wl, args.seconds / 2.0)
    cli_ms = [1e3 * t for _ in range(3) for t in cli_main_probe(root)]
    ns = log_bf_ns_per_call()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_ops(wl, None, TRACED_OPS[args.workload], tracer)
        cli_main_probe(root, tracer)
        for stat in ORACLE_PROBE:
            with tracer.span("probe.oracle", 1):
                oracle.log_bf_quadrature(stat, 1.0)
    finally:
        tracer.uninstall()
    tracer.save(root / ".bench_out" / f"spans-{args.workload}.npz")

    scopes = [tracing.layer_metrics(tracer, root_name)
              for root_name in ("op", "probe.cli", "probe.oracle")]
    per_layer, sources = {}, {}
    for key in scopes[0]:
        # a layer the workload's ops never reach is measured on the probes
        for scope, label in zip(scopes, ("workload", "probe.cli", "probe.oracle")):
            value, basis = scope[key]
            if basis:
                per_layer[key], sources[key] = value, label
                break
        else:
            per_layer[key], sources[key] = scopes[0][key][0], "none"
    per_layer["cli.main_ms"] = statistics.median(cli_ms)
    sources["cli.main_ms"] = "in process, untraced"
    for family, v in ns.items():
        per_layer[f"bayes_factors.ns_per_call.{family}"] = v
        sources[f"bayes_factors.ns_per_call.{family}"] = "fixed batch, untraced"
    # the same ops, from index 0, with and without the shims
    k = traced["attempted"]
    same = [t for t, i in zip(untraced["scaled"], untraced["indices"]) if i < k]
    rate = len(same) / sum(same) if same else 0.0
    traced_rate = len(traced["scaled"]) / sum(traced["scaled"]) if traced["scaled"] else 0.0
    per_layer["trace.overhead_ratio"] = traced_rate / rate if rate else 0.0
    sources["trace.overhead_ratio"] = f"first {k} ops, traced over untraced"
    return {
        "per_layer": per_layer,
        "sources": sources,
        "spans": len(tracer.name),
        "untraced_ops_per_s": rate,
        "traced_ops_per_s": traced_rate,
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "failures": untraced["failures"] + traced["failures"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    root = Path.cwd()

    wl = workloads.make(args.workload, args.seed, root)
    wl.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "measure":
        result = run_ops(wl, args.seconds)
    else:
        result = trace(wl, args, root)
    result.update(
        peak_rss_mb=peak_rss_mb(args.workload),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        scipy=scipy.__version__,
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
