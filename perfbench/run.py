"""Benchmark of latticecf: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload deep --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py                      # sweep, deep and cli in turn
    python3 perfbench/run.py --trace 1 --out BENCH_label.json

Each workload runs in a fresh process (child.py).  An untraced run starts
SETUPS processes, times each from start to its ready line and reports the
median as setup_s; the middle one goes on to run the workload.  A traced run
(--trace 1) reports the per-layer metrics instead.  The last line of a
single-workload run is one JSON object: correct, attempted, failed and the
metrics BENCHMARK.json names.  Exit status: 0 when every output check
passed, 1 when one failed, 2 when a workload process broke (no result line).
See perfbench/README.md for the metrics, the workloads and why each exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "deep", "cli")
GATED = ("sweep", "cli")  # the workloads BENCHMARK.json names; see README.md
SETUPS = 7  # odd: half before the measuring process, half after, and its own

# every end-to-end metric with its unit; the ones BENCHMARK.json bounds are
# those a workload always has and that are never zero
END_TO_END = (
    ("tasks_per_s", "1/s"), ("task_p50_ms", "ms"), ("task_p90_ms", "ms"), ("task_p99_ms", "ms"),
    ("failed_frac", "ratio"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
)
BOUNDED = ("tasks_per_s", "task_p50_ms", "task_p90_ms", "setup_s", "peak_rss_mib")

# per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("cf.calls", "count"), ("cf.self_s", "s"), ("cf.eval_s", "s"), ("cf.expand_s", "s"),
    ("cf.terms_out", "count"),
    ("lattice.calls", "count"), ("lattice.self_s", "s"), ("lattice.points_out", "count"),
    ("lattice.oracle_s", "s"), ("lattice.oracle_agree_frac", "ratio"),
    ("graphs.calls", "count"), ("graphs.self_s", "s"), ("graphs.contractible_s", "s"),
    ("graphs.minors_s", "s"), ("graphs.fundamental_s", "s"), ("graphs.dense_cells", "count"),
    ("singularities.calls", "count"), ("singularities.self_s", "s"),
    ("singularities.vertices_out", "count"), ("singularities.oracle_s", "s"),
    ("singularities.oracle_agree_frac", "ratio"), ("singularities.cusp_s", "s"),
    ("zigzag.calls", "count"), ("zigzag.self_s", "s"), ("zigzag.render_s", "s"),
    ("zigzag.bytes_out", "bytes"),
    ("cli.spawns", "count"), ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.run_ms", "ms"),
    ("cf.failed", "count"), ("lattice.failed", "count"), ("graphs.failed", "count"),
    ("singularities.failed", "count"), ("zigzag.failed", "count"), ("cli.failed", "count"),
    ("bench.self_s", "s"), ("bench.task_s", "s"), ("trace_overhead_frac", "ratio"),
)
# only deep calls these, so they read 0 on the gated workloads and are left
# out of the result line; the table and --out still give them
DEEP_ONLY = ("graphs.minors_s", "graphs.fundamental_s", "graphs.dense_cells", "singularities.cusp_s",
             "zigzag.render_s", "zigzag.bytes_out")
GATED_LAYER = tuple((n, u) for n, u in PER_LAYER if n not in DEEP_ONLY)


class WorkloadBroke(Exception):
    pass


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_info(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
        "seed": seed,
        "commit": _git_commit(),
    }


def _start(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool):
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), str(seconds),
            "1" if trace else "0"] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if ready != "ready\n":
        proc.stdout.close()
        proc.wait()
        raise WorkloadBroke(f"{workload}: the workload process exited {proc.returncode} during set-up")
    return proc, setup


def _setups(workload: str, seed: int, n: int) -> list[float]:
    """Set-up times of n processes that stop once they are ready."""
    out = []
    for _ in range(n):
        proc, setup = _start(workload, seed, 0, False, setup_only=True)
        proc.stdout.read()
        proc.stdout.close()
        proc.wait()
        out.append(setup)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in fresh processes and return its result.

    Untraced, half of the extra set-ups run before the measuring process
    and half after it, so that setup_s samples the machine at both ends of
    the run rather than at one moment.
    """
    before = [] if trace else _setups(workload, seed, SETUPS // 2)
    proc, setup = _start(workload, seed, seconds, trace, setup_only=False)
    lines = proc.stdout.read().splitlines()
    proc.stdout.close()
    if proc.wait() != 0 or not lines:
        raise WorkloadBroke(f"{workload}: the workload process exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not trace:
        setups = before + [setup] + _setups(workload, seed, SETUPS // 2)
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setups"] = len(setups)
    return result


def _samples(name: str, result: dict) -> str:
    if name == "setup_s":
        return f"{result['setups']} set-ups"
    if name == "peak_rss_mib":
        return "1 process" if result["workload"] != "cli" else "largest child"
    return f"{result['tasks']} tasks x {result['passes']} passes"


def print_table(result: dict):
    w = result["workload"]
    print(f"== {w}: {result['tasks']} tasks x {result['passes']} passes, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    if "setups" in result:
        for name, unit in END_TO_END:
            value = result["metrics"][name]
            if value is None:
                print(f"  {name:34s} {'n/a':>14s} {unit:6s} needs 10 of {result['tasks']} tasks beyond it")
            else:
                print(f"  {name:34s} {value:>14.6g} {unit:6s} {_samples(name, result)}")
    else:
        for name, unit in PER_LAYER:
            print(f"  {name:34s} {result['metrics'][name]:>14.6g} {unit}")
        print(f"  spans written to {result['spans']}")
    for line in result["first_failures"]:
        print(f"  FAILED {line}")


def contract_line(result: dict, trace: bool) -> str:
    names = GATED_LAYER if trace else [(n, u) for n, u in END_TO_END if n in BOUNDED]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": u} for n, u in names},
    })


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload; all three when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every result, with the environment, to this JSON file")
    args = ap.parse_args()

    env = env_info(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if args.workload:
        runs = [(args.workload, bool(args.trace))]
    else:  # all workloads; a traced report also carries the end-to-end one
        runs = [(w, t) for w in WORKLOADS for t in ((False, True) if args.trace else (False,))]
    results = []
    try:
        for workload, trace in runs:
            result = run_workload(workload, args.seed, args.seconds, trace)
            result["workload"] = workload
            print_table(result)
            results.append(result)
    except WorkloadBroke as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": env, "seconds": args.seconds, "results": results}, fh, indent=1, sort_keys=True)
    if args.workload:
        print(contract_line(results[0], bool(args.trace)))
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
