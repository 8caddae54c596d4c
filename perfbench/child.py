"""The workload process: set up, say ready, run whole deck passes, report.

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE [--setup-only]

``run.py`` starts this in a fresh process and times it from start to the
``ready`` line, which is printed after the interpreter, ``import
latticecf``, input generation and warm-up are done.  With --setup-only the
process stops there.  Otherwise it runs the deck in whole passes until the
tasks have taken SECONDS (and at least MIN_PASSES ran) and prints one JSON
result line.  With TRACE = 1 it alternates untraced and traced passes
instead and reports per-layer metrics per traced pass.

A task's latency comes from its times over the passes (LATENCY), by the
rule that was steadiest from run to run (perfbench/README.md, Run-to-run
spread).  A shared host runs the same code up to 40% slower in spells of
seconds to minutes.  A sweep task lasts under a few milliseconds, and even
inside a slow spell the host leaves moments that short free, so its
fastest time is steady.  A deep task or a cli spawn lasts 10 ms to 1 s,
too long for that: its times fall in a fast and a slow mode, the share
of fast ones changes from run to run, and only the slow mode turns up in
every run, so its slowest time is the steady one.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import latticecf  # noqa: E402  (from SRC, checked in main)
import workloads  # noqa: E402
from spans import BENCH, LayerFailure, NullTracer, Tracer, percentile, self_times, tail_level  # noqa: E402

SPAN_DIR = os.path.join(ROOT, "perfbench", "out")
MIN_PASSES = 3
LATENCY = {"sweep": min, "deep": max, "cli": max}

# the per-layer metric each call's self time also adds to
NAMED_SELF = {
    ("cf", "eval_terms"): "cf.eval_s",
    ("cf", "expand_e"): "cf.expand_s",
    ("cf", "expand_hj"): "cf.expand_s",
    ("lattice", "hull_oracle"): "lattice.oracle_s",
    ("graphs", "is_contractible"): "graphs.contractible_s",
    ("graphs", "is_contractible_minors"): "graphs.minors_s",
    ("graphs", "fundamental_cycle"): "graphs.fundamental_s",
    ("singularities", "embdim_oracle"): "singularities.oracle_s",
    ("singularities", "blowup_oracle"): "singularities.oracle_s",
    ("singularities", "CuspCycle"): "singularities.cusp_s",
    ("singularities", "cusp_monodromy"): "singularities.cusp_s",
    ("singularities", "cusp_trace_formula"): "singularities.cusp_s",
    ("singularities", "cusp_dual"): "singularities.cusp_s",
    ("zigzag", "render"): "zigzag.render_s",
}
DENSE_CALLS = {"is_contractible_minors", "fundamental_cycle"}  # build an n x n matrix


class Runner:
    """Runs deck passes and keeps latencies and check results."""

    def __init__(self, workload: str, deck, ctx):
        self.workload = workload
        self.deck = deck
        self.ctx = ctx
        self.chk = workloads.Checks()
        self.times: list[list[int]] = [[] for _ in deck]  # ns, one per pass
        self.attempted = 0
        self.failed = 0
        self.next_id = 0

    def one_pass(self, tr, deck=None, calibrate: bool = False) -> int:
        """Run every task once; return the nanoseconds spent inside tasks."""
        total = 0
        for i, task in enumerate(self.deck if deck is None else deck):
            if calibrate:
                workloads.calibrate(tr, self.ctx)
            run, check = workloads.FAMILIES[task.family]
            tid = self.next_id
            self.next_id += 1
            raised = out = None
            t0 = time.perf_counter_ns()
            span = tr.begin("task", BENCH, task=tid, bits=task.bits)
            try:
                out = run(tr, task.args, self.ctx)
            except LayerFailure as exc:
                raised = exc
            tr.end(span)
            dt = time.perf_counter_ns() - t0
            total += dt
            self.times[i].append(dt)
            self.attempted += 1
            self.chk.task_failures.clear()
            if raised is not None:
                self.chk.expect(raised.layer, False, f"{raised}: {raised.__cause__!r}")
            else:
                try:
                    check(task.args, out, self.chk, self.ctx)
                except Exception as exc:  # a check that raises is a failed check
                    self.chk.expect(BENCH, False, f"check of {task.family} raised {exc!r}")
            self.failed += bool(self.chk.task_failures)
        return total

    def measure(self, seconds: float) -> dict:
        tr = NullTracer()
        task_ns = passes = 0
        while passes < MIN_PASSES or task_ns < seconds * 1e9:
            task_ns += self.one_pass(tr)
            passes += 1
        ms = [LATENCY[self.workload](ts) / 1e6 for ts in self.times]
        n = len(ms)
        tail = tail_level(n) or 0
        who = resource.RUSAGE_CHILDREN if self.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "tasks_per_s": n / (sum(ms) / 1e3),
            "task_p50_ms": percentile(ms, 500),
            "task_p90_ms": percentile(ms, 900) if tail >= 900 else None,
            "task_p99_ms": percentile(ms, 990) if tail >= 990 else None,
            "failed_frac": self.failed / self.attempted,
            "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
        }
        return {"passes": passes, "metrics": metrics}

    def trace(self, seconds: float) -> dict:
        tracer = Tracer(workloads.sizes)
        plain_ns = traced_ns = passes = 0
        start = time.perf_counter_ns()  # wall time: a traced cli pass also spawns calibration children
        while passes == 0 or time.perf_counter_ns() - start < seconds * 1e9:
            plain_ns += self.one_pass(NullTracer())
            traced_ns += self.one_pass(tracer, calibrate=self.workload == "cli")
            passes += 1
        os.makedirs(SPAN_DIR, exist_ok=True)
        path = os.path.join(SPAN_DIR, f"spans-{self.workload}.jsonl")
        tracer.write(path)
        metrics = layer_metrics(tracer.spans, passes, self.chk)
        metrics["trace_overhead_frac"] = traced_ns / plain_ns - 1
        return {"passes": passes, "metrics": metrics, "spans": os.path.relpath(path, ROOT)}


def layer_metrics(spans, passes: int, chk) -> dict:
    """Per-layer metrics per traced pass, from the spans of those passes."""
    own = self_times(spans)
    calls, self_ns, terms, verts, nbytes = Counter(), Counter(), Counter(), Counter(), Counter()
    named = Counter()
    dense = bench_ns = task_ns = 0
    spawn_ms: dict[str, list[float]] = {"interp": [], "import": [], "command": []}
    for s in spans:
        if s.layer == BENCH:
            bench_ns += own[s.sid]
            task_ns += s.end - s.start
            continue
        if s.task is None:  # a calibration spawn outside every task
            spawn_ms[s.name].append((s.end - s.start) / 1e6)
            continue
        calls[s.layer] += 1
        self_ns[s.layer] += own[s.sid]
        terms[s.layer] += s.terms
        verts[s.layer] += s.vertices
        nbytes[s.layer] += s.bytes
        if (s.layer, s.name) in NAMED_SELF:
            named[NAMED_SELF[s.layer, s.name]] += own[s.sid]
        if s.name in DENSE_CALLS:
            dense += s.vertices ** 2
        if s.layer == "cli":
            spawn_ms["command"].append((s.end - s.start) / 1e6)

    def med(name):
        return statistics.median(spawn_ms[name]) if spawn_ms[name] else 0.0

    def agree(layer):
        agreed, compared = chk.oracle[layer]
        return agreed / compared if compared else 1.0

    m = {}
    for layer in workloads.LIBRARY:
        m[f"{layer}.calls"] = calls[layer] / passes
        m[f"{layer}.self_s"] = self_ns[layer] / 1e9 / passes
    for metric in set(NAMED_SELF.values()):
        m[metric] = named[metric] / 1e9 / passes
    m["cf.terms_out"] = terms["cf"] / passes
    m["lattice.points_out"] = verts["lattice"] / passes
    m["lattice.oracle_agree_frac"] = agree("lattice")
    m["graphs.dense_cells"] = dense / passes
    m["singularities.vertices_out"] = verts["singularities"] / passes
    m["singularities.oracle_agree_frac"] = agree("singularities")
    m["zigzag.bytes_out"] = nbytes["zigzag"] / passes
    m["cli.spawns"] = calls["cli"] / passes
    m["cli.interp_ms"] = med("interp")
    m["cli.import_ms"] = med("import") - med("interp") if spawn_ms["import"] else 0.0
    m["cli.run_ms"] = med("command") - med("import") if spawn_ms["import"] else 0.0
    for layer in workloads.LIBRARY + (workloads.CLI,):
        m[f"{layer}.failed"] = chk.failed[layer]
    m["bench.self_s"] = bench_ns / 1e9 / passes
    m["bench.task_s"] = task_ns / 1e9 / passes
    return m


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    if not os.path.realpath(latticecf.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.stderr.write(f"latticecf was imported from {latticecf.__file__}, not from {SRC}\n")
        return 2
    deck, ctx = workloads.setup(workload, seed, ROOT)
    Runner(workload, deck, ctx).one_pass(NullTracer(), workloads.warm_up_deck(workload, deck))
    runner = Runner(workload, deck, ctx)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    result = runner.trace(seconds) if trace else runner.measure(seconds)
    result.update(tasks=len(deck), attempted=runner.attempted, failed=runner.failed,
                  first_failures=runner.chk.first)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
