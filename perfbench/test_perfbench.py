"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os

import child  # puts the checkout's src on sys.path
import run
import workloads
from spans import BENCH, NullTracer, Span, Tracer, percentile, reportable, self_times, tail_level


def test_percentile_rule_needs_ten_samples_beyond():
    assert reportable(20, 500) and not reportable(19, 500)
    assert reportable(100, 900) and not reportable(99, 900)
    assert reportable(1000, 990) and not reportable(999, 990)
    assert tail_level(19) is None
    assert tail_level(99) == 500
    assert tail_level(100) == 900
    assert tail_level(5153) == 990
    assert tail_level(10_000) == 999


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 500) == 50
    assert percentile(values, 900) == 90
    assert percentile(values, 990) == 99
    assert percentile([7], 900) == 7
    assert percentile([1, 2, 3, 4], 500) == 2


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", "cf", start, end, parent, 0)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, 0, 100),
        _span(1, 10, 30, parent=0),
        _span(2, 40, 90, parent=0),
        _span(3, 50, 60, parent=2),
        _span(4, 70, 75, parent=2),
    ]
    own = self_times(spans)
    assert own == {0: 30, 1: 20, 2: 35, 3: 10, 4: 5}
    assert sum(own.values()) == 100


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [_span(0, 0, 100), _span(1, 10, 50, parent=0), _span(2, 40, 60, parent=0),
             _span(3, 90, 120, parent=0)]
    assert self_times(spans)[0] == 100 - 50 - 10


def test_tracer_links_calls_to_their_task():
    tr = Tracer(workloads.sizes)
    task = tr.begin("task", BENCH, task=7, bits=12)
    assert tr.call("cf", sorted, (3, 1, 2)) == [1, 2, 3]
    tr.end(task)
    root, call = tr.spans
    assert (call.parent, call.task, call.bits) == (root.sid, 7, 12)
    assert root.start <= call.start <= call.end <= root.end


def _runner(workload, deck, tracer):
    runner = child.Runner(workload, deck, workloads.Context(child.ROOT))
    runner.one_pass(tracer)
    return runner


def test_layer_self_times_add_up_to_task_time():
    deck = workloads.warm_up_deck("deep", [])
    tracer = Tracer(workloads.sizes)
    runner = _runner("deep", deck, tracer)
    assert runner.failed == 0 and runner.attempted == len(deck)
    m = child.layer_metrics(tracer.spans, 1, runner.chk)
    layers = sum(m[f"{layer}.self_s"] for layer in workloads.LIBRARY)
    assert abs(layers + m["bench.self_s"] - m["bench.task_s"]) < 1e-6
    assert m["graphs.dense_cells"] == 10 ** 2 + 50 ** 2


def test_sweep_tasks_pass_their_checks():
    runner = _runner("sweep", workloads.sweep_deck(1)[:50], NullTracer())
    assert runner.failed == 0 and runner.chk.oracle["lattice"] == [50, 50]


def test_a_wrong_output_fails_its_check():
    task = workloads.sweep_deck(1)[0]
    out = workloads.run_pair(NullTracer(), task.args, None)
    out["hull"] = out["hull"].__class__(out["hull"].points[:-1], out["hull"].weights, out["hull"].vertex_indices)
    chk = workloads.Checks()
    workloads.check_pair(task.args, out, chk, None)
    assert chk.failed == {"lattice": 1} and chk.oracle["lattice"] == [0, 1]


def test_inputs_are_a_pure_function_of_the_seed():
    for make in workloads.DECKS.values():
        assert make(3) == make(3)
        assert make(3) != make(4)
        assert len(make(3)) >= 100  # a p90 over the tasks needs 100 of them


def test_deep_sizes_cover_the_stated_ranges():
    deck = workloads.deep_deck(5)
    bits = [t.bits for t in deck if t.family == "rational"]
    assert 256 <= min(bits) < 300 and 3600 < max(bits) <= 4096
    cusps = [len(t.args[0]) for t in deck if t.family == "cusp"]
    assert 500 <= min(cusps) and max(cusps) <= 3000


def test_metric_names_match_benchmark_json():
    with open(os.path.join(child.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.GATED)
    assert list(run.WORKLOADS) == list(workloads.DECKS) == list(child.LATENCY)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.BOUNDED)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.GATED_LAYER)
    units = dict(run.END_TO_END)
    assert all(units[m["name"]] == m["unit"] for m in spec["end_to_end"])
    traced = child.layer_metrics([], 1, workloads.Checks())
    assert set(traced) | {"trace_overhead_frac"} == {name for name, _ in run.PER_LAYER}
