"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import charrank  # noqa: E402
from charrank import _dispatch  # noqa: E402

import kernelcheck  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spantrace import Tracer, self_times  # noqa: E402


def small_box_ops(seed):
    """The cheap kernel-backed operations of a seed's bound-queries list."""
    ops = []
    for kind, args in workloads.bound_queries(seed):
        if kind == "count_box" and workloads.box_cells(*args) < 20000:
            ops.append((kind, args))
        elif kind == "betti" and workloads.box_cells(args[0] - args[1], args[1], args[2]) < 20000:
            ops.append((kind, args))
    return ops


def test_same_seed_same_operations():
    assert workloads.bound_queries(7) == workloads.bound_queries(7)
    assert workloads.cli_ops(7) == workloads.cli_ops(7)
    assert workloads.bound_queries(7) != workloads.bound_queries(8)
    assert workloads.cli_ops(7) != workloads.cli_ops(8)


def test_every_kind_has_a_fixed_number_of_operations():
    kinds = [kind for kind, _ in workloads.bound_queries(3)]
    assert {kinds.count(kind) for kind in set(kinds)} == {workloads.PER_KIND}
    totals = [args[0] for kind, args in workloads.bound_queries(3) if kind == "count_total"]
    assert min(totals) >= 100 and max(totals) <= 3000
    assert any(w <= workloads.SEAM for w in totals) and any(w > workloads.SEAM for w in totals)


def test_correct_kernels_pass_the_check():
    ops = small_box_ops(0)
    phase = run.bound_queries_phase(charrank, ops, seconds=0)
    run.check_bound_queries(phase, ops, workloads.Oracle(charrank))
    assert phase.attempted == len(ops) > 0
    assert phase.failed == 0


def test_broken_box_count_makes_failures(monkeypatch):
    original = _dispatch.box_count
    monkeypatch.setattr(_dispatch, "box_count", lambda a, b, c: original(a, b, c) + 1)
    ops = small_box_ops(0)
    phase = run.bound_queries_phase(charrank, ops, seconds=0)
    run.check_bound_queries(phase, ops, workloads.Oracle(charrank))
    assert phase.failed / phase.attempted > 0


def _compiled_backend(monkeypatch, module):
    monkeypatch.setitem(sys.modules, "charrank._kernels_c", module)
    monkeypatch.delattr(charrank, "_kernels_c", raising=False)


def test_kernel_section_counts_backend_disagreements(monkeypatch):
    from charrank import _kernels_py

    fake = types.ModuleType("charrank._kernels_c")
    for name in ("box_count", "box_table", "set_exact_counts"):
        setattr(fake, name, getattr(_kernels_py, name))
    fake.partition_table = lambda n: [0] * (n + 1)
    _compiled_backend(monkeypatch, fake)
    section = kernelcheck.run()
    assert section["compiled_present"]
    assert section["compared"] == len(kernelcheck.CASES)
    assert section["disagreements"] == 2  # the two partition_table cases


def test_kernel_section_without_compiled_backend(monkeypatch):
    _compiled_backend(monkeypatch, None)  # importing it raises ImportError
    section = kernelcheck.run()
    assert not section["compiled_present"]
    assert section["compared"] == section["disagreements"] == 0
    assert section["python_s"] > 0


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap on
    # [3, 4]; a has a child [2, 3].
    starts = [0.0, 1.0, 3.0, 2.0]
    ends = [10.0, 4.0, 6.0, 3.0]
    parents = [-1, 0, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_tracer_records_nested_layers_and_restores_them():
    originals = (charrank.count_set_any, _dispatch.set_exact_counts)
    tracer = Tracer()
    tracer.install()
    try:
        assert charrank.count_set_any((1, 2), 4) == 3
    finally:
        tracer.uninstall()
    assert (charrank.count_set_any, _dispatch.set_exact_counts) == originals
    spans = tracer.aggregate()["spans"]
    assert [spans[name][0] for name in (
        "partitions.count_set_any", "partitions.count_set_at_most", "kernels.set_exact_counts"
    )] == [1, 1, 1]
    calls, busy, own = spans["partitions.count_set_any"]
    assert 0 <= own <= busy
    assert tracer.aggregate()["counts"]["kernels.distinct"] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        metrics.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    emitted = metrics.end_to_end(0.1, [1.0, 2.0], [0.001, 0.002, 0.003], 20.0)
    assert list(emitted) == [name for name, _ in metrics.END_TO_END]
    kernel_section = {"python_s": 0.1, "compiled_present": False, "compiled_s": 0.0}
    probes = {"interpreter_s": 0.05, "import_s": 0.04}
    emitted = metrics.per_layer({"spans": {}, "counts": {}}, 1, kernel_section, probes, 1.1)
    assert list(emitted) == [name for name, _, _ in metrics.PER_LAYER]


def test_verify_all_output_check():
    good = "".join(
        f"{name}: pass (checked={checked}, failures=0)\n"
        for name, checked in workloads.VERIFY_ALL_CHECKED
    ) + "overall: pass\n"
    assert workloads.verify_all_failures(0, good) == 0
    assert workloads.verify_all_failures(0, good.replace("checked=30,", "checked=29,")) == 1
    assert workloads.verify_all_failures(1, good) == len(workloads.VERIFY_ALL_CHECKED)


def test_cli_outputs_parse_in_every_format():
    oracle = workloads.Oracle(charrank)
    total, table = ("count_total", (5,)), ("poincare", (4, 2))
    for op, fmt, out in [
        (total, "text", "7\n"),
        (total, "csv", "value\n7\n"),
        (total, "json", '{"results": {"value": "7"}}'),
        (table, "text", "1 1 2 1 1\n"),
        (table, "csv", "degree,value\n0,1\n1,1\n2,2\n3,1\n4,1\n"),
    ]:
        expected = oracle.expected(op)
        if op[0] == "poincare":
            expected = tuple(expected[2])
        assert workloads.parse_cli_output(op, fmt, out) == expected


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound-queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
