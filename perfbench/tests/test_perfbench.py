"""Tests of the benchmark's own logic: closed forms, output and document
checks, and span self-time arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import subcover  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from subcover import cli  # noqa: E402
from workloads import Command  # noqa: E402


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_closed_forms():
    assert workloads.cover_count(2, 2, 1) == 3
    assert workloads.cover_count(3, 2, 1) == 4
    assert workloads.cover_count(2, 7, 5) == 43
    assert workloads.cover_count(2, 16, 8) == 257
    assert workloads.spread_count(2, 4, 2) == 5
    assert workloads.spread_count(2, 14, 1) == 2**14 - 1
    assert workloads.mixed_count(2, 5, 2) == 9
    for q in (2, 3, 4, 5):
        for n in range(2, 7):
            for k in range(1, n):
                assert (workloads.cover_count(q, n, k)
                        == subcover.minimal_cover_count(q, n, k))


def test_part_dimensions_fill_the_space():
    for cmd in (Command("partition", 2, 1, 14, 3, kind="mixed"),
                Command("partition", 11, 1, 4, 2, kind="spread")):
        dims = workloads.part_dims(cmd)
        assert sum(cmd.q**d - 1 for d in dims) == cmd.q**cmd.n - 1


def test_every_write_command_has_a_pinned_digest():
    for commands in workloads.WORKLOADS.values():
        for cmd in commands:
            assert cmd.read or cmd.label in workloads.PINNED_SHA256


def test_real_outputs_pass_and_corrupted_outputs_fail():
    search = Command("min", 2, 2, 4, 2)
    code, out = _run(search.argv())
    assert workloads.check_output(search, code, out) is None
    assert workloads.check_output(search, code, "6\n") is not None
    assert workloads.check_output(search, 1, out) is not None

    mixed = Command("partition", 5, 2, 3, 1, kind="mixed")
    code, out = _run(mixed.argv())
    assert workloads.check_output(mixed, code, out) is None
    doc = json.loads(out)
    doc["parts"].pop()
    assert "subspaces" in workloads.check_output(mixed, 0, json.dumps(doc))
    # same shape, different bytes: only the digest can tell
    assert workloads.check_output(mixed, 0, out.replace(":", ": ", 1)) is not None
    assert workloads.check_output(mixed, 0, out[:-10]) == "stdout is not JSON"
    assert "lacks" in workloads.check_output(mixed, 0, "[]")


def test_cover_check_reads_the_verification_report():
    cover = Command("cover", 2, 1, 5, 3, verify=True)
    code, out = _run(cover.argv())
    doc = json.loads(out)
    assert workloads.check_output(cover, code, out) == (
        "stdout differs from the pinned digest")  # not a workload command
    doc["verification"]["ok"] = False
    assert "verification" in workloads.check_output(cover, 0, json.dumps(doc))


@pytest.mark.parametrize("cmd", [
    Command("cover", 2, 1, 5, 3, read=True),
    Command("cover", 3, 2, 3, 1, read=True),
    Command("partition", 2, 1, 6, 2, kind="spread", read=True),
    Command("partition", 2, 1, 6, 2, kind="mixed", read=True),
])
def test_seeded_documents_are_valid_and_corruption_is_caught(cmd, tmp_path):
    doc = workloads.make_document(cmd, random.Random(7))
    assert doc == workloads.make_document(cmd, random.Random(7))
    assert workloads.document_error(cmd, doc) is None
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert workloads.check_output(cmd, *_run(cmd.argv(str(path)))) is None

    key = "subspaces" if cmd.op == "cover" else "parts"
    dim = cmd.k if cmd.op == "partition" else cmd.n - cmd.k
    small = [s for s in doc[key] if len(s["basis"]) == dim]
    # swap one subspace for a copy of another of the same dimension
    victim = doc[key].index(small[0])
    doc[key][victim] = small[1]
    assert workloads.document_error(cmd, doc) is not None
    path.write_text(json.dumps(doc))
    code, out = _run(cmd.argv(str(path)))
    assert code == 2
    assert workloads.check_output(cmd, code, out) is not None


def _span(name, parent, start, end):
    s = spans.Span(name, parent, 0, start)
    s.end, s.dur = end, end - start
    return s


def test_self_times_on_a_synthetic_tree():
    tree = [
        _span("cli", None, 0.0, 10.0),
        _span("covers.cover_finite", 0, 1.0, 4.0),
        _span("oracle.verify", 0, 5.0, 9.0),
        _span("linalg.rref", 2, 6.0, 7.0),
        _span("linalg.span", 2, 5.5, 8.5),
    ]
    tree[4].dur = 0.5  # a generator is busy only inside next()
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])

    rec = spans.Recorder()
    rec.spans = tree
    metrics = spans.layer_metrics(rec, [10.25])
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["oracle.verify.self_s"] == pytest.approx(2.5)
    assert metrics[spans.REMAINDER] == pytest.approx(0.25)
    assert metrics["linalg.rref.calls"] == 1
    times = [metrics[n] for n, unit in spans.LAYER_METRICS if unit == "s"]
    assert sum(times) == pytest.approx(10.25)


def test_overlapping_children_are_rejected():
    tree = [_span("cli", None, 0.0, 1.0), _span("linalg.rref", 0, 0.0, 2.0)]
    rec = spans.Recorder()
    rec.spans = tree
    with pytest.raises(AssertionError):
        spans.layer_metrics(rec, [2.0])


def test_traced_pass_gives_untraced_outputs_and_restores_the_package(tmp_path):
    read = Command("partition", 2, 1, 4, 2, kind="spread", read=True)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(
        workloads.make_document(read, random.Random(1))))
    commands = [
        ["oracle", "min", "--p", "2", "--n", "4", "--k", "2"],
        ["cover", "--p", "2", "--n", "5", "--k", "3", "--verify"],
        ["partition", "--p", "2", "--n", "6", "--d", "2", "--kind", "mixed"],
        read.argv(str(path)),
    ]
    originals = (cli.main, subcover.gf.FieldDescriptor.add,
                 subcover.partitions.span_tuples, subcover.covers.spread_partition)
    plain = worker.run_pass(commands, [(2, 1)])
    rec = spans.Recorder()
    traced = worker.run_pass(commands, [(2, 1)], rec)
    assert (cli.main, subcover.gf.FieldDescriptor.add,
            subcover.partitions.span_tuples,
            subcover.covers.spread_partition) == originals
    assert [r[0] for r in traced["results"]] == [0, 0, 0, 0]
    assert [r[3] for r in traced["results"]] == [r[3] for r in plain["results"]]
    layers = traced["layers"]
    assert set(layers) == {n for n, _ in spans.LAYER_METRICS} - {"trace.overhead"}
    for name in ("oracle.candidates", "partitions.parts_built",
                 "linalg.span.vectors", "oracle.verify.vectors_checked",
                 "gf.add.calls", "linalg.subspace_from_rref.calls"):
        assert layers[name] > 0, name
    # 11 planes of the (2,5,3) cover and 5 planes of the (2,4,2) spread
    assert layers["oracle.verify.vectors_checked"] == 11 * 4 + 5 * 4
    walls = sum(r[1] for r in traced["results"])
    times = sum(layers[n] for n, unit in spans.LAYER_METRICS if unit == "s")
    assert times == pytest.approx(walls)


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "oracle-search", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
