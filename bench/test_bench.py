"""Tests of the benchmark's own checker, tracer and timing summary.

The checker is tested by fault injection on a recorded result: one real
command's record, altered afterwards, never a broken program.  The
tracer is tested on one real traced command: self times are
non-negative and add up to the command's span.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from torusdom.certificates import load_certificate

import checks
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def run_child(tmp_path: Path, argv: list[str], trace: str = "0") -> dict:
    report = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path / "xdg"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(report), trace, "--", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    rec = json.loads(report.read_text())
    rec["stdout"] = proc.stdout
    return rec


@pytest.fixture(scope="module")
def data() -> dict:
    return workloads.load_data()


@pytest.fixture()
def solved(tmp_path, data):
    """A recorded, correct ``solve`` of the total 4x5 instance."""
    op = workloads.solve_op(data, tmp_path, "oracle", 4, 5, "total", ["--canonical"])
    rec = run_child(tmp_path, op["argv"])
    assert checks.check(op, rec) == (None, {"method": "oracle", "certificate": 6, "reference": 6})
    return op, rec


def test_checker_flags_wrong_value(solved):
    op, rec = solved
    rec["stdout"] = rec["stdout"].replace("= 6 ", "= 5 ", 1)
    problem, _ = checks.check(op, rec)
    assert "known value 6" in problem


def test_checker_flags_wrong_exit_code(solved):
    op, rec = solved
    rec["rc"] = 1
    assert checks.check(op, rec)[0] == "exit code 1, expected 0"


def test_checker_flags_invalid_certificate(solved):
    op, rec = solved
    path = Path(op["out"])
    doc = json.loads(path.read_text())
    doc["vertices"][0] = doc["vertices"][1]
    path.write_text(json.dumps(doc))
    assert "cardinality field" in checks.check(op, rec)[0]
    doc["vertices"] = doc["vertices"][1:]
    doc["cardinality"] = len(doc["vertices"])
    path.write_text(json.dumps(doc))
    assert checks.check(op, rec)[0] is not None


def test_checker_bounds_values_without_a_known_one():
    op = {"kind": "paired", "values": {}, "bounds": {"5x9:paired": [12, 14]}}
    assert checks.value_problem(op, 5, 9, 12) is None
    assert "odd" in checks.value_problem(op, 5, 9, 13)
    assert "outside" in checks.value_problem(op, 5, 9, 16)
    assert "no value or bounds" in checks.value_problem(op, 9, 5, 12)


def test_checker_flags_unmatched_pairs():
    # a 4-cycle on a 6x6 torus has a perfect matching; a path of three does not
    square = {0, 1, 6, 7}
    assert checks.pairs_cover(6, 6, square, [((1, 1), (1, 2)), ((2, 1), (2, 2))])
    assert not checks.pairs_cover(6, 6, square, [((1, 1), (2, 2)), ((1, 2), (2, 1))])
    assert not checks.pairs_cover(6, 6, square, [((1, 1), (1, 2))])


def test_tampered_certificates_fail_their_kind(tmp_path, data):
    rng = random.Random(5)
    for kind in ("total", "paired"):
        source = workloads.cert_path(61, 61, kind)
        assert checks.certificate_problem(json.loads(source.read_text()), 61, 61, kind) is None
        path = tmp_path / f"{kind}.json"
        workloads.tamper(load_certificate(source), rng).save(path)
        assert checks.certificate_problem(json.loads(path.read_text()), 61, 61, kind)
        op = {"command": "verify", "kind": kind, "rc": 1, "argv": ["verify", str(path)]}
        rec = run_child(tmp_path, op["argv"])
        assert checks.check(op, rec) == (None, {})
        rec["rc"] = 0
        assert checks.check(op, rec)[0] == "exit code 0, expected 1"


def test_span_self_times_add_up(tmp_path):
    rec = run_child(
        tmp_path, ["construct", "--n", "9", "--m", "9", "--kind", "paired", "--out", "c.json"], "1"
    )
    recorded = rec["spans"]
    assert rec["rounds"] == []  # no reference round runs inside a span
    alone = spans.self_times(recorded)
    assert recorded[0][0] == "cli.main" and recorded[0][3] == -1
    assert all(t >= 0 for t in alone)
    for name, start, end, parent, _ in recorded[1:]:
        assert parent >= 0 and recorded[parent][1] <= start <= end <= recorded[parent][2]
    root = recorded[0][2] - recorded[0][1]
    assert sum(alone) == pytest.approx(root, rel=1e-9)
    assert root <= rec["main_s"]
    names = {s[0] for s in recorded}
    assert {"matching.maximum_matching", "validate.satisfies", "torus.make_torus"} <= names


def test_rounds_are_timed_while_an_untraced_command_runs(tmp_path):
    rec = run_child(tmp_path, ["construct", "--n", "61", "--m", "61", "--kind", "paired", "--out", "c.json"])
    assert len(rec["rounds"]) >= 2 and all(t > 0 for t in rec["rounds"])
    assert rec["main_s"] > 0


def test_layer_metrics_match_the_declared_names(tmp_path):
    rec = run_child(tmp_path, ["solve", "--n", "5", "--m", "5", "--kind", "total"], "1")
    rec["facts"] = {"certificate": 7}
    metrics = spans.layer_metrics([rec])
    assert sum(metrics[f"solve.method.{m}.count"] for m in spans.METHOD_NAMES) == 1
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    extra = {"trace.overhead_s", "table.exact_share"} | {f"{c}_s" for c in spans.COMMANDS}
    assert {m["name"] for m in declared} == set(metrics) | extra
    assert all(m["unit"] == spans.unit(m["name"]) for m in declared)


def test_layer_metrics_skip_a_crashed_command(tmp_path):
    rec = run_child(tmp_path, ["solve", "--n", "5", "--m", "5", "--kind", "total"], "1")
    rec["facts"] = {"certificate": 7}
    crashed = {"crashed": "timed out after 150 s", "facts": {}}
    assert spans.layer_metrics([rec, crashed]) == spans.layer_metrics([rec])


def test_passes_walk_through_each_pool(data):
    slot = next(s for s in data["exact"] if len(s["members"]) > 2)
    size = len(slot["members"])
    picks = [workloads.Draw("exact", 7, k).pick(slot["slot"], slot["members"], 1)[0] for k in range(2 * size)]
    assert sorted(map(tuple, picks[:size])) == sorted(map(tuple, slot["members"]))
    assert picks[size:] == picks[:size]


def test_slot_time_averages_the_pool_members():
    def rec(instance, main_s):
        return {"slot": "s", "command": "solve", "instance": instance, "main_s": main_s}

    passes = [[rec("a", 1.0)], [rec("b", 4.0)], [rec("a", 2.0)], [rec("a", 3.0)]]
    # a is not weighted by how often it ran
    assert run.slot_times(passes, "main_s") == {"s": ("solve", 3.0)}
