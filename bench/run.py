"""torusdom benchmark: run one workload for a fixed time, check it, print its metrics.

usage: python3 bench/run.py --workload {exact,construct,sweep} --seed N
                            --seconds S --trace {0,1}

Run from a checkout that holds the package under ``src``.  The load is a
closed loop with one client: a pass is one user session of torusdom
commands (see ``workloads.py``), each run in a fresh Python process, one
at a time.  Passes repeat, each with its own seeded draw and a fresh
cache and output directory, until the next pass would end after
``--seconds``.  Every command's outcome is checked (``checks.py``)
outside the timed region.  A command's times are scaled to the speed of
the machine while it ran (see ``reference.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``
(commands run), ``failed`` (commands whose exit code, value or
certificate was wrong) and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (see README.md); with
``--trace 1`` pairs of an untraced and a traced pass on one draw
repeat, in alternating order, and the metrics are the per-layer ones
from the traced passes plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import checks
import reference
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
COMMAND_TIMEOUT_S = 150
BRACKET_ROUNDS = 8  # about 35 ms of the reference loop before and after each command

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "witness_ratio": "ratio"}


def execute(op: dict, traced: bool, pass_dir: Path, index: int) -> dict:
    """Run one command in a fresh process; the record holds what it did."""
    report_path = pass_dir / f"report-{index}.json"
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        # one string hashing in every process, so a seed's runs repeat exactly
        PYTHONHASHSEED="0",
        XDG_CACHE_HOME=str(pass_dir / "xdg-cache"),
    )
    argv = [sys.executable, str(CHILD), str(report_path), "1" if traced else "0", "--", *op["argv"]]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=pass_dir, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {COMMAND_TIMEOUT_S} s"}
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"crashed": tail[0]}
    report["setup_s"] = report.pop("ready") - spawned
    report["stdout"] = proc.stdout
    return report


def run_pass(workload: str, seed: int, draw: int, pass_dir: Path, traced: bool, data: dict) -> list[dict]:
    """Run one session's commands in order and check each outcome."""
    pass_dir.mkdir(parents=True)
    queue = deque(workloads.WORKLOADS[workload](workloads.Draw(workload, seed, draw), pass_dir, data))
    records = []
    before = reference.round_s(BRACKET_ROUNDS)
    while queue:
        op = queue.popleft()
        rec = execute(op, traced, pass_dir, len(records))
        after = reference.round_s(BRACKET_ROUNDS)
        if "main_s" in rec:
            # set-up is scaled to the speed around the command, the command
            # also to the speed the rounds timed while it ran
            around = reference.ROUND_S / statistics.mean([before, after])
            rounds = [before, after, *rec["rounds"]]
            rec["scaled_setup_s"] = rec["setup_s"] * around
            rec["scaled_main_s"] = rec["main_s"] * reference.ROUND_S / statistics.mean(rounds)
            # a traced command times no rounds, so the tracing overhead
            # compares passes scaled alike, by the rounds around each command
            rec["around_main_s"] = rec["main_s"] * around
        before = after
        rec["problem"], rec["facts"] = checks.check(op, rec)
        rec["command"], rec["slot"], rec["argv"] = op["command"], op["slot"], op["argv"]
        rec["instance"] = " ".join(op["argv"]).replace(str(pass_dir), "")
        if rec["problem"] is None:
            queue.extendleft(reversed(workloads.followups(op, rec["facts"], pass_dir, data)))
        records.append(rec)
    shutil.rmtree(pass_dir)
    return records


def summarize(records: list[dict]) -> dict:
    """Figures of one pass that are not timings."""
    ok = [r for r in records if "main_s" in r]
    cells = sum(r["facts"].get("cells", 0) for r in records)
    # relative to each certificate's reference size, so the figure does not
    # depend on how many certificates a pass emits
    reference_size = sum(r["facts"].get("reference", 0) for r in records)
    emitted = sum(r["facts"].get("certificate", 0) for r in records)
    return {
        "peak_rss_mb": max((r["maxrss_kb"] for r in ok), default=0) / 1024,
        "witness_ratio": emitted / reference_size if reference_size else 1.0,
        "setups": [r["scaled_setup_s"] for r in ok],
        "exact_share": sum(r["facts"].get("exact_cells", 0) for r in records) / max(cells, 1),
    }


def slot_times(passes: list[list[dict]], key: str) -> dict[str, tuple[str, float]]:
    """Each command slot's ``key`` (a time) in a pass that runs every pool member equally.

    A slot is one position of the session, such as "the forced paired DP
    solve" or "table total"; the draw changes its instance from pass to
    pass.  Each instance's time is its mean over the passes that ran it,
    and the slot's time is the mean over its instances, so it does not
    depend on which instance most passes drew.  (With three to five
    passes a run, the mean of scaled times spread less from run to run
    than their median.)
    """
    times: dict[str, dict[str, list[float]]] = {}
    command: dict[str, str] = {}
    for records in passes:
        for rec in records:
            times.setdefault(rec["slot"], {}).setdefault(rec["instance"], []).append(rec.get(key, 0.0))
            command[rec["slot"]] = rec["command"]
    return {
        slot: (command[slot], statistics.mean(statistics.mean(t) for t in runs.values()))
        for slot, runs in times.items()
    }


def wall(slots: dict[str, tuple[str, float]], only: str | None = None) -> float:
    """Summed slot times: the time of a typical pass, or of one command type in it."""
    return sum((t for command, t in slots.values() if only in (None, command)), 0.0)


def shown(argv: list[str]) -> str:
    """The command line with paths relative to the checkout."""
    return " ".join(argv).replace(f"{ROOT}/", "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "torusdom" / "cli.py").is_file():
        print(f"error: no torusdom package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    data = workloads.load_data()
    if hasattr(os, "sched_setaffinity"):
        # the machine's speed drifts per CPU, so the runner, which times the
        # reference loop around each command, and every command share one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    run_dir = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    # trace runs repeat one draw, so untraced and traced passes see the same inputs
    plan = [False, True] if args.trace else [False]
    passes: list[tuple[bool, list[dict]]] = []
    started = time.monotonic()
    try:
        while True:
            began = time.monotonic()
            for traced in plan:
                draw = 0 if args.trace else len(passes)
                pass_dir = run_dir / f"pass-{len(passes)}"
                passes.append((traced, run_pass(args.workload, args.seed, draw, pass_dir, traced, data)))
            now = time.monotonic()
            if now - started + (now - began) > args.seconds:
                break
            plan.reverse()  # so a drift of the machine's speed does not favour one side
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()  # only when no other run is using it

    records = [r for _, recs in passes for r in recs]
    failed = [r for r in records if r["problem"] is not None]
    untraced = [recs for traced, recs in passes if not traced]
    figures = [summarize(recs) for recs in untraced]
    slots = slot_times(untraced, "scaled_main_s")

    for rec in passes[0][1]:
        outcome = rec["problem"] or "ok"
        took = f"{rec['main_s']:.3f}s" if "main_s" in rec else "-"
        print(f"  {took:>9} rc={rec.get('rc')} {shown(rec['argv'])}: {outcome} {rec['facts']}")
    for rec in failed:
        print(f"FAILED {shown(rec['argv'])}: {rec['problem']}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {len(records)} commands, "
          f"{len(failed)} failed (fail_share {len(failed) / len(records):.4f} ratio)")
    for key in ("scaled_main_s", "main_s"):
        print(f"  wall_s from {key} of each untraced pass: "
              + ", ".join(f"{wall(slot_times([recs], key)):.4f}" for recs in untraced))
    print(f"  wall_s {wall(slots):.4f} s, unscaled {wall(slot_times(untraced, 'main_s')):.4f} s")
    for command in spans.COMMANDS:
        print(f"  {command}_s {wall(slots, command):.4f} s")
    print(f"  exact_share {statistics.median([p['exact_share'] for p in figures]):.4f} ratio")

    if args.trace:
        traced = [recs for t, recs in passes if t]
        layers = [spans.layer_metrics(recs) for recs in traced]
        metrics = {name: statistics.median([t[name] for t in layers]) for name in layers[0]}
        pairs = [dict(passes[k:k + 2]) for k in range(0, len(passes), 2)]
        metrics["trace.overhead_s"] = statistics.median(
            [wall(slot_times([p[True]], "around_main_s")) - wall(slot_times([p[False]], "around_main_s"))
             for p in pairs]
        )
        for command in spans.COMMANDS:
            metrics[f"{command}_s"] = wall(slots, command)
        metrics["table.exact_share"] = statistics.median([p["exact_share"] for p in figures])
        units = {name: spans.unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": wall(slots),
            "setup_s": statistics.median([s for p in figures for s in p["setups"]]),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in figures]),
            "witness_ratio": statistics.median([p["witness_ratio"] for p in figures]),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
