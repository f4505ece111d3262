"""Command lines of the three workloads, drawn from the committed pools.

A pass is one user session: a list of torusdom commands run one after
another, each in a fresh process.  The seed picks pool members (pools
group instances of similar cost per engine or residue class), the order
of the commands and the member dropped from each tampered certificate;
the program only sees the generated command lines.  Every pass gets its own cache and output
directory, so no state crosses from one pass to the next.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def load_data() -> dict:
    data = json.loads((DATA / "pools.json").read_text())
    data.update(json.loads((DATA / "expected.json").read_text()))
    return data


def cert_path(n: int, m: int, kind: str) -> Path:
    return DATA / "certs" / f"{n}x{m}-{kind}.json"


class Draw:
    """The seeded choices of one pass, number ``number`` of a run.

    ``rng`` orders the commands and picks what to tamper.  Pool members
    come from ``pick``: the passes of a run walk through one seeded order
    of each pool, so within a run every member runs as often as the
    number of passes allows, and the seed changes which instances run
    more than how much work they take.
    """

    def __init__(self, workload: str, seed: int, number: int):
        self.seed, self.number = seed, number
        self.rng = random.Random(f"{workload}/{seed}/{number}")

    def pick(self, name: str, members: list, take: int) -> list:
        order = random.Random(f"{self.seed}/{name}").sample(members, len(members))
        return [order[(self.number * take + i) % len(order)] for i in range(take)]


def solve_op(data: dict, pass_dir: Path, slot: str, n: int, m: int, kind: str, args: list[str]) -> dict:
    out = pass_dir / f"solve-{n}x{m}-{kind}.json"
    return {
        "command": "solve", "slot": slot, "n": n, "m": m, "kind": kind, "out": str(out),
        "values": data["values"], "bounds": data["bounds"],
        "argv": ["solve", "--n", str(n), "--m", str(m), "--kind", kind, *args,
                 "--cache-dir", str(pass_dir / "cache"), "--out", str(out)],
    }


def exact_ops(draw: Draw, pass_dir: Path, data: dict) -> list[dict]:
    ops = []
    for slot in data["exact"]:
        for k, (n, m, kind) in enumerate(draw.pick(slot["slot"], slot["members"], slot["take"])):
            ops.append(solve_op(data, pass_dir, f"{slot['slot']} #{k}", n, m, kind, slot["args"]))
    draw.rng.shuffle(ops)
    return ops


def construct_ops(draw: Draw, pass_dir: Path, data: dict) -> list[dict]:
    ops = []
    for slot in data["construct"]:
        for n, m in draw.pick(slot["slot"], slot["members"], slot["take"]):
            for kind in slot["kinds"]:
                out = pass_dir / f"construct-{n}x{m}-{kind}.json"
                ops.append({
                    "command": "construct", "slot": f"{slot['slot']} {kind}",
                    "n": n, "m": m, "kind": kind, "out": str(out),
                    "ceiling": data["ceilings"][f"{n}x{m}:{kind}"],
                    "argv": ["construct", "--n", str(n), "--m", str(m), "--kind", kind,
                             "--out", str(out)],
                })
    draw.rng.shuffle(ops)
    return ops


def _around(i: int, j: int, n: int, m: int) -> tuple:
    return ((i - 2) % n + 1, j), (i % n + 1, j), (i, (j - 2) % m + 1), (i, j % m + 1)


def tamper(cert, rng: random.Random):
    """A copy of the package ``Certificate`` ``cert`` without one seeded
    member whose loss breaks the claimed kind.

    A paired set loses its perfect matching with any member (odd size).
    A total set breaks when the member is some vertex's only dominator,
    so the member is drawn from those.  The cardinality field is kept
    consistent, so only the validators can reject the copy.
    """
    n, m, verts = cert.n, cert.m, cert.vertices
    candidates = list(range(len(verts)))
    if cert.kind.value != "paired":
        dominators: dict[tuple[int, int], int] = {}
        for i, j in verts:
            for u in _around(i, j, n, m):
                dominators[u] = dominators.get(u, 0) + 1
        candidates = [
            k for k, (i, j) in enumerate(verts)
            if any(dominators[u] == 1 for u in _around(i, j, n, m))
        ]
    drop = rng.choice(candidates)
    kept = tuple(v for k, v in enumerate(verts) if k != drop)
    return dataclasses.replace(
        cert, vertices=kept, cardinality=len(kept), provenance=cert.provenance + "+tampered"
    )


def sweep_ops(draw: Draw, pass_dir: Path, data: dict) -> list[dict]:
    from torusdom.certificates import load_certificate

    spec = data["sweep"]
    table = spec["table"]
    n_lo, n_hi = table["n"]
    m_lo, m_hi = table["m"]
    cells = [[n, m] for n in range(n_lo, n_hi + 1) for m in range(m_lo, m_hi + 1)]
    ops = []
    kinds = list(table["kinds"])
    draw.rng.shuffle(kinds)
    for kind in kinds:
        out = pass_dir / f"table-{kind}.json"
        ops.append({
            "command": "table", "slot": f"table {kind}", "kind": kind, "out": str(out), "cells": cells,
            "values": data["values"], "bounds": data["bounds"],
            "argv": ["table", "--n", f"{n_lo}..{n_hi}", "--m", f"{m_lo}..{m_hi}",
                     "--kind", kind, "--format", "json", "--out", str(out)],
        })
    for slot in spec["audit"]:
        for n, m in draw.pick(slot["slot"], slot["members"], slot["take"]):
            ops.append({
                "command": "audit", "slot": slot["slot"], "n": n, "m": m,
                "rc": data["audit_rc"][f"{n}x{m}"],
                "values": data["values"], "bounds": data["bounds"],
                "argv": ["audit", "--n", str(n), "--m", str(m),
                         "--cache-dir", str(pass_dir / "cache")],
            })
    verify = spec["verify"]
    for kind, pool in sorted(verify["certificates"].items()):
        for k, (n, m) in enumerate(draw.pick(f"verify {kind}", pool, verify["take"])):
            source = cert_path(n, m, kind)
            ops.append({"command": "verify", "slot": f"verify {kind} #{k}", "kind": kind,
                        "rc": 0, "argv": ["verify", str(source)]})
            cert = load_certificate(source)
            for t in range(verify["tampered_per_pick"]):
                path = pass_dir / f"tampered-{n}x{m}-{kind}-{t}.json"
                tamper(cert, draw.rng).save(path)
                ops.append({"command": "verify", "slot": f"verify {kind} #{k} tampered #{t}",
                            "kind": kind, "rc": 1, "argv": ["verify", str(path)]})
    return ops


def followups(op: dict, facts: dict, pass_dir: Path, data: dict) -> list[dict]:
    """After an audit, solve again every instance the audit just cached."""
    if op["command"] != "audit":
        return []
    return [
        solve_op(data, pass_dir, f"{op['slot']} solve {kind}", op["n"], op["m"], kind, [])
        for kind in facts["solved"]
    ]


WORKLOADS = {"exact": exact_ops, "construct": construct_ops, "sweep": sweep_ops}
