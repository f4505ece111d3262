"""Check every command's outcome against the committed expectations.

Each checker takes the operation the workload generated and the record
of what the command did (exit code, stdout, and the files it wrote) and
returns ``(problem, facts)``: ``problem`` is None when the outcome is
right, else a one-line reason; ``facts`` are the measured results the
metrics need, such as an emitted certificate's cardinality and the
reference size it is measured against.

Certificates are re-checked with this module's own code: domination by a
bitmask sweep over the torus, and for paired sets the pairs returned by
``torusdom.validate.has_perfect_matching`` are checked independently
(disjoint grid edges covering the whole set).  Nothing here is timed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

KEYS = ("schema_version", "n", "m", "kind", "cardinality", "vertices", "provenance")

SOLVE_LINE = re.compile(r"^gamma(?:_t|_p)?\((\d+),(\d+)\) = (\d+) \[method ([\w-]+),")
AUDIT_SOLVE = re.compile(r"^\s+ok\s+solve:(\w+): (\d+) via ([\w-]+)$")


def _neighbours(n: int, m: int, s: int) -> tuple[int, int, int, int]:
    i, j = divmod(s, m)
    return (
        ((i - 1) % n) * m + j,
        ((i + 1) % n) * m + j,
        i * m + (j - 1) % m,
        i * m + (j + 1) % m,
    )


def dominates(n: int, m: int, slots: set[int], total: bool) -> bool:
    """True iff every vertex (every non-member too, when not total) has a
    neighbour in ``slots``, or is itself a member when plain."""
    covered = 0
    for s in slots:
        for t in _neighbours(n, m, s):
            covered |= 1 << t
        if not total:
            covered |= 1 << s
    return covered == (1 << n * m) - 1


def pairs_cover(n: int, m: int, slots: set[int], pairs) -> bool:
    """True iff ``pairs`` are disjoint grid edges whose ends are exactly ``slots``."""
    seen: set[int] = set()
    for a, b in pairs:
        sa, sb = (a[0] - 1) * m + a[1] - 1, (b[0] - 1) * m + b[1] - 1
        if sb not in _neighbours(n, m, sa) or sa in seen or sb in seen or sa == sb:
            return False
        seen.update((sa, sb))
    return seen == slots


def perfect_pairs(n: int, m: int, vertices: list[tuple[int, int]]):
    """The pairs the package's matcher offers for the induced subgraph, or None."""
    from torusdom.torus import TorusDims, VertexSet, make_torus
    from torusdom.validate import has_perfect_matching

    vs = VertexSet.from_vertices(TorusDims(n, m), vertices)
    witness = has_perfect_matching(make_torus(n, m), vs)
    return None if witness is None else witness.pairs


def certificate_problem(doc, n: int, m: int, kind: str) -> str | None:
    """Why a parsed certificate is not a valid ``kind`` set on n x m, or None."""
    if not isinstance(doc, dict) or tuple(doc) != KEYS:
        return "certificate keys differ from the schema"
    if (doc["n"], doc["m"], doc["kind"]) != (n, m, kind):
        return f"certificate is {doc['n']}x{doc['m']} {doc['kind']}, wanted {n}x{m} {kind}"
    verts = [tuple(v) for v in doc["vertices"]]
    if any(not (1 <= i <= n and 1 <= j <= m) for i, j in verts):
        return "vertex outside the grid"
    slots = {(i - 1) * m + j - 1 for i, j in verts}
    if len(slots) != len(verts) or doc["cardinality"] != len(verts):
        return "cardinality field does not match the distinct vertices"
    if not dominates(n, m, slots, total=kind != "plain"):
        return f"set is not {'total ' if kind != 'plain' else ''}dominating"
    if kind == "paired":
        pairs = perfect_pairs(n, m, verts)
        if pairs is None or not pairs_cover(n, m, slots, pairs):
            return "set has no valid perfect matching"
    return None


def _load(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def check_solve(op: dict, rec: dict):
    if rec["rc"] != 0:
        return f"exit code {rec['rc']}, expected 0", {}
    match = SOLVE_LINE.match(rec["stdout"])
    if not match:
        return "no value line on stdout", {}
    n, m, value, method = int(match[1]), int(match[2]), int(match[3]), match[4]
    if (n, m) != (op["n"], op["m"]):
        return f"answered {n}x{m}, asked {op['n']}x{op['m']}", {}
    problem = value_problem(op, n, m, value)
    if problem is not None:
        return problem, {}
    doc = _load(op["out"])
    problem = certificate_problem(doc, n, m, op["kind"])
    if problem is None and doc["cardinality"] != value:
        problem = f"certificate has {doc['cardinality']} vertices, value is {value}"
    key = f"{n}x{m}:{op['kind']}"
    reference = op["values"].get(key) or op["bounds"][key][1]
    return problem, {"method": method, "certificate": value, "reference": reference}


def check_construct(op: dict, rec: dict):
    if rec["rc"] != 0:
        return f"exit code {rec['rc']}, expected 0", {}
    doc = _load(op["out"])
    problem = certificate_problem(doc, op["n"], op["m"], op["kind"])
    if problem is not None:
        return problem, {}
    if doc["cardinality"] > op["ceiling"]:
        return f"{doc['cardinality']} vertices, more than the recorded {op['ceiling']}", {}
    return None, {"certificate": doc["cardinality"], "reference": op["ceiling"]}


def check_verify(op: dict, rec: dict):
    if rec["rc"] != op["rc"]:
        return f"exit code {rec['rc']}, expected {op['rc']}", {}
    verdict = f"claimed {op['kind']}: {'VERIFIED' if op['rc'] == 0 else 'FAILED'}"
    last = rec["stdout"].rstrip("\n").rsplit("\n", 1)[-1]
    if last != verdict:
        return f"last line {last!r}, expected {verdict!r}", {}
    return None, {}


def check_table(op: dict, rec: dict):
    if rec["rc"] != 0:
        return f"exit code {rec['rc']}, expected 0", {}
    rows = _load(op["out"])
    if not isinstance(rows, list):
        return "table output is not a JSON list", {}
    cells = {(r.get("n"), r.get("m")): r for r in rows if isinstance(r, dict)}
    if len(rows) != len(op["cells"]) or set(cells) != {tuple(c) for c in op["cells"]}:
        return "table rows do not match the requested cells", {}
    exact = 0
    for (n, m), row in sorted(cells.items()):
        if row.get("kind") != op["kind"]:
            return f"row {n}x{m} has kind {row.get('kind')!r}", {}
        value = row.get("exact")
        if value is None:
            continue
        exact += 1
        problem = value_problem(op, n, m, value)
        if problem is not None:
            return problem, {}
    return None, {"cells": len(rows), "exact_cells": exact}


def value_problem(op: dict, n: int, m: int, value) -> str | None:
    """Why ``value`` cannot be the kind's domination number of n x m, or None."""
    key = f"{n}x{m}:{op['kind']}"
    known = op["values"].get(key)
    if known is not None:
        return None if value == known else f"{key} = {value}, known value {known}"
    if key not in op["bounds"]:
        return f"{key} = {value}, but no value or bounds are recorded for it"
    lo, hi = op["bounds"][key]
    if not isinstance(value, int) or not lo <= value <= hi:
        return f"{key} = {value}, outside the recorded bounds [{lo}, {hi}]"
    if op["kind"] == "paired" and value % 2:
        return f"{key} = {value} is odd"
    return None


def check_audit(op: dict, rec: dict):
    if rec["rc"] != op["rc"]:
        return f"exit code {rec['rc']}, expected {op['rc']}", {}
    solved = []
    for line in rec["stdout"].splitlines():
        match = AUDIT_SOLVE.match(line)
        if match:
            kind, value = match[1], int(match[2])
            problem = value_problem(dict(op, kind=kind), op["n"], op["m"], value)
            if problem is not None:
                return problem, {}
            solved.append(kind)
    return None, {"solved": solved}


CHECKERS = {
    "solve": check_solve,
    "construct": check_construct,
    "verify": check_verify,
    "table": check_table,
    "audit": check_audit,
}


def check(op: dict, rec: dict):
    """``(problem, facts)`` for one command; a crash or a missing report is a problem."""
    if rec.get("crashed"):
        return f"command did not report: {rec['crashed']}", {}
    return CHECKERS[op["command"]](op, rec)
