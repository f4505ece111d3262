"""Record the expected outcome of every pool member.

usage: PYTHONPATH=src python3 bench/record.py

Writes ``bench/data/expected.json`` and the certificates ``verify`` reads
under ``bench/data/certs``, using the package in this checkout:

* ``values``: exact domination numbers, keyed "NxM:kind", from the
  solver for the ``exact`` pool, from ``table`` (its exact column, or
  its closed form) for the swept rectangle, and from ``audit`` for the
  audited instances.  A run must reproduce them exactly.
* ``bounds``: [lower bound, best upper bound] of each swept cell and
  audited instance with no known value; a later exact value there must
  fall inside.
* ``ceilings``: the certificate size ``construct`` emits today; later
  certificates may only be smaller.
* ``audit_rc``: the exit code of ``audit`` on each audited instance.

Run it only when a pool gains members: the recorded values are the
reference the benchmark checks the program against.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from checks import AUDIT_SOLVE
from workloads import DATA, cert_path

from torusdom import cli
from torusdom.construct import best_upper_witness
from torusdom.formulas import upper_bounds
from torusdom.solve import solve
from torusdom.validate import DominationKind


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def put(values: dict, key: str, value: int) -> None:
    if values.setdefault(key, value) != value:
        sys.exit(f"conflicting values for {key}: {values[key]} and {value}")


def main() -> int:
    pools = json.loads((DATA / "pools.json").read_text())
    values: dict[str, int] = {}
    bounds: dict[str, list[int]] = {}
    ceilings: dict[str, int] = {}
    audit_rc: dict[str, int] = {}

    for slot in pools["exact"]:
        method = "dp" if "dp" in slot["args"] else "auto"
        for n, m, kind in slot["members"]:
            put(values, f"{n}x{m}:{kind}", solve(n, m, DominationKind(kind), method).value)

    table = pools["sweep"]["table"]
    with tempfile.TemporaryDirectory() as tmp:
        for kind in table["kinds"]:
            out = Path(tmp) / f"{kind}.json"
            rc, _ = run_cli(["table", "--n", "{}..{}".format(*table["n"]),
                             "--m", "{}..{}".format(*table["m"]), "--kind", kind,
                             "--format", "json", "--out", str(out)])
            if rc != 0:
                sys.exit(f"table --kind {kind} exited {rc}")
            for row in json.loads(out.read_text()):
                key = f"{row['n']}x{row['m']}:{kind}"
                known = row["exact"] if row["exact"] is not None else row["formula"]
                if known is not None:
                    put(values, key, known)
                else:
                    bounds[key] = [row["lower_bound"], row["best_upper"]]

        for slot in pools["sweep"]["audit"]:
            for n, m in slot["members"]:
                rc, text = run_cli(["audit", "--n", str(n), "--m", str(m),
                                    "--cache-dir", str(Path(tmp) / f"cache-{n}x{m}")])
                audit_rc[f"{n}x{m}"] = rc
                for line in text.splitlines():
                    match = AUDIT_SOLVE.match(line)
                    if match:
                        put(values, f"{n}x{m}:{match[1]}", int(match[2]))
                for kind in DominationKind.PLAIN, DominationKind.TOTAL, DominationKind.PAIRED:
                    key = f"{n}x{m}:{kind.value}"
                    if key not in values:
                        report = upper_bounds(n, m, kind)
                        bounds.setdefault(key, [report.lower_bound, report.best_upper()])

    for slot in pools["construct"]:
        for n, m in slot["members"]:
            for kind in slot["kinds"]:
                witness = best_upper_witness(n, m, DominationKind(kind))
                ceilings[f"{n}x{m}:{kind}"] = len(witness.vertex_set)

    for kind, pool in pools["sweep"]["verify"]["certificates"].items():
        for n, m in pool:
            path = cert_path(n, m, kind)
            path.parent.mkdir(parents=True, exist_ok=True)
            rc, _ = run_cli(["construct", "--n", str(n), "--m", str(m), "--kind", kind,
                             "--out", str(path)])
            if rc != 0:
                sys.exit(f"construct {n}x{m} {kind} exited {rc}")

    doc = {
        "values": dict(sorted(values.items())),
        "bounds": dict(sorted(bounds.items())),
        "ceilings": dict(sorted(ceilings.items())),
        "audit_rc": dict(sorted(audit_rc.items())),
    }
    (DATA / "expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
