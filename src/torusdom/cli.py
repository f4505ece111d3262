"""Command line front end.

Subcommands: value (closed forms and bound intervals), construct (emit a
pattern certificate), verify (re-validate a certificate file), solve
(exact computation with certificate output, answered from the result
cache when a stored certificate passes its checks), table
(sweep a rectangle of instances to CSV or JSON) and audit (end-to-end
cross-checks for one instance).  One table, `_COMMANDS`, holds each
subcommand's help line, arguments and handler.  A canonical command line
(exact `--flag value` pairs, store_true flags and verify's one
positional, each at most once, every value of its type and choices, none
starting with `-`) is read from that table without importing argparse.
Every other line goes to argparse, which builds the full tree from the
same table and is the one source of help, usage text and usage errors:
`-h`, abbreviated flags, `--flag=value`, values that start with `-`,
`--`, unknown or repeated flags, bad or missing values.

Exit codes: 0 success or verified, 1 verification failure, mismatch,
unsupported request or a file that cannot be written, 2 usage error or
bad request, 3 instance too large.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from .certificates import Certificate, ResultCache, load_certificate
from .construct import ConstructionResult, best_upper_witness
from .errors import (
    CertificateError,
    CongruenceError,
    ConstructionInvalidError,
    InstanceTooLargeError,
    InvalidDimensionsError,
    InvalidInputError,
    OutOfRangeError,
    TorusDomError,
    UnsupportedClassError,
)
from .formulas import upper_bounds
from .solve import SolveMethod, canonical, solve, solve_within_reach
from .torus import make_torus
from .validate import (
    DominationKind,
    column_profile,
    multiplicity_histogram,
    satisfies,
)

if TYPE_CHECKING:
    import argparse

# the provenance of every certificate an engine builds
_SOLVER_PROVENANCES = frozenset(f"solver:{method.value}" for method in SolveMethod)

_GAMMA = {
    DominationKind.PLAIN: "gamma",
    DominationKind.TOTAL: "gamma_t",
    DominationKind.PAIRED: "gamma_p",
}


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    v = int(text)
    return range(v, v + 1)


def cmd_value(args: SimpleNamespace) -> int:
    kind = DominationKind(args.kind)
    report = upper_bounds(args.n, args.m, kind)
    name = f"{_GAMMA[kind]}({args.n},{args.m})"
    if report.exact is not None:
        print(f"{name} = {report.exact}")
    else:
        print(f"{name} in [{report.lower_bound}, {report.best_upper()}]")
    print(f"  lower {report.lower_bound} (degree bound)")
    for value, provenance in report.upper_bounds:
        print(f"  upper {value} ({provenance})")
    return 0


def cmd_construct(args: SimpleNamespace) -> int:
    kind = DominationKind(args.kind)
    if kind is DominationKind.PLAIN:
        raise UnsupportedClassError(
            "no pattern catalog exists for plain domination; use total or paired"
        )
    result = best_upper_witness(args.n, args.m, kind)
    cert = Certificate.from_vertex_set(result.vertex_set, kind, result.provenance)
    cert.check()
    if args.out:
        cert.save(args.out)
        print(
            f"wrote {args.out}: {kind.value} set of {cert.cardinality} vertices "
            f"on {args.n}x{args.m} ({result.provenance})"
        )
    else:
        sys.stdout.write(cert.to_json())
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
    cert = load_certificate(args.file)
    claimed = DominationKind(args.kind) if args.kind else cert.kind
    try:
        cert_vs = cert.vertex_set()
    except CertificateError as exc:
        print(f"structural failure: {exc}", file=sys.stderr)
        return 1
    print(
        f"certificate {cert.n}x{cert.m} {cert.kind.value} "
        f"cardinality {cert.cardinality} ({cert.provenance})"
    )
    g = make_torus(cert.n, cert.m)
    verdicts = {}
    for kind in DominationKind:
        verdicts[kind] = satisfies(g, cert_vs, kind)
        print(f"  {kind.value}: {'yes' if verdicts[kind] else 'no'}")
    histogram = multiplicity_histogram(g, cert_vs)
    line = ", ".join(f"{k}x{count}" for k, count in enumerate(histogram) if count)
    print(f"  multiplicity histogram (dominators x vertices): {line}")
    # a column profile applies only to a grid with a side of 3
    profile = None
    if cert.m == 3:
        profile = column_profile(g, cert_vs)
    elif cert.n == 3:
        profile = column_profile(make_torus(cert.m, cert.n), cert_vs.transposed())
    if profile is not None and profile.applicable:
        print(
            f"  column profile: alpha = {profile.alpha}, "
            f"identity {'ok' if profile.identity_ok else 'FAIL'}, "
            f"surplus {'ok' if profile.surplus_ok else 'FAIL'}, "
            f"demand {'ok' if profile.demand_ok else 'FAIL'}"
        )
    ok = verdicts[claimed]
    print(f"claimed {claimed.value}: {'VERIFIED' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_solve(args: SimpleNamespace) -> int:
    kind = DominationKind(args.kind)
    t0 = time.perf_counter()
    cache = ResultCache(args.cache_dir)
    prior = cache.get(args.n, args.m, kind, args.method)
    # --canonical reads no stored certificate and stores none: the set it
    # emits may credit another engine than the one its value line names
    hit = None
    if prior is not None and not args.canonical:
        hit = cache.certificate(args.n, args.m, kind, *prior, _SOLVER_PROVENANCES)
    if hit is not None:
        cert = hit
        value, method = cert.cardinality, cert.provenance.removeprefix("solver:")
    else:
        # `solve._result` has checked the set under `kind`, canonical's too
        res = solve(args.n, args.m, kind, args.method)
        emitted = canonical(res) if args.canonical else res
        cert = Certificate.from_vertex_set(emitted.certificate, kind, f"solver:{emitted.method.value}")
        if prior is not None and prior[0] != res.value:
            print(
                f"cache mismatch: stored value {prior[0]} != computed {res.value}",
                file=sys.stderr,
            )
            return 1
        value, method = res.value, res.method.value
    elapsed = time.perf_counter() - t0
    if args.out:
        cert.save(args.out)
    if hit is None and not args.canonical:
        digest = cache.put(cert, args.method)
    else:
        digest = cert.digest()
    print(f"{_GAMMA[kind]}({args.n},{args.m}) = {value} [method {method}, {elapsed:.3f}s]")
    print(f"  certificate digest {digest}")
    if args.out:
        print(f"  wrote {args.out}")
    return 0


def cmd_table(args: SimpleNamespace) -> int:
    kind = DominationKind(args.kind)
    header = [
        "n", "m", "kind", "lower_bound", "exact", "method",
        "formula", "best_upper", "agreement",
    ]
    rows = []
    for n in args.n:
        for m in args.m:
            report = upper_bounds(n, m, kind)
            formula = report.exact
            best_up = report.best_upper()
            try:
                res = solve_within_reach(n, m, kind)
            except (InstanceTooLargeError, ConstructionInvalidError):
                value, method = None, ""
                agree = formula is None or report.lower_bound <= formula <= best_up
            else:
                value, method = res.value, res.method.value
                agree = report.lower_bound <= value <= best_up and formula in (None, value)
            fields = (n, m, kind.value, report.lower_bound, value, method, formula, best_up, agree)
            rows.append(dict(zip(header, fields)))
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(["" if row[col] is None else row[col] for col in header] for row in rows)
        text = buffer.getvalue()
    if args.out:
        out = Path(args.out)
        # as bytes, so the csv module's \r\n line ends are written as they are
        out.write_bytes(text.encode())
        print(f"wrote {out}: {len(rows)} rows")
    else:
        sys.stdout.write(text)
    return 0


def cmd_audit(args: SimpleNamespace) -> int:
    n, m = args.n, args.m
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, ok, detail))
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    print(f"audit {n}x{m}")
    witnesses: dict[DominationKind, ConstructionResult] = {}
    for kind in (DominationKind.TOTAL, DominationKind.PAIRED):
        try:
            result = witnesses[kind] = best_upper_witness(n, m, kind)
            record(
                f"construction:{kind.value}",
                True,
                f"{result.provenance} gives {result.claimed_cardinality} vertices",
            )
        except ConstructionInvalidError as exc:
            record(f"construction:{kind.value}", False, str(exc))

    values: dict[DominationKind, int] = {}
    cache = ResultCache(args.cache_dir)
    for kind in (DominationKind.PLAIN, DominationKind.TOTAL, DominationKind.PAIRED):
        try:
            res = solve_within_reach(n, m, kind)
        except (InstanceTooLargeError, ConstructionInvalidError) as exc:
            record(f"solve:{kind.value}", True, f"skipped ({exc})")
            continue
        value = values[kind] = res.value
        detail = f"{value} via {res.method.value}"
        report = upper_bounds(n, m, kind)
        ok = report.lower_bound <= value <= report.best_upper()
        if report.exact is not None and report.exact != value:
            ok = False
            detail += f", formula says {report.exact}"
        if kind in witnesses and value > witnesses[kind].claimed_cardinality:
            ok = False
            detail += f", exceeds witness {witnesses[kind].claimed_cardinality}"
        if kind is DominationKind.PAIRED and value % 2:
            ok = False
            detail += ", odd paired value"
        prior = cache.get(n, m, kind, "auto")
        if prior is not None and prior[0] != value:
            ok = False
            detail += f", cache holds {prior[0]}"
        record(f"solve:{kind.value}", ok, detail)
        if ok:
            cert = Certificate.from_vertex_set(
                res.certificate, kind, f"solver:{res.method.value}"
            )
            cache.put(cert, "auto")

    chain = (DominationKind.PLAIN, DominationKind.TOTAL, DominationKind.PAIRED)
    for low, high in zip(chain, chain[1:]):
        if low in values and high in values:
            detail = f"{values[low]} <= {values[high]}"
            record(f"chain:{low.value}<={high.value}", values[low] <= values[high], detail)
    failed = [name for name, ok, _ in checks if not ok]
    print(f"audit {'passed' if not failed else 'FAILED: ' + ', '.join(failed)}")
    return 0 if not failed else 1


_INSTANCE = (
    ("--n", {"type": int, "required": True, "help": "first cycle length"}),
    ("--m", {"type": int, "required": True, "help": "second cycle length"}),
)
_KIND = ("--kind", {"choices": ["paired", "plain", "total"], "default": "total"})
_CACHE_DIR = ("--cache-dir", {"help": "result cache directory"})

# name -> (help line, arguments, handler), in the order of the help; each
# argument is a flag (or the positional's name) and its add_argument keywords
_COMMANDS = {
    "value": ("closed-form value or bound interval", (*_INSTANCE, _KIND), cmd_value),
    "construct": (
        "emit a pattern certificate",
        (*_INSTANCE, _KIND, ("--out", {"help": "certificate path (default: stdout)"})),
        cmd_construct,
    ),
    "verify": (
        "re-validate a certificate file",
        (
            ("file", {"help": "certificate path"}),
            ("--kind", {"choices": ["paired", "plain", "total"], "help": "override the claimed kind"}),
        ),
        cmd_verify,
    ),
    "solve": (
        "exact value with certificate",
        (
            *_INSTANCE,
            _KIND,
            ("--method", {"choices": ["auto", "oracle", "dp"], "default": "auto"}),
            ("--out", {"help": "write the certificate here"}),
            _CACHE_DIR,
            (
                "--canonical",
                {
                    "action": "store_true",
                    "help": "emit the lexicographically least certificate "
                    "(exact on small grids, rotation-orbit representative beyond)",
                },
            ),
        ),
        cmd_solve,
    ),
    "table": (
        "sweep instances to csv or json",
        (
            ("--n", {"type": _parse_range, "required": True, "help": "value or range like 3..13"}),
            ("--m", {"type": _parse_range, "required": True, "help": "value or range like 3..13"}),
            _KIND,
            ("--format", {"choices": ["csv", "json"], "default": "csv"}),
            ("--out", {"help": "output path (default: stdout)"}),
        ),
        cmd_table,
    ),
    "audit": ("end-to-end cross-checks", (*_INSTANCE, _CACHE_DIR), cmd_audit),
}


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree, one subparser per `_COMMANDS` entry."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="torusdom",
        description="Total and paired domination numbers of toroidal meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, arguments, handler) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            command.add_argument(flag, **options)
        command.set_defaults(func=handler)
    return parser


def _read(argv: list[str]) -> Optional[SimpleNamespace]:
    """What `build_parser()` would parse from a canonical command line,
    less its `command` key, or None for any other line.  Canonical: a
    subcommand, then each of its arguments at most once, as `--flag
    value` with the exact flag, a bare store_true flag or the positional
    value; no value empty or starting with `-`, each converted by its
    `type` and in its `choices`, none required left out."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, arguments, handler = _COMMANDS[argv[0]]
    spec = dict(arguments)
    given: dict[str, object] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            flag = token
            if flag not in spec or flag in given:
                return None
            if spec[flag].get("action") == "store_true":
                given[flag] = True
                continue
            text = next(tokens, "")
        else:
            flag = next((f for f in spec if not f.startswith("-") and f not in given), None)
            if flag is None:
                return None
            text = token
        options = spec[flag]
        if not text or text.startswith("-"):
            return None
        try:
            value = options.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if "choices" in options and value not in options["choices"]:
            return None
        given[flag] = value
    namespace = {}
    for flag, options in arguments:
        if flag not in given and options.get("required", not flag.startswith("-")):
            return None
        default = options.get("default", False if options.get("action") == "store_true" else None)
        dest = flag[2:].replace("-", "_") if flag.startswith("--") else flag
        namespace[dest] = given.get(flag, default)
    return SimpleNamespace(**namespace, func=handler)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        # help, usage errors and every other form are argparse's
        try:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except (TorusDomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, InstanceTooLargeError):
            return 3
        bad_request = (InvalidDimensionsError, OutOfRangeError, InvalidInputError, CongruenceError)
        return 2 if isinstance(exc, bad_request) else 1


if __name__ == "__main__":
    sys.exit(main())
