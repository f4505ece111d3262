import argparse
import contextlib
import csv
import dataclasses
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from torusdom.certificates import Certificate, ResultCache, load_certificate
from torusdom import cli
from torusdom.cli import build_parser, main
from torusdom.errors import ConstructionInvalidError
from torusdom.solve import find_efficient_tds, solve, solve_oracle
from torusdom.validate import DominationKind

validate_module = importlib.import_module("torusdom.validate")

PLAIN = DominationKind.PLAIN
TOTAL = DominationKind.TOTAL
PAIRED = DominationKind.PAIRED


def test_value_closed_form(capsys):
    assert main(["value", "--n", "10", "--m", "3", "--kind", "paired"]) == 0
    out = capsys.readouterr().out
    assert "gamma_p(10,3) = 8" in out
    assert "lower 8 (degree bound)" in out
    assert "upper 8 (upper:closed-form)" in out


def test_value_bound_interval(capsys):
    assert main(["value", "--n", "6", "--m", "6", "--kind", "paired"]) == 0
    out = capsys.readouterr().out
    assert "gamma_p(6,6) in [9, 10]" in out
    assert "upper:wrap-braided" in out


def test_value_rejects_thin_grid(capsys):
    assert main(["value", "--n", "2", "--m", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert main(["value", "--n", "3"]) == 2
    assert main(["value", "--n", "3", "--m", "4", "--kind", "quad"]) == 2
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["table", "--n", "3..x", "--m", "3"]) == 2
    capsys.readouterr()
    assert main(["solve", "--n", "3"]) == 2
    assert capsys.readouterr().err.startswith("usage: torusdom solve [-h]")
    # arguments the subcommand does not know are reported under the top-level usage
    assert main(["value", "--n", "4", "--m", "4", "--bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: torusdom [-h]")
    assert err.endswith("torusdom: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("command", ["value", "construct", "verify", "solve", "table", "audit"])
def test_one_subcommand_parser_reads_as_in_the_full_tree(command):
    full = build_parser()
    (choices,) = [a.choices for a in full._actions if isinstance(a, argparse._SubParsersAction)]
    alone = build_parser(command)
    assert alone.format_help() == choices[command].format_help()
    assert alone.format_usage() == choices[command].format_usage()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "{value,construct,verify,solve,table,audit}" in capsys.readouterr().out
    assert main(["solve", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: torusdom solve [-h]")


def _tokens(flag, options):
    """A canonical form of one table argument, then forms whose value
    argparse refuses or that only argparse reads."""
    if options.get("action") == "store_true":
        return [flag], []
    if not flag.startswith("-"):
        return ["cert.json"], [["-cert.json"], [""]]
    if "choices" in options:
        good, bad = options["choices"][-1], ["quad", "-x"]
    elif options.get("type") is int:
        good, bad = "5", ["x", "-3", "5.0"]
    elif "type" in options:
        good, bad = "3..5", ["3..x", "-3"]
    else:
        good, bad = "out.json", ["-o", ""]
    return [flag, good], [[flag, b] for b in bad] + [[f"{flag}={good}"], [flag]]


def _generated_argvs(command):
    arguments = cli._COMMANDS[command][1]
    forms = [_tokens(flag, options) for flag, options in arguments]
    for chosen in range(1 << len(arguments)):
        picked = [forms[i] for i in range(len(arguments)) if chosen >> i & 1]
        good = [form[0] for form in picked]
        for order in (good, good[::-1], good[1:] + good[:1]):
            yield sum(order, []), True
        for i, (_, bad) in enumerate(picked):
            for tokens in bad:
                yield sum(good[:i] + [tokens] + good[i + 1:], []), False
        if good:
            for extra in (good[0], ["--"], ["-h"], ["--bogus"], ["extra"]):
                yield sum(good, []) + extra, False
    every = [form[0] for form in forms]
    for i, (flag, _) in enumerate(arguments):
        if flag.startswith("--") and len(flag) > 4:
            abbreviated = [flag[:4], *every[i][1:]]
            yield sum(every[:i] + [abbreviated] + every[i + 1:], []), False


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_the_reader_parses_what_argparse_parses(command):
    # every line the reader accepts is parsed as argparse parses it, every
    # canonical line argparse accepts is read, and every line argparse
    # refuses is left to argparse
    read = 0
    for argv, canonical in _generated_argvs(command):
        ours = cli._read([command, *argv])
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                theirs, extra = build_parser(command).parse_known_args(argv)
        except SystemExit:
            theirs = extra = None
        if theirs is None or extra:
            assert ours is None, argv
        elif ours is not None:
            assert vars(ours) == vars(theirs), argv
            read += 1
        else:
            assert not canonical, argv
    assert read > 0


@pytest.mark.parametrize(
    "fallback, canonical",
    [
        (["value", "--n", "10", "--m", "3", "--kind=paired"],
         ["value", "--n", "10", "--m", "3", "--kind", "paired"]),
        (["value", "--n", "4", "--m", "3", "--kind", "plain", "--n", "10", "--kind", "paired"],
         ["value", "--n", "10", "--m", "3", "--kind", "paired"]),
        (["value", "--n", "6", "--m", "6", "--k", "paired"],
         ["value", "--n", "6", "--m", "6", "--kind", "paired"]),
        (["solve", "--n", "5", "--m", "5", "--kind", "paired", "--can"],
         ["solve", "--n", "5", "--m", "5", "--kind", "paired", "--canonical"]),
        (["verify", "--", "bench/data/certs/61x61-total.json"],
         ["verify", "bench/data/certs/61x61-total.json"]),
    ],
)
def test_forms_only_argparse_reads_run_as_their_canonical_line(fallback, canonical, capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    assert cli._read(fallback) is None and cli._read(canonical) is not None
    outcomes = []
    for argv in (fallback, canonical):
        rc = main(argv)
        out, err = capsys.readouterr()
        # a solve line ends in the time it took
        outcomes.append((rc, re.sub(r"\d+\.\d{3}s\]", "", out), err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and not outcomes[0][2]


def test_usage_errors_of_forms_only_argparse_reads(capsys):
    # a negative value is argparse's to read, and the side check refuses it
    assert main(["value", "--n", "-3", "--m", "4"]) == 2
    assert capsys.readouterr() == ("", "error: side must be >= 3, got -3\n")
    for argv, message in (
        (["value", "--n", "10", "--m", "3", "--"], "torusdom: error: unrecognized arguments: --\n"),
        (["value", "--", "--n", "10", "--m", "3"],
         "torusdom value: error: the following arguments are required: --n, --m\n"),
        (["value", "--n", "10", "--m", "3", "--kind=quad"], "invalid choice: 'quad'"),
        (["value", "--n=x", "--m", "3"], "argument --n: invalid int value: 'x'"),
        (["solve", "--n", "5", "--m", "5", "--canonical", "--canonical", "--c", "d"],
         "ambiguous option: --c could match --cache-dir, --canonical"),
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith("usage: torusdom") and message in err


def test_a_well_formed_command_never_loads_argparse(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = (
        "import sys; before = set(sys.modules); from torusdom.cli import main; main(sys.argv[1:]); "
        "print(*sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))"
    )

    def loaded(*args):
        run = subprocess.run(
            [sys.executable, "-c", probe, *args],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        return run.stdout.splitlines()[-1].split()

    solve_line = ["solve", "--n", "6", "--m", "4", "--cache-dir", "cache", "--out", "c.json"]
    assert loaded(*solve_line) == []
    assert loaded("verify", "c.json", "--kind", "total") == []
    # the probe sees argparse when a form needs it
    assert "argparse" in loaded("verify", "c.json", "--kind=total")


def test_construct_to_stdout(capsys):
    assert main(["construct", "--n", "8", "--m", "4", "--kind", "paired"]) == 0
    cert = Certificate.from_json(capsys.readouterr().out)
    assert (cert.n, cert.m, cert.kind, cert.cardinality) == (8, 4, PAIRED, 8)
    cert.check()


def test_construct_to_file(tmp_path, capsys):
    path = tmp_path / "pattern.json"
    rc = main(
        ["construct", "--n", "5", "--m", "5", "--kind", "total", "--out", str(path)]
    )
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    cert = load_certificate(path)
    assert cert.cardinality == 9
    assert cert.provenance == "corner-extended-total"
    cert.check()


def test_construct_plain_is_unsupported(capsys):
    assert main(["construct", "--n", "6", "--m", "6", "--kind", "plain"]) == 1
    assert "no pattern catalog" in capsys.readouterr().err


def test_grids_above_the_order_cap_exit_3_before_any_torus_is_built(
    monkeypatch, tmp_path, capsys
):
    path = tmp_path / "cert.json"
    assert main(["construct", "--n", "11", "--m", "11", "--out", str(path)]) == 0
    torus_module = importlib.import_module("torusdom.torus")
    built = []
    real_init = torus_module.TorusGraph.__init__

    def recording_init(self, dims):
        built.append(dims.order)
        real_init(self, dims)

    monkeypatch.setattr(torus_module.TorusGraph, "__init__", recording_init)
    monkeypatch.setattr(torus_module, "MAX_ORDER", 100)
    capsys.readouterr()
    cache = str(tmp_path / "cache")
    for argv in (
        ["construct", "--n", "11", "--m", "11", "--kind", "paired"],
        ["solve", "--n", "11", "--m", "11", "--kind", "total", "--cache-dir", cache],
        ["solve", "--n", "3", "--m", "34", "--kind", "paired", "--method", "dp",
         "--cache-dir", cache],
        ["verify", str(path)],
    ):
        assert main(argv) == 3, argv
        assert "above the cap of 100" in capsys.readouterr().err, argv
    # 9x9 is within the cap; its cascade would round up to 12x12 and is skipped
    assert main(["construct", "--n", "9", "--m", "9"]) == 0
    assert all(order <= 100 for order in built)


def test_construct_falls_back_when_pattern_family_fails(monkeypatch, capsys):
    # When the class pattern for 5x5 fails validation, the catalog must
    # hand back some other valid witness instead of erroring.
    def broken(n, m, kind):
        raise ConstructionInvalidError(f"pattern on {n}x{m} fails validation")

    monkeypatch.setattr("torusdom.construct.construct_bound_pattern", broken)
    assert main(["construct", "--n", "5", "--m", "5", "--kind", "paired"]) == 0
    cert = Certificate.from_json(capsys.readouterr().out)
    assert cert.provenance == "projection-cascade"
    assert cert.cardinality == 14
    cert.check()


def test_verify_accepts_good_certificate(tmp_path, capsys):
    path = tmp_path / "cert.json"
    main(["construct", "--n", "9", "--m", "3", "--kind", "paired", "--out", str(path)])
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "claimed paired: VERIFIED" in out
    assert "paired: yes" in out
    assert "column profile: alpha = (3, 4, 2, 0)" in out


def test_verify_profiles_a_width_3_grid_either_way_round(tmp_path, capsys):
    path = tmp_path / "cert.json"
    main(["construct", "--n", "9", "--m", "3", "--kind", "paired", "--out", str(path)])
    cert = load_certificate(path)
    flipped = tmp_path / "flipped.json"
    Certificate.from_vertex_set(cert.vertex_set().transposed(), PAIRED, "flipped").save(flipped)
    capsys.readouterr()
    assert main(["verify", str(flipped)]) == 0
    out = capsys.readouterr().out
    assert "certificate 3x9 paired" in out
    assert "column profile: alpha = (3, 4, 2, 0)" in out


def test_verify_prints_no_profile_without_a_side_of_3(capsys):
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "certs" / "61x61-total.json"
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "column profile" not in out
    assert out.endswith("claimed total: VERIFIED\n")


def test_verify_counts_the_multiplicity_once(monkeypatch, tmp_path, capsys):
    efficient = tmp_path / "efficient.json"
    Certificate.from_vertex_set(find_efficient_tds(8, 8), TOTAL, "handmade").save(efficient)
    counted = []
    real = validate_module.domination_multiplicity

    def counting(g, d):
        counted.append(g.dims)
        return real(g, d)

    for module in (validate_module, importlib.import_module("torusdom.cli")):
        monkeypatch.setattr(module, "domination_multiplicity", counting)
    path = Path(__file__).resolve().parents[1] / "bench" / "data" / "certs" / "61x61-total.json"
    assert main(["verify", str(path)]) == 0
    assert "  efficient-total: no\n" in capsys.readouterr().out
    assert len(counted) == 1
    # an efficient set still gets the full check, which counts again
    assert main(["verify", str(efficient)]) == 0
    assert "  efficient-total: yes\n" in capsys.readouterr().out
    assert len(counted) == 3


def test_verify_detects_tampered_cardinality(tmp_path, capsys):
    path = tmp_path / "cert.json"
    main(["construct", "--n", "8", "--m", "4", "--kind", "paired", "--out", str(path)])
    capsys.readouterr()
    text = path.read_text()
    path.write_text(text.replace('"cardinality": 8', '"cardinality": 7'))
    assert main(["verify", str(path)]) == 1
    assert "structural failure" in capsys.readouterr().err


def test_verify_rejects_unsorted_or_duplicated_vertex_lists(tmp_path, capsys):
    # one set has one accepted byte form: the same set with its vertices
    # reversed, or with a member listed twice, is a structural failure
    path = tmp_path / "cert.json"
    main(["construct", "--n", "8", "--m", "4", "--kind", "paired", "--out", str(path)])
    capsys.readouterr()
    cert = load_certificate(path)
    for vertices in (cert.vertices[::-1], cert.vertices[:1] + cert.vertices):
        dataclasses.replace(cert, vertices=vertices).save(path)
        assert main(["verify", str(path)]) == 1
        assert "structural failure" in capsys.readouterr().err


def test_verify_rejects_noncanonical_file(tmp_path, capsys):
    path = tmp_path / "cert.json"
    main(["construct", "--n", "8", "--m", "4", "--kind", "paired", "--out", str(path)])
    capsys.readouterr()
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(doc, indent=4) + "\n")
    assert main(["verify", str(path)]) == 1
    assert "canonical" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/cert.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_verify_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["verify", str(path)]) == 1
    assert "error: cannot read" in capsys.readouterr().err


def test_verify_fails_invalid_claim(tmp_path, capsys):
    cert = Certificate(4, 4, TOTAL, 2, ((1, 1), (1, 2)), "handmade")
    path = tmp_path / "bad.json"
    cert.save(path)
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "total: no" in out
    assert "claimed total: FAILED" in out


def test_verify_kind_override(tmp_path, capsys):
    # 8 rows of width 3 need 7 vertices: odd, so never paired.
    path = tmp_path / "cert.json"
    main(["construct", "--n", "8", "--m", "3", "--kind", "total", "--out", str(path)])
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "--kind", "paired"]) == 1
    out = capsys.readouterr().out
    assert "claimed paired: FAILED" in out
    assert main(["verify", str(path), "--kind", "plain"]) == 0


def test_solve_writes_certificate_and_cache(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    rc = main(
        [
            "solve", "--n", "6", "--m", "4", "--kind", "total",
            "--out", str(cert_path), "--cache-dir", str(tmp_path / "cache"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "gamma_t(6,4) = 8" in out
    assert "method profile-dp" in out
    assert "certificate digest" in out
    cert = load_certificate(cert_path)
    cert.check()
    assert cert.cardinality == 8
    cached = ResultCache(tmp_path / "cache").get(6, 4, TOTAL, "auto")
    assert cached == (8, cert.digest())


def test_certificate_checks_run_under_optimize(tmp_path):
    # python -O strips asserts; solve and verify must still check and succeed,
    # and verify must still refuse a vertex list out of slot order
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-O", "-m", "torusdom.cli", *args],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )

    solved = cli("solve", "--n", "6", "--m", "4", "--kind", "total",
                 "--cache-dir", str(tmp_path / "cache"))
    assert solved.returncode == 0, solved.stderr
    assert "gamma_t(6,4) = 8" in solved.stdout
    path = tmp_path / "cert.json"
    built = cli("construct", "--n", "5", "--m", "5", "--kind", "paired", "--out", str(path))
    assert built.returncode == 0, built.stderr
    verified = cli("verify", str(path))
    assert verified.returncode == 0, verified.stderr
    assert "claimed paired: VERIFIED" in verified.stdout
    audited = cli("audit", "--n", "9", "--m", "5", "--cache-dir", str(tmp_path / "cache"))
    assert audited.returncode == 0, audited.stderr
    assert "audit passed" in audited.stdout
    cert = load_certificate(path)
    dataclasses.replace(cert, vertices=cert.vertices[::-1]).save(path)
    reversed_list = cli("verify", str(path))
    assert reversed_list.returncode == 1
    assert "structural failure" in reversed_list.stderr


def test_solve_writes_its_certificate_before_printing(tmp_path):
    # stdout is a pipe nobody reads; the print fails, the certificate must not
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    path = tmp_path / "cert.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        subprocess.run(
            [sys.executable, "-m", "torusdom.cli", "solve", "--n", "6", "--m", "4",
             "--kind", "total", "--out", str(path), "--cache-dir", str(tmp_path / "cache")],
            env=env, stdout=write_end, stderr=subprocess.DEVNULL, timeout=120,
        )
    finally:
        os.close(write_end)
    assert path.exists()
    load_certificate(path).check()


def test_solve_sandwich_route(capsys, tmp_path):
    rc = main(
        ["solve", "--n", "5", "--m", "4", "--kind", "paired",
         "--cache-dir", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "gamma_p(5,4) = 6" in out
    assert "method sandwich" in out


def test_solve_oracle_cap_exits_three(capsys, tmp_path):
    rc = main(
        ["solve", "--n", "9", "--m", "9", "--kind", "total",
         "--method", "oracle", "--cache-dir", str(tmp_path)]
    )
    assert rc == 3
    assert "oracle cap" in capsys.readouterr().err


def test_solve_detects_cache_mismatch(tmp_path, capsys):
    cache = ResultCache(tmp_path)
    cache.put(6, 4, TOTAL, "auto", 7, "0" * 64)
    rc = main(
        ["solve", "--n", "6", "--m", "4", "--kind", "total",
         "--cache-dir", str(tmp_path)]
    )
    assert rc == 1
    assert "cache mismatch" in capsys.readouterr().err
    # Stored value untouched on mismatch.
    assert cache.get(6, 4, TOTAL, "auto") == (7, "0" * 64)


def test_solve_reuses_coherent_cache(tmp_path, capsys):
    args = ["solve", "--n", "9", "--m", "3", "--kind", "paired",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.count("gamma_p(9,3) = 8") == 2


def _count_solves(monkeypatch) -> list:
    """Route `cli.solve` through a counter; the list grows by one per solve."""
    cli_module = importlib.import_module("torusdom.cli")
    real, calls = cli_module.solve, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli_module, "solve", counting)
    return calls


def _solve_run(capsys, out, cache, n=9, m=5, kind="total", *extra):
    """(exit code, stdout without the elapsed time, --out bytes) of one solve."""
    rc = main(["solve", "--n", str(n), "--m", str(m), "--kind", kind, *extra,
               "--out", str(out), "--cache-dir", str(cache)])
    stdout = re.sub(r", \d+\.\d{3}s\]", "]", capsys.readouterr().out.replace(str(out), "OUT"))
    return rc, stdout, out.read_bytes()


def test_a_repeated_solve_is_answered_from_the_cache(monkeypatch, tmp_path, capsys):
    calls = _count_solves(monkeypatch)
    first = _solve_run(capsys, tmp_path / "a.json", tmp_path / "cache")
    assert len(calls) == 1
    again = _solve_run(capsys, tmp_path / "b.json", tmp_path / "cache")
    assert len(calls) == 1
    assert again == first
    assert first[0] == 0 and "gamma_t(9,5) = 12 [method profile-dp]" in first[1]


def _forge(cert: Certificate) -> Certificate:
    """The same claim on the grid's first slots, which do not dominate it."""
    verts = tuple((s // cert.m + 1, s % cert.m + 1) for s in range(cert.cardinality))
    return dataclasses.replace(cert, vertices=verts)


@pytest.mark.parametrize("fault", ["missing", "tampered", "forged", "other grid", "no solver"])
def test_a_stored_certificate_that_fails_a_check_is_solved_again(
    fault, monkeypatch, tmp_path, capsys
):
    cold = _solve_run(capsys, tmp_path / "cold.json", tmp_path / "cold")
    cache = ResultCache(tmp_path / "cache")
    cert = load_certificate(tmp_path / "cold.json")
    value, digest = cert.cardinality, cache.store(cert)
    path = cache.directory / f"{digest}.json"
    if fault == "missing":
        path.unlink()
    elif fault == "tampered":
        path.write_text(path.read_text().replace("profile-dp", "oracle"))
    elif fault == "forged":
        digest = cache.store(_forge(cert))
    elif fault == "no solver":
        digest = cache.store(dataclasses.replace(cert, provenance="pattern"))
    else:  # a valid set of the transposed grid
        other = cert.vertex_set().transposed()
        digest = cache.store(Certificate.from_vertex_set(other, TOTAL, cert.provenance))
    cache.put(9, 5, TOTAL, "auto", value, digest)
    calls = _count_solves(monkeypatch)
    assert _solve_run(capsys, tmp_path / "out.json", tmp_path / "cache") == cold
    assert len(calls) == 1
    assert cache.get(9, 5, TOTAL, "auto") == (value, cert.digest())
    # the replaced entry's certificate goes with it, whatever the fault was
    assert sorted(p.name for p in cache.directory.glob("*.json")) == sorted(
        [f"{cert.digest()}.json", "results.json"]
    )


def test_a_solve_after_audit_is_answered_from_what_audit_stored(monkeypatch, tmp_path, capsys):
    cold = {
        kind: _solve_run(capsys, tmp_path / f"cold-{kind}.json", tmp_path / "cold", 9, 5, kind)
        for kind in ("plain", "total")
    }
    assert main(["audit", "--n", "9", "--m", "5", "--cache-dir", str(tmp_path / "cache")]) == 0
    capsys.readouterr()
    calls = _count_solves(monkeypatch)
    for kind in ("plain", "total"):
        assert _solve_run(capsys, tmp_path / f"{kind}.json", tmp_path / "cache", 9, 5, kind) == cold[kind]
    assert calls == []


def test_canonical_and_plain_requests_never_serve_each_other(monkeypatch, tmp_path, capsys):
    # on 4x6 total the plain set credits the DP and the canonical one the oracle
    plain = _solve_run(capsys, tmp_path / "plain.json", tmp_path / "p", 4, 6, "total")
    canon = _solve_run(capsys, tmp_path / "canon.json", tmp_path / "c", 4, 6, "total", "--canonical")
    assert plain[2] != canon[2]
    calls = _count_solves(monkeypatch)
    cache = tmp_path / "cache"
    assert _solve_run(capsys, tmp_path / "1.json", cache, 4, 6, "total", "--canonical") == canon
    assert ResultCache(cache).get(4, 6, TOTAL, "auto") is None
    assert _solve_run(capsys, tmp_path / "2.json", cache, 4, 6, "total") == plain
    assert _solve_run(capsys, tmp_path / "3.json", cache, 4, 6, "total", "--canonical") == canon
    assert len(calls) == 3
    assert _solve_run(capsys, tmp_path / "4.json", cache, 4, 6, "total") == plain
    assert len(calls) == 3


def test_solve_canonical_small_grid_is_oracle_exact(tmp_path, capsys):
    cert_path = tmp_path / "canon.json"
    rc = main(
        ["solve", "--n", "3", "--m", "4", "--kind", "total", "--canonical",
         "--out", str(cert_path), "--cache-dir", str(tmp_path / "c")]
    )
    assert rc == 0
    capsys.readouterr()
    expected = Certificate.from_vertex_set(
        solve_oracle(3, 4, TOTAL).certificate, TOTAL, "solver:oracle"
    )
    assert cert_path.read_text() == expected.to_json()


def test_solve_canonical_large_grid_starts_at_origin(tmp_path, capsys):
    cert_path = tmp_path / "canon.json"
    rc = main(
        ["solve", "--n", "7", "--m", "4", "--kind", "paired", "--canonical",
         "--out", str(cert_path), "--cache-dir", str(tmp_path / "c")]
    )
    assert rc == 0
    capsys.readouterr()
    cert = load_certificate(cert_path)
    cert.check()
    assert cert.vertices[0] == (1, 1)


@pytest.mark.parametrize("n, m, kind", [(4, 6, "total"), (3, 7, "paired")])
def test_solve_canonical_credits_the_oracle_that_built_the_set(n, m, kind, tmp_path, capsys):
    # auto answers these with the DP or the sandwich; the emitted set is the oracle's
    cert_path = tmp_path / "canon.json"
    rc = main(
        ["solve", "--n", str(n), "--m", str(m), "--kind", kind, "--canonical",
         "--out", str(cert_path), "--cache-dir", str(tmp_path / "c")]
    )
    assert rc == 0
    assert "method oracle" not in capsys.readouterr().out
    cert = load_certificate(cert_path)
    assert cert.provenance == "solver:oracle"
    assert cert.vertex_set() == solve_oracle(n, m, cert.kind).certificate


def test_solve_canonical_reuses_the_auto_oracle_result(monkeypatch, tmp_path, capsys):
    modules = [importlib.import_module(f"torusdom.{name}") for name in ("solve", "cli")]
    real = modules[0].solve_oracle
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        if hasattr(module, "solve_oracle"):
            monkeypatch.setattr(module, "solve_oracle", counting)
    rc = main(
        ["solve", "--n", "4", "--m", "5", "--kind", "total", "--canonical",
         "--out", str(tmp_path / "canon.json"), "--cache-dir", str(tmp_path / "c")]
    )
    assert rc == 0
    assert "method oracle" in capsys.readouterr().out
    assert calls == [(4, 5, TOTAL)]


def test_table_csv_stdout(capsys):
    rc = main(["table", "--n", "3..8", "--m", "3", "--kind", "paired"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 6
    assert all(row["agreement"] == "True" for row in rows)
    assert [row["exact"] for row in rows] == ["4", "4", "4", "6", "6", "8"]
    assert rows[0]["kind"] == "paired"


def test_table_json_file(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    rc = main(
        ["table", "--n", "4..6", "--m", "4..5", "--kind", "total",
         "--format", "json", "--out", str(path)]
    )
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    rows = json.loads(path.read_text())
    assert len(rows) == 6
    assert all(row["agreement"] for row in rows)
    by_instance = {(row["n"], row["m"]): row for row in rows}
    assert by_instance[(6, 4)]["exact"] == 8
    assert by_instance[(5, 5)]["exact"] == 8


def test_audit_passes_on_closed_form_instance(tmp_path, capsys):
    rc = main(["audit", "--n", "8", "--m", "4", "--cache-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "audit passed" in out
    assert "chain:plain<=total" in out
    assert "chain:total<=paired" in out


def test_audit_passes_off_formula_instance(tmp_path, capsys):
    rc = main(["audit", "--n", "5", "--m", "5", "--cache-dir", str(tmp_path)])
    assert rc == 0
    assert "audit passed" in capsys.readouterr().out


def test_audit_flags_poisoned_cache(tmp_path, capsys):
    ResultCache(tmp_path).put(8, 4, TOTAL, "auto", 9, "0" * 64)
    rc = main(["audit", "--n", "8", "--m", "4", "--cache-dir", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "cache holds 9" in out
    assert "audit FAILED" in out


# total cells where the sandwich now answers before the DP, same values
SANDWICH_FIRST = {(3, 7), (4, 8), (5, 7), (7, 3), (7, 5), (8, 4), (10, 3), (11, 3), (12, 4)}


@pytest.fixture(scope="module")
def table_cells():
    """(exact, method, witnesses built) of each cell of `table --n 3..12
    --m 3..8` for every kind, each cell run on its own."""
    modules = [importlib.import_module(f"torusdom.{name}") for name in ("solve", "cli")]
    real = modules[0].best_upper_witness
    builds = []

    def counting(*args):
        builds.append(args)
        return real(*args)

    cells = {}
    with pytest.MonkeyPatch.context() as patch:
        for module in modules:
            patch.setattr(module, "best_upper_witness", counting)
        for kind in ("plain", "total", "paired"):
            for n in range(3, 13):
                for m in range(3, 9):
                    builds.clear()
                    argv = ["--n", str(n), "--m", str(m), "--kind", kind, "--format", "json"]
                    with contextlib.redirect_stdout(io.StringIO()) as out:
                        assert main(["table", *argv]) == 0
                    (row,) = json.loads(out.getvalue())
                    cells[(n, m, kind)] = (row["exact"], row["method"], len(builds))
    return cells


def test_table_cells_match_recorded(table_cells):
    # [n, m, kind, exact, method] of all 180 cells, recorded when cli.py still
    # ordered the engines itself
    path = Path(__file__).parent / "data" / "table_cells.json"
    recorded = json.loads(path.read_text())
    assert len(recorded) == len(table_cells) == 180
    for n, m, kind, exact, method in recorded:
        if kind == "total" and (n, m) in SANDWICH_FIRST:
            assert method == "profile-dp"
            method = "sandwich"
        assert table_cells[(n, m, kind)][:2] == (exact, method), (n, m, kind)


def test_table_builds_each_witness_at_most_once(table_cells):
    for (n, m, kind), (_, _, built) in table_cells.items():
        assert built <= 1, (n, m, kind)
        if kind == "plain" and min(n, m) > 5:
            assert built == 0, (n, m)


def test_audit_solves_each_kind_once_and_caches_that_result(monkeypatch, tmp_path, capsys):
    module = importlib.import_module("torusdom.solve")
    real = module._row_sweep
    real_build = module.best_upper_witness
    swept = []
    built = []

    def counting(n, m, kind, *rest):
        swept.append(kind)
        return real(n, m, kind, *rest)

    def counting_build(n, m, kind):
        built.append(kind)
        return real_build(n, m, kind)

    monkeypatch.setattr(module, "_row_sweep", counting)
    for name in ("torusdom.solve", "torusdom.cli"):
        monkeypatch.setattr(importlib.import_module(name), "best_upper_witness", counting_build)
    assert main(["audit", "--n", "9", "--m", "5", "--cache-dir", str(tmp_path)]) == 0
    assert "audit passed" in capsys.readouterr().out
    # 45 vertices is beyond the pair search's limit, and no witness meets the bound
    assert swept == [PLAIN, TOTAL]
    # audit builds each catalog witness once, and plain borrows the total one
    assert built == [TOTAL, PAIRED]
    cache = ResultCache(tmp_path)
    for kind in (PLAIN, TOTAL):
        res = solve(9, 5, kind, "auto")
        cert = Certificate.from_vertex_set(res.certificate, kind, f"solver:{res.method.value}")
        assert cache.get(9, 5, kind, "auto") == (res.value, cert.digest())
    assert cache.get(9, 5, PAIRED, "auto") is None


def test_audit_names_the_limit_behind_each_skip(tmp_path, capsys):
    assert main(["audit", "--n", "8", "--m", "6", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "  ok   solve:plain: skipped (DP width limit is 5, got 6)" in out
    assert "  ok   solve:total: skipped (DP width limit is 5, got 6)" in out
    assert "  ok   solve:paired: skipped (pair-search limit is 36 vertices, got 48)" in out
    assert "audit passed" in out
