"""Run one torusdom command in this fresh process and report on it.

usage: python3 bench/child.py RESULT_JSON TRACE -- CLI_ARGS...

The package is imported first, so the monotonic time at which it is
ready, compared with the parent's time at spawn, is the set-up cost:
interpreter start plus ``import torusdom.cli``.  The command itself runs
through ``cli.main``, timed alone.  With TRACE 0 a timer interrupts it
every ``SAMPLE_EVERY_S`` to time one round of the reference loop, which
shows the machine's speed while the command runs; the rounds' time is
left out of the command's.  With TRACE 1 the spans of every package
boundary call are kept in memory and written with the result, and no
rounds are timed, so that no span holds one.
"""

import sys
import time

import torusdom.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import reference  # noqa: E402

SAMPLE_EVERY_S = 0.25


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:]
    tracer = None
    make_torus = torusdom.cli.make_torus
    rounds: list[float] = []
    sampled_s = 0.0

    def sample(signum, frame) -> None:
        nonlocal sampled_s
        began = time.perf_counter()
        rounds.append(reference.round_s(1))
        sampled_s += time.perf_counter() - began

    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    rc = torusdom.cli.main(argv)
    signal.setitimer(signal.ITIMER_REAL, 0)
    main_s = time.perf_counter() - start - sampled_s
    sys.stdout.flush()
    report = {
        "ready": READY,
        "main_s": main_s,
        "rounds": rounds,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["make_torus_misses"] = make_torus.cache_info().misses
    with open(result_path, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
