"""One campaign repetition in a fresh interpreter.

Usage: python3 perfbench/worker.py '<job json>'

The job gives ``mode`` ("setup", "campaign", "trace" or "profile") and
``argv``, the
flags a CLI user would pass to ``thetacb``.  The worker imports
``thetacb.cli``, runs ``cli.main(argv)`` exactly as the console script
does, and prints one JSON line: the monotonic time at which the first trial
started, the time at which ``main`` returned (the report is written by
then), the wall time of every trial, the probe times taken between
trials, the process's peak resident memory
and, in trace mode, the aggregated spans.  ``setup`` mode stops as soon as
the first trial starts and then times ten probes; ``profile`` mode runs the campaign under cProfile
and adds its call counts, against which the self-test checks the spans.

Monotonic clock readings are comparable across processes on one host, so
the parent subtracts its own pre-spawn reading to get set-up time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import hostspeed

SETUP_PROBES = 10


class _FirstTrialReached(Exception):
    """Raised in setup mode to stop the campaign at its first trial."""


def main() -> None:
    job = json.loads(sys.argv[1])
    mode = job["mode"]

    from thetacb import cli

    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    first: list[float] = []
    durations: list[float] = []
    probes: list[float] = []
    last_probe = [-hostspeed.PROBE_INTERVAL_S]
    run_trial = cli._run_trial
    clock = time.perf_counter

    def timed_trial(*args, **kwargs):
        if not first:
            first.append(time.monotonic())
            if mode == "setup":
                raise _FirstTrialReached
        if clock() - last_probe[0] >= hostspeed.PROBE_INTERVAL_S:
            probes.append(hostspeed.probe(job["probe"]))
            last_probe[0] = clock()
        t0 = clock()
        try:
            return run_trial(*args, **kwargs)
        finally:
            durations.append(clock() - t0)

    cli._run_trial = timed_trial

    profiler = None
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    exit_code = error = None
    try:
        if profiler is not None:
            exit_code = profiler.runcall(cli.main, job["argv"])
        else:
            exit_code = cli.main(job["argv"])
    except _FirstTrialReached:
        probes.extend(hostspeed.probe(job["probe"]) for _ in range(SETUP_PROBES))
    except Exception as exc:  # an escaped exception fails the whole run
        error = f"{type(exc).__name__}: {exc}"
    t_end = time.monotonic()

    import mpmath
    import numpy

    result = {
        "exit_code": exit_code,
        "t_first": first[0] if first else None,
        "t_end": t_end,
        "durations": durations,
        "probes": probes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "thetacb_file": cli.__file__,
        "environment": {
            "python": sys.version.split()[0],
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if error is not None:
        result["error"] = error
    if tracer is not None:
        result["trace"] = tracer.dump()
    if profiler is not None:
        import pstats

        result["ncalls"] = [[filename, func, stat[1]] for (filename, _line, func), stat
                            in pstats.Stats(profiler).stats.items()]
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
