"""Show which trials of a campaign set its tail trial time.

    python3 scripts/tail_trials.py [--runs K] [--top N] [thetacb flags]

The thetacb flags (``--config``, ``--identities``, ``--m-max``, ...) give
the campaign.  It runs K times (default 3), each in a fresh interpreter
that imports the package from the checkout's ``src/``, and every
``cli._run_trial`` call is timed; each trial's time is then its median
across the runs.  The script prints the tail percentile
p = floor(1000 (1 - 10/trials)) / 10, the highest one with at least ten
trials beyond it, and the trial time at p (linear interpolation between
closest ranks); then the N slowest trials (default 10), one line each:
identity, m, n, trial and median time in ms; then, per identity, how many
trials lie at or above the time at p.  The times are the wall times of
the host, not scaled by its speed: compare them only within one
invocation.  A reader that closes the pipe early (``| head``) ends the
output quietly.

Exit status: 0 on success, 2 on a usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The interpreter code of one run: this script's ``timed_run`` on the
#: thetacb flags that follow it.
_CHILD = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
          "import tail_trials; tail_trials.timed_run()")


def timed_run() -> None:
    """One campaign of the thetacb flags in ``sys.argv[1:]``, its report
    discarded: prints one JSON line, the list of [identity, m, n, trial,
    seconds] of every trial in campaign order, or exits with thetacb's
    status and message when the campaign did not run."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from thetacb import cli

    times = []
    run_trial = cli._run_trial
    clock = time.perf_counter

    def timed_trial(config, name, runner, cell):
        t0 = clock()
        try:
            return run_trial(config, name, runner, cell)
        finally:
            times.append([name, cell.m, cell.n, cell.trial, clock() - t0])

    cli._run_trial = timed_trial
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(sys.argv[1:])
    if status == 2:
        raise SystemExit(2)
    print(json.dumps(times))


def tail_percentile(trials: int) -> float:
    """Highest percentile, to 0.1, with at least ten trials beyond it."""
    return math.floor(1000.0 * (1.0 - 10.0 / trials)) / 10.0


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def report(runs: list[list], top: int) -> list[str]:
    """The lines printed for the timed ``runs``, each a list of [identity,
    m, n, trial, seconds] in one campaign order."""
    keys = [tuple(row[:4]) for row in runs[0]]
    if any([tuple(row[:4]) for row in run] != keys for run in runs):
        raise RuntimeError("the runs timed different trials")
    ms = [1e3 * statistics.median(times) for times in zip(*([row[4] for row in run]
                                                           for run in runs))]
    pct = tail_percentile(len(keys))
    at_p = percentile(ms, pct)
    slowest = sorted(range(len(keys)), key=ms.__getitem__, reverse=True)[:top]
    tail = Counter(key[0] for key, t in zip(keys, ms) if t >= at_p)
    return [f"{len(keys)} trials, {len(runs)} runs: tail p{pct} = {at_p:.4f} ms",
            f"slowest {len(slowest)} (identity m n trial ms):",
            *(f"  {' '.join(map(str, keys[k]))} {ms[k]:.4f}" for k in slowest),
            f"at or above p{pct} (identity trials):",
            *(f"  {name} {count}" for name, count in sorted(tail.items()))]


def main(argv: list[str] | None = None) -> int:
    # no abbreviations: a thetacb flag such as --to(l) is not --top
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--runs", type=int, default=3,
                        help="campaign runs, each in a fresh interpreter (default 3)")
    parser.add_argument("--top", type=int, default=10,
                        help="slowest trials to print (default 10)")
    args, flags = parser.parse_known_args(argv)
    if args.runs < 1 or args.top < 0:
        print("configuration error: --runs must be >= 1 and --top >= 0", file=sys.stderr)
        return 2
    runs = []
    for _ in range(args.runs):
        done = subprocess.run([sys.executable, "-c", _CHILD, *flags],
                              capture_output=True, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return 2
        runs.append(json.loads(done.stdout))
    try:
        print("\n".join(report(runs, args.top)), flush=True)
    except BrokenPipeError:
        # the reader is gone (``| head``); point stdout at devnull so that
        # the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
