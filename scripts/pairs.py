"""Run the benchmark on a parent revision and on this checkout in alternating pairs.

    python3 scripts/pairs.py PARENT_REV --workload W --seed N --pairs K [--seconds S]

PARENT_REV (any git revision) is exported with ``git archive`` into a
temporary directory.  Then ``perfbench/run.py --workload W --seed N
--seconds S --trace 0`` runs there and in this checkout, one after the
other, K times, so that both sides of a pair see the same drift of the
host's speed; the parent runs first in odd pairs, the checkout in even
ones.  Each pair prints one line
per end-to-end metric of ``BENCHMARK.json``: parent, change and their
relative difference.  The summary prints per metric the number of pairs
the change won, by the metric's ``better`` direction (a tie wins
nothing), and the medians of both sides, and ends with ``over bound``
when the change's median is worse than the parent's by more than the
metric's ``bound``, the share of the parent's median it may lose.

Exit status: 0 when every run passed its correctness gate, 1 otherwise,
2 on a usage error (no git revision, no benchmark).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of ``perfbench/run.py``'s output in ``checkout``, as a
    dict (``correct``, ``attempted``, ``failed``, ``metrics``); a run that
    printed none reads as a failed gate."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):  # the run printed no result line
        return {"correct": False, "metrics": {}, "error": done.stderr.strip()}


def pair_lines(parent: dict, change: dict, specs: list) -> list[str]:
    """One line per metric of ``specs`` (``BENCHMARK.json``'s ``end_to_end``
    rows) for one pair of result lines."""
    lines = []
    for spec in specs:
        name = spec["name"]
        if name in parent["metrics"] and name in change["metrics"]:
            old, new = parent["metrics"][name]["value"], change["metrics"][name]["value"]
            delta = f"{(new - old) / old:+.2%}" if old else "n/a"
            lines.append(f"  {name:<16} {old:>12.6g} -> {new:<12.6g} {delta} {spec['unit']}")
    return lines


def summary(results: list, specs: list) -> list[str]:
    """Per metric of ``specs``: the pairs of ``results`` (parent, change
    result lines) that the change won, by the metric's ``better``
    direction, and the median of each side over the pairs that report it,
    marked ``over bound`` when the change's median is worse than the
    parent's by more than ``bound`` times the parent's."""
    lines = []
    for spec in specs:
        name = spec["name"]
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in results
                if name in p["metrics"] and name in c["metrics"]]
        if not both:
            continue
        sign = 1 if spec["better"] == "higher" else -1
        won = sum(sign * (new - old) > 0 for old, new in both)
        old_mid = statistics.median(old for old, _ in both)
        new_mid = statistics.median(new for _, new in both)
        over = sign * (old_mid - new_mid) > spec["bound"] * abs(old_mid)
        lines.append(f"{name:<16} won {won} of {len(both)}  median {old_mid:.6g} -> "
                     f"{new_mid:.6g} {spec['unit']}" + ("  over bound" if over else ""))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    except (OSError, KeyError, ValueError) as exc:
        print(f"no benchmark at {ROOT}: {exc}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", args.parent_rev], cwd=ROOT,
                                 capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(errors="replace").strip(), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        results = []
        for index in range(args.pairs):
            order = (parent, ROOT) if index % 2 == 0 else (ROOT, parent)
            runs = {checkout: run_bench(checkout, args.workload, args.seed, args.seconds)
                    for checkout in order}
            pair = runs[parent], runs[ROOT]
            results.append(pair)
            print(f"pair {index + 1}" + "".join(
                f"  {side} gate failed" for side, run in zip(("parent", "change"), pair)
                if not run["correct"]))
            print("\n".join(pair_lines(*pair, specs)), flush=True)
    print(f"{args.workload} seed {args.seed}: {args.parent_rev} -> checkout, "
          f"{args.pairs} alternating pairs")
    print("\n".join(summary(results, specs)))
    return 0 if all(run["correct"] for pair in results for run in pair) else 1


if __name__ == "__main__":
    sys.exit(main())
