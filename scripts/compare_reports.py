"""Compare two campaign reports of the same configuration, trial by trial.

    python3 scripts/compare_reports.py PARENT CHANGE

PARENT and CHANGE are JSONL reports written by ``thetacb`` (``--out``).
Trials are matched by their coordinates (identity, m, n, trial).  The
script prints whether both reports hold the same coordinates, how many
matched records have identical parameters and the coordinates of those
that differ, the verdict changes split by direction, each with its
coordinates and both residuals, the non-finite residual count of each
side, and per identity
the largest residual move with the trial where it happened.  A move is
read only between records at identical parameters: elsewhere the two
residuals come from different points.  Each listing stops after
``MAX_LISTED`` trials and says how many it left out.

Exit status: 0 when the trial coordinates match, 1 when they differ, 2
on a usage error.  A reader that closes the pipe early (``| head``) ends
the output quietly, with the same status.
"""

from __future__ import annotations

import json
import math
import os
import sys

#: How many trials each listing (differing parameters, each direction of
#: verdict change) names by coordinate.
MAX_LISTED = 20


def load_trials(path: str) -> dict:
    """The trial records of a report keyed by (identity, m, n, trial)."""
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return {(rec["identity"], rec["m"], rec["n"], rec["trial"]): rec
            for rec in records if rec.get("type") == "trial"}


def _listing(entries: list[str]) -> list[str]:
    """The first ``MAX_LISTED`` entries as indented lines, then how many
    were left out."""
    lines = [f"  {entry}" for entry in entries[:MAX_LISTED]]
    if len(entries) > MAX_LISTED:
        lines.append(f"  ... and {len(entries) - MAX_LISTED} more")
    return lines


def _where(key) -> str:
    identity, m, n, trial = key
    return f"{identity} ({m}, {n}) trial {trial}"


def compare(parent: dict, change: dict) -> tuple[list[str], bool]:
    """Report lines for two loaded reports, and whether their trial
    coordinates match."""
    same_coords = parent.keys() == change.keys()
    common = sorted(parent.keys() & change.keys())
    lines = [f"trials: parent {len(parent)}, change {len(change)}, "
             f"coordinates {'identical' if same_coords else 'DIFFER'}"]
    if not same_coords:
        lines.append(f"  only in parent: {len(parent.keys() - change.keys())}, "
                     f"only in change: {len(change.keys() - parent.keys())}")

    moved = [key for key in common if parent[key]["params"] != change[key]["params"]]
    lines.append(f"identical parameters: {len(common) - len(moved)}/{len(common)}")
    lines.extend(_listing([f"parameters differ: {_where(key)}" for key in moved]))

    flips: dict[tuple, list] = {("pass", "fail"): [], ("fail", "pass"): []}
    for key in common:
        move = (parent[key]["verdict"], change[key]["verdict"])
        if move in flips:
            flips[move].append(key)
    lines.append(f"verdict changes: pass -> fail {len(flips['pass', 'fail'])}, "
                 f"fail -> pass {len(flips['fail', 'pass'])}")
    for (before, after), keys in flips.items():
        lines.extend(_listing([
            f"{before} -> {after}: {_where(key)}: "
            f"{parent[key]['residual']:.3g} -> {change[key]['residual']:.3g}"
            for key in keys]))

    def nonfinite(trials):
        return sum(not math.isfinite(rec["residual"]) for rec in trials.values())

    lines.append(f"non-finite residuals: parent {nonfinite(parent)}, change {nonfinite(change)}")

    largest: dict[str, tuple] = {}
    for key in common:
        if parent[key]["params"] != change[key]["params"]:
            continue  # two different points: no move to read
        before, after = parent[key]["residual"], change[key]["residual"]
        if not (math.isfinite(before) and math.isfinite(after)):
            continue
        move = abs(after - before)
        best = largest.get(key[0])
        if best is None or move > best[0]:
            largest[key[0]] = (move, key, before, after)
    lines.append("largest residual move per identity:")
    for identity in sorted(largest):
        move, key, before, after = largest[identity]
        if move == 0:
            lines.append(f"  {identity}: unchanged")
            continue
        lines.append(f"  {_where(key)}: {before:.3g} -> {after:.3g} (move {move:.3g})")
    return lines, same_coords


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_reports.py PARENT CHANGE", file=sys.stderr)
        return 2
    lines, same_coords = compare(load_trials(args[0]), load_trials(args[1]))
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if same_coords else 1


if __name__ == "__main__":
    raise SystemExit(main())
