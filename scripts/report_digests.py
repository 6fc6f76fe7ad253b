"""Print the sha256 of the report of every benchmark workload.

    python3 scripts/report_digests.py [--spec PATH] [--workloads NAMES]

Each workload of the spec file (``perfbench/spec.json`` by default) runs
in this process, as ``thetacb`` would run it with the workload's config,
once at its ``default_seed`` and once at its ``heldout_seed``.  One line
is printed per run: workload, seed and the sha256 of the report text,
the same bytes ``thetacb --out`` writes.  Two checkouts whose lines are
equal wrote byte-identical reports.  ``--workloads`` takes a
comma-separated list of workload names (default: all of the spec).

Exit status: 0 on success, 2 on a usage error (unreadable spec, unknown
workload).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

# run from a checkout: import the package from its src/ directory
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from thetacb import cli  # noqa: E402

#: The spec's config keys that are campaign settings.
_SETTINGS = ("identities", "m_max", "n_max", "trials", "precision", "p_max")


def report_digest(config: dict, seed: int) -> str:
    """The sha256 of the report of the campaign ``config`` (a spec
    workload's ``config``) at ``seed``."""
    settings = {key: config[key] for key in _SETTINGS if key in config}
    settings["identities"] = tuple(settings.get("identities", ()))
    report = cli.run_campaign(cli.CampaignConfig(seed=seed, **settings))
    return hashlib.sha256(report.to_text().encode("utf-8")).hexdigest()


def digests(spec: dict, names):
    """(workload, seed, digest) for each named workload at its default and
    held-out seeds, in that order."""
    for name in names:
        workload = spec["workloads"][name]
        for role in ("default_seed", "heldout_seed"):
            seed = workload[role]
            yield name, seed, report_digest(workload["config"], seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", default=str(ROOT / "perfbench" / "spec.json"),
                        help="workload spec file (default: perfbench/spec.json)")
    parser.add_argument("--workloads", help="comma-separated workload names (default: all)")
    args = parser.parse_args(argv)
    try:
        with open(args.spec, encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    names = cli._split(args.workloads) if args.workloads else tuple(spec["workloads"])
    unknown = [name for name in names if name not in spec["workloads"]]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name, seed, digest in digests(spec, names):
        print(f"{name} seed {seed} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
