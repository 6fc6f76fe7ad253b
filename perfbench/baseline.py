"""Record a baseline of every workload into one JSON file.

Usage: python3 perfbench/baseline.py --label <what was measured> --out <file>

For each workload of spec.json this runs ``perfbench/run.py`` at the
workload's default seed and at its held-out seed, once untraced and once
traced, then runs ``perfbench/selftest.py``, and prints every metric with
its unit as it goes.  The file holds every result
line, the environment each run printed, the machine, and the label (name
the commit measured there, since a checkout need not be a git repository).
Exit status 0 when every run and the self-test passed.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time

from run import HERE, ROOT, _load_json


def _run(argv: list[str]) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bench = _load_json(ROOT / "BENCHMARK.json")
    spec = _load_json(HERE / "spec.json")
    seconds = str(bench["run_seconds"])
    runs = []
    ok = True
    for name, workload in spec["workloads"].items():
        for role in ("default_seed", "heldout_seed"):
            seed = workload[role]
            for trace in ("0", "1"):
                start = time.monotonic()
                code, lines = _run([str(HERE / "run.py"), "--workload", name,
                                    "--seed", str(seed), "--seconds", seconds, "--trace", trace])
                env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                            if line.startswith("environment ")), {})
                result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
                notes = [line for line in lines
                         if line.startswith(("trial_tail_ms is", "fail_share", "GATE"))]
                runs.append({"workload": name, "seed": seed, "seed_role": role,
                             "trace": int(trace), "exit_code": code,
                             "wall_s": round(time.monotonic() - start, 1),
                             "environment": env, "notes": notes, "result": result})
                ok = ok and code == 0
                print("\n".join(lines[:-1]) + f"\nexit {code}\n", flush=True)
    code, lines = _run([str(HERE / "selftest.py")])
    print("\n".join(lines[:-1]), flush=True)
    ok = ok and code == 0
    baseline = {
        "label": args.label,
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "python": platform.python_version()},
        "run_seconds": int(seconds),
        "selftest": json.loads(lines[-1]) if lines else None,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
