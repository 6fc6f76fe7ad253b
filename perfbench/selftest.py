"""Self-test of the campaign benchmark harness on tiny configs.

Usage: python3 perfbench/selftest.py

Checks, each printed as one line and all together as the last line (JSON):

- every workload's ``expected_trials`` equals the count implied by its
  config and the registry caps of ``thetacb.cli.REGISTRY``;
- spec.json names a "should move" entry for every per-layer metric of
  BENCHMARK.json, and both files list the same workloads;
- on two tiny configs (double precision and 40 digits) the traced call
  count of every traced function equals cProfile's ``ncalls`` for it, and
  traced, profiled and plain runs write byte-identical reports;
- failure accounting counts a NaN residual that the summary hides, and the
  percentile helpers give known values.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import fnmatch
import json
import sys
import tempfile
from pathlib import Path

import run
from spans import TRACED

TINY = {
    "double": {"identities": ["elliptic_cb", "lattice_master_equality", "lattice_sum_to_one",
                              "b_system", "frenkel_turaev", "binomial_elliptic_ab",
                              "homogeneous_q_commuting", "convolution", "bezout_qcb",
                              "h_complement"],
               "m_max": 2, "n_max": 2, "trials": 1, "precision": 0, "p_max": 0.5},
    "mp40": {"identities": ["elliptic_cb", "lattice_master_equality"],
             "m_max": 1, "n_max": 1, "trials": 1, "precision": 40, "p_max": 0.5},
}
TINY_SEED = 5


def implied_trials(config: dict) -> int:
    sys.path.insert(0, str(run.SRC))
    from thetacb import cli

    names = config["identities"] or sorted(cli.REGISTRY)
    count = 0
    for name in names:
        cap = cli.REGISTRY[name][1]
        cells = sum(1 for m in range(config["m_max"] + 1) for n in range(config["n_max"] + 1)
                    if cap is None or m + n <= cap)
        count += cells * config["trials"]
    return count


def check_spec() -> list[tuple[str, bool, str]]:
    bench = run._load_json(run.ROOT / "BENCHMARK.json")
    spec = run._load_json(run.HERE / "spec.json")
    out = []
    for name, workload in spec["workloads"].items():
        implied = implied_trials(workload["config"])
        out.append((f"expected_trials {name}", implied == workload["expected_trials"],
                    f"implied {implied}, spec {workload['expected_trials']}"))
    same = [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    out.append(("workload lists agree", same, ""))
    patterns = [p for row in spec["per_layer"] for p in row["metrics"]]
    missing = [m["name"] for m in bench["per_layer"]
               if not any(fnmatch.fnmatchcase(m["name"], p) for p in patterns)]
    out.append(("every per-layer metric has an expectation", not missing, ", ".join(missing)))
    return out


def check_tiny(label: str, config: dict, probe: str) -> list[tuple[str, bool, str]]:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as tmp:
        results = {}
        for mode in ("campaign", "trace", "profile"):
            out = Path(tmp) / f"{mode}.jsonl"
            rep = run.spawn(mode, run.campaign_argv(config, TINY_SEED, out), probe)
            if "error" not in rep:
                rep["report"] = run.read_report(out)
            results[mode] = rep
    errors = [f"{mode}: {rep['error']}" for mode, rep in results.items() if "error" in rep]
    if errors:
        return [(f"{label}: workers ran", False, "; ".join(errors))]
    expected = implied_trials(config)
    problems = run.gate(list(results.values()), expected)
    out = [(f"{label}: gate on campaign, trace and profile runs", not problems,
            "; ".join(problems) or f"{expected} trials, one report digest")]

    spans = results["trace"]["trace"]["spans"]
    ncalls = results["profile"]["ncalls"]
    mismatched = []
    compared = 0
    for span_name, module, attr in TRACED:
        suffix = module.replace(".", "/") + ".py"
        profiled = sum(n for filename, func, n in ncalls
                       if func == attr and filename.replace("\\", "/").endswith(suffix))
        traced = sum(row[2] for row in spans
                     if row[0] == span_name or row[0].startswith(span_name + "."))
        compared += 1
        if profiled != traced:
            mismatched.append(f"{span_name} traced {traced} cProfile {profiled}")
    theta = sum(row[2] for row in spans if row[0].startswith("special.theta."))
    out.append((f"{label}: traced call counts equal cProfile ncalls", not mismatched,
                "; ".join(mismatched) or f"{compared} functions, special.theta {theta} calls"))
    return out


def check_accounting() -> list[tuple[str, bool, str]]:
    trial = {"type": "trial", "identity": "x", "m": 0, "n": 0, "tolerance": 1e-8}
    lines = [{**trial, "residual": 1e-12, "verdict": "pass"},
             {**trial, "residual": float("nan"), "verdict": "fail"},
             {**trial, "residual": 1e-3, "verdict": "fail"},
             {"type": "summary", "identities": {"x": {"trials": 3, "failures": 2,
                                                      "max_residual": 1e-3}}}]
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as tmp:
        path = Path(tmp) / "report.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        report = run.read_report(path)
    counts = (report["trials"], report["failed"], report["nonfinite"])
    pct = (run.percentile([1.0, 2.0, 3.0, 4.0], 50), run.tail_percentile(1392),
           run.tail_percentile(1152), run.tail_percentile(64))
    return [("NaN residual counted from records", counts == (3, 2, 1), f"{counts}"),
            ("percentile helpers", pct == (2.5, 99.2, 99.1, 84.3), f"{pct}")]


def main() -> int:
    checks = check_spec() + check_accounting()
    for label, config in TINY.items():
        checks += check_tiny(label, config, "mp" if config["precision"] else "double")
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    passed = all(ok for _, ok, _ in checks)
    print(json.dumps({"passed": passed,
                      "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]}))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
