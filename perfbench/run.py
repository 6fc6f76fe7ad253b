"""Campaign benchmark for thetacb.

Usage:
    python3 perfbench/run.py --workload campaign_deep --seed 2 --seconds 20 --trace 0

Runs one workload of ``perfbench/spec.json`` through the public CLI entry
point ``thetacb.cli.main``, as a CLI user does, in a fresh interpreter per
repetition (process-global caches such as ``lattice._h_value`` never carry
over from one repetition to the next).  One process runs one trial after
another: a closed loop with a single client and no threads.

``--trace 0`` spawns five set-up-only interpreters, then repeats the
campaign until ``--seconds`` have passed (at least three times) and prints every
end-to-end metric of BENCHMARK.json.  ``--trace 1`` runs the campaign once
untraced and once with spans around each module's public functions, and
prints every per-layer metric; ``cli.trace_overhead_s`` is the difference
of the two campaign times.

Every time is divided by the slowdown of the host while that worker ran,
measured by the fixed probes of hostspeed.py; the unscaled figures are
printed too.

Correctness gate, checked on every run: each report has exactly the
workload's expected trial count, all repetitions of the seed give
byte-identical reports, and failure counts are read from the per-trial
records (the summary's ``max_residual`` drops NaN).  An exception that
escapes the campaign fails every trial of the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0
when the gate passes, 1 when it fails, 2 when the benchmark cannot run
(no program source next to it, or an unknown workload).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 5
MIN_REPETITIONS = 3
#: No repetition is started that could end a run after this many seconds.
RUN_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 160.0


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def campaign_argv(config: dict, seed: int, out: Path) -> list[str]:
    """The thetacb flags a CLI user passes for this workload."""
    argv = ["--m-max", str(config["m_max"]), "--n-max", str(config["n_max"]),
            "--trials", str(config["trials"]), "--seed", str(seed),
            "--precision", str(config["precision"]), "--p-max", str(config["p_max"]),
            "--out", str(out)]
    if config["identities"]:
        argv = ["--identities", ",".join(config["identities"])] + argv
    return argv


def spawn(mode: str, argv: list[str], probe: str) -> dict:
    """Run one worker to completion; the result carries ``t_spawn``, the
    monotonic time just before the interpreter was started, or ``error``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    job = json.dumps({"mode": mode, "argv": argv, "probe": probe})
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), job],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} worker exceeded {WORKER_TIMEOUT_S} s", "t_spawn": t_spawn}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{mode} worker exited {proc.returncode}: {tail[0]}",
                "t_spawn": t_spawn}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["t_spawn"] = t_spawn
    return result


def read_report(path: Path) -> dict:
    """Digest and per-trial failure counts of one written report."""
    data = path.read_bytes()
    lines = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    trials = [rec for rec in lines if rec.get("type") == "trial"]
    summary = [rec for rec in lines if rec.get("type") == "summary"]
    nonfinite = sum(1 for rec in trials if not math.isfinite(rec["residual"]))
    failed = sum(1 for rec in trials
                 if rec["verdict"] != "pass" or not math.isfinite(rec["residual"]))
    summary_trials = sum(s["trials"] for s in summary[0]["identities"].values()) \
        if len(summary) == 1 else None
    return {"sha256": hashlib.sha256(data).hexdigest(), "trials": len(trials),
            "summary_trials": summary_trials, "failed": failed, "nonfinite": nonfinite}


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    data = sorted(values)
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(trials: int) -> float:
    """Highest percentile, to 0.1, with at least ten trials beyond it."""
    return math.floor(1000.0 * (1.0 - 10.0 / trials)) / 10.0


def campaign_seconds(rep: dict) -> float:
    """From the first trial to the written report, less the probe time."""
    return rep["t_end"] - rep["t_first"] - sum(rep["probes"])


def slowdown(rep: dict, probe: str) -> float:
    """How much slower than the reference the host ran this worker."""
    return statistics.mean(rep["probes"]) / hostspeed.REFERENCE_S[probe]


def run_repetitions(config: dict, seed: int, probe: str, workdir: Path,
                    modes: list[str], seconds: float = 0.0) -> list[dict]:
    """Run one campaign per entry of ``modes``, then keep repeating the last
    mode until ``seconds`` have passed; stop at the first failed worker."""
    start = time.monotonic()

    def more() -> bool:
        if len(reps) < len(modes):
            return True
        elapsed = time.monotonic() - start
        return elapsed < seconds and elapsed + campaign_seconds(reps[-1]) <= RUN_LIMIT_S

    reps: list[dict] = []
    while more():
        mode = modes[min(len(reps), len(modes) - 1)]
        out = workdir / f"report-{len(reps)}.jsonl"
        rep = spawn(mode, campaign_argv(config, seed, out), probe)
        if "error" not in rep:
            if rep["exit_code"] in (0, 1) and out.exists():
                try:
                    rep["report"] = read_report(out)
                except (ValueError, KeyError, IndexError) as exc:
                    rep["error"] = f"unreadable report: {type(exc).__name__}: {exc}"
            else:
                rep["error"] = f"thetacb exited {rep['exit_code']} without a report"
        reps.append(rep)
        if "error" in rep:
            break
    return reps


def gate(reps: list[dict], expected: int) -> list[str]:
    """Every reason the run's outputs cannot be trusted; empty when sound."""
    problems = []
    src = str(SRC.resolve())
    for i, rep in enumerate(reps):
        if "error" in rep:
            problems.append(f"repetition {i}: {rep['error']}")
            continue
        if not str(Path(rep["thetacb_file"]).resolve()).startswith(src):
            problems.append(f"repetition {i} imported thetacb from {rep['thetacb_file']}")
        report = rep["report"]
        for key in ("trials", "summary_trials"):
            if report[key] != expected:
                problems.append(f"repetition {i}: {key} {report[key]} != expected {expected}")
        if len(rep["durations"]) != expected:
            problems.append(f"repetition {i}: {len(rep['durations'])} timed trials "
                            f"!= expected {expected}")
    digests = {rep["report"]["sha256"] for rep in reps if "report" in rep}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different reports for one seed")
    return problems


def end_to_end_metrics(setups: list[dict], reps: list[dict], expected: int,
                       tail_pct: float, probe: str | None) -> dict:
    """Every time is first divided by its worker's host slowdown (none when
    ``probe`` is None).  Every repetition runs the same trials in the same
    order, so each trial's time is then its median over the repetitions.
    The campaign time is the sum of those trial times plus the median time
    spent outside trials (records, report writing)."""

    def scale(rep: dict) -> float:
        return 1.0 if probe is None else 1.0 / slowdown(rep, probe)

    per_trial = [statistics.median(ds) for ds in
                 zip(*([d * scale(rep) for d in rep["durations"]] for rep in reps))]
    outside = statistics.median((campaign_seconds(rep) - sum(rep["durations"])) * scale(rep)
                                for rep in reps)
    report = reps[0]["report"]
    setup_samples = [(rep["t_first"] - rep["t_spawn"]) * scale(rep) for rep in setups + reps]
    return {
        "trials_per_s": expected / (sum(per_trial) + outside),
        "trial_p50_ms": 1e3 * statistics.median(per_trial),
        "trial_tail_ms": 1e3 * percentile(per_trial, tail_pct),
        "pass_share": 1.0 - report["failed"] / expected,
        "finite_share": 1.0 - report["nonfinite"] / expected,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(rep["peak_rss_kb"] / 1024.0 for rep in reps),
    }


def layer_metrics(trace: dict, overhead_s: float, names: list[str],
                  host_slowdown: float) -> dict:
    """Per-layer metrics from the aggregated spans of one traced campaign;
    times are divided by the traced worker's ``host_slowdown``."""
    spans = trace["spans"]
    raised = {(name, exc): count for name, exc, count in trace["raised"]}

    def pick(prefix: str, column: int, parent: str | None = None) -> float:
        total = sum(row[column] for row in spans
                    if (row[0] == prefix or row[0].startswith(prefix + "."))
                    and (parent is None or row[1] == parent))
        return total if column == 2 else total / host_slowdown  # column 2 counts calls

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def hit_ratio(key: str) -> float:
        info = trace["caches"].get(key, {"hits": 0, "misses": 0})
        return ratio(info["hits"], info["hits"] + info["misses"])

    def raised_by(prefixes: tuple[str, ...], exc: str) -> int:
        return sum(count for (name, kind), count in raised.items()
                   if name.startswith(prefixes) and kind == exc)

    sample = "sampling.sample_param_point"
    accepted = pick(sample, 2) - raised_by((sample,), "ResamplingExhaustedError")
    special = {
        "special.theta.calls.double": pick("special.theta.double", 2),
        "special.theta.calls.mp": pick("special.theta.mp", 2),
        "special.theta.us_per_call.double":
            1e6 * ratio(pick("special.theta.double", 3), pick("special.theta.double", 2)),
        "special.theta.us_per_call.mp":
            1e6 * ratio(pick("special.theta.mp", 3), pick("special.theta.mp", 2)),
        "weights.degenerate_raises": raised_by(
            ("weights.elliptic_weight", "weights.binomial_weight"), "DegenerateParameterError"),
        "lattice.h_cache.hit_ratio": hit_ratio("lattice.h_cache"),
        "noncomm.reorder_cache.hit_ratio": hit_ratio("noncomm.reorder_cache"),
        "sampling.accept_ratio": ratio(accepted, pick("sampling.check_genericity", 2, sample)),
        "cli.resamples": raised_by(("cli.check.",), "DegenerateParameterError"),
        "cli.to_text.s": pick("cli.to_text", 3),
        "cli.trace_overhead_s": overhead_s,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = pick(name[:-len(".calls")], 2)
        elif name.endswith(".self_s"):
            out[name] = pick(name[:-len(".self_s")], 4)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "thetacb" / "cli.py").is_file():
        print(f"no thetacb source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    bench = _load_json(ROOT / "BENCHMARK.json")
    spec = _load_json(HERE / "spec.json")
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(spec['workloads'])}", file=sys.stderr)
        return 2
    workload = spec["workloads"][args.workload]
    config, expected = workload["config"], workload["expected_trials"]

    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # running worker, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    probe = workload["probe"]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            setups = []
            reps = run_repetitions(config, args.seed, probe, workdir, ["campaign", "trace"])
        else:
            setups = [spawn("setup", campaign_argv(config, args.seed, workdir / "unused"), probe)
                      for _ in range(SETUP_SPAWNS)]
            reps = run_repetitions(config, args.seed, probe, workdir,
                                   ["campaign"] * MIN_REPETITIONS, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = gate(reps, expected)
    problems += [f"set-up spawn: {rep['error']}" for rep in setups if "error" in rep]
    escaped = any("error" in rep for rep in reps + setups)
    correct = not problems
    failed = expected if escaped else reps[0]["report"]["failed"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}")
    env = next((rep["environment"] for rep in reps if "environment" in rep), {})
    print("environment " + json.dumps({**env, "seed": args.seed}, sort_keys=True))
    for problem in problems:
        print(f"GATE FAILED: {problem}")

    if correct:
        print(f"host slowdown ({probe} probe) per repetition: "
              + " ".join(f"{slowdown(rep, probe):.4f}" for rep in reps))
    metrics = {}
    if args.trace:
        specs = bench["per_layer"]
        if correct:
            untraced, traced = (campaign_seconds(rep) / slowdown(rep, probe) for rep in reps)
            metrics = layer_metrics(reps[1]["trace"], traced - untraced,
                                    [m["name"] for m in specs], slowdown(reps[1], probe))
    else:
        specs = bench["end_to_end"]
        tail_pct = tail_percentile(expected)
        if correct:
            metrics = end_to_end_metrics(setups, reps, expected, tail_pct, probe)
            raw = end_to_end_metrics(setups, reps, expected, tail_pct, None)
            print("unscaled " + " ".join(f"{k} {raw[k]:.6g}" for k in
                                         ("trials_per_s", "trial_p50_ms", "trial_tail_ms", "setup_s")))
            print(f"trial_tail_ms is p{tail_pct} of {expected} trial times, each the "
                  f"median of {len(reps)} repetitions")
            report = reps[0]["report"]
            print(f"fail_share {report['failed']}/{expected} = "
                  f"{report['failed'] / expected:.6f} ratio; nonfinite_share "
                  f"{report['nonfinite']}/{expected} = {report['nonfinite'] / expected:.6f} ratio")
    for spec_row in specs:
        if spec_row["name"] in metrics:
            print(f"  {spec_row['name']:<44} {metrics[spec_row['name']]:>16.6f} {spec_row['unit']}")

    units = {row["name"]: row["unit"] for row in specs}
    print(json.dumps({
        "correct": correct,
        "attempted": expected,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
