"""uavcov benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py                        # every workload, one after another
    python3 perfbench/run.py --workload flare --seed 3 --seconds 20 --trace 0

Each workload runs in a fresh worker process (worker.py), one at a time. This
process records the time just before starting it, so a set-up runs from the
worker's start to its first call into uavcov. setup_s is the median of
SETUP_STARTS such cold set-ups: the workload's worker and set-up-only workers
started just before it, each a fresh process. Once every worker has ended, the
output checks (checks.py) run here on the run directories they kept, outside
every timed interval. The last line of standard output is one JSON object:
correct, attempted, failed and the metrics. With --trace 0 these are the
end-to-end metrics; with --trace 1 the per-layer metrics of traced rounds.

The exit code is 0 when every check passed, 1 when a check failed, and 2
when the benchmark itself could not run (then no result is printed).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("flare", "maddpg_only", "world", "block_search")
SETUP_STARTS = 5
SETUP_TIMEOUT_S = 30.0
sys.path.insert(0, os.path.join(ROOT, "src"))

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "served_users": "users"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(args: list[str], result_path: str, timeout: float, what: str) -> tuple[dict, float]:
    """Run worker.py to its end; returns its JSON record and the time just before it started."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, result_path]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what}: worker ran past {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what}: worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), spawned


def start_worker(workload: str, seed: int, seconds: float, trace: bool):
    out = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    args = [workload, str(seed), str(seconds), "1" if trace else "0", os.path.join(out, "rounds")]
    setups = []
    for i in range(SETUP_STARTS - 1):
        doc, spawned = spawn(["--setup-only", *args], os.path.join(out, f"setup{i}.json"),
                             SETUP_TIMEOUT_S, workload)
        setups.append(doc["setup_end_monotonic"] - spawned)
    # Whole rounds run until the seconds have passed, so the last one may
    # start just before that and take as long again.
    doc, spawned = spawn(args, os.path.join(out, "worker.json"), 2 * seconds + 120, workload)
    setups.append(doc["setup_end_monotonic"] - spawned)
    doc["setup_s"] = statistics.median(setups)
    return doc, os.path.join(out, "rounds", "round0")


def served_users(workload: str, outcomes: dict) -> float:
    """Committed served users per frame over the round, or served links for block_search."""
    if workload == "block_search":
        return float(sum(link["frozen"] is not None
                         for rec in outcomes.values() for link in rec["links"]))
    served = [v for rec in outcomes.values() for v in rec.get("served_by_frame", [])]
    if not served:
        raise BenchError(f"{workload}: no run of the first round completed")
    return math.fsum(served) / len(served)  # exact sum: the same whatever the order of runs


def round_time(rounds: list[dict], key: str) -> float:
    """A round's time as the sum over its operations of each one's median over rounds.

    Taking the median per operation keeps one slow stretch of a shared
    machine from moving the whole round.
    """
    return sum(statistics.median(r[key][op] for r in rounds) for op in rounds[0][key])


def repeatability_problems(rounds: list[dict]) -> list[str]:
    """Every round, traced or not, must write the same bytes and return the same outcomes."""
    return [f"rounds differ in {key}: outputs are not repeatable, or tracing perturbs them"
            for key in ("dir_sha256", "outcome_sha256") if len({r[key] for r in rounds}) != 1]


def check_outputs(workload: str, doc: dict, round_dir: str) -> list[str]:
    """Run the output checks; returns one message per failed check."""
    import checks
    import workloads
    from uavcov import experiment

    rounds = doc["rounds"]
    problems = repeatability_problems(rounds)
    outcomes = rounds[0]["outcomes"]
    by_name = {op.name: op for op in workloads.round_ops(workload, 0)}
    scratch = os.path.join(os.path.dirname(round_dir), "simulate")
    block = {}
    for name, rec in sorted(outcomes.items()):
        op = by_name[name]
        try:
            if op.kind == "block_search":
                block[op.seed] = rec["links"]
                continue
            cfg = workloads.config_for(op)
            if op.kind == "simulate":
                sim_dir = None
            elif workload == "world":
                sim_dir = os.path.join(round_dir, workloads.Op("simulate", op.seed).name)
            else:
                sim_dir = os.path.join(scratch, name)
                experiment.run_simulation(cfg, op.seed, sim_dir)
            checks.check_run_dir(os.path.join(round_dir, name), cfg, op.seed, op.kind, sim_dir)
        except checks.UNREADABLE as exc:
            problems.append(f"{name}: {exc!r}")
    if block:
        env_cfg, consts, schedule = workloads.block_inputs()
        try:
            checks.check_block_search(block, env_cfg, consts, schedule,
                                      workloads.BLOCK_SERVED_FLOOR)
        except checks.UNREADABLE as exc:
            problems.append(f"block search: {exc!r}")
    return problems


def report(workload: str, trace: bool, doc: dict, round_dir: str) -> dict:
    """Checks and metrics of one workload from its worker's record."""
    rounds = doc["rounds"]
    problems = check_outputs(workload, doc, round_dir)
    for p in problems:
        print(f"CHECK FAILED [{workload}] {p}", file=sys.stderr)
    untraced = [r for r in rounds if not r["traced"]]
    if trace:
        import spans

        traced = [r for r in rounds if r["traced"]]
        values = dict(doc["layers"])
        values["experiment.output_bytes"] = traced[0]["output_bytes"]
        values[spans.OVERHEAD_METRIC] = (round_time(traced, "wall_s")
                                         - round_time(untraced, "wall_s"))
        units = spans.metric_units()
    else:
        values = {
            "setup_s": doc["setup_s"],
            "run_s": round_time(untraced, "wall_s"),
            "cpu_s": round_time(untraced, "cpu_s"),
            "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
            "served_users": served_users(workload, rounds[0]["outcomes"]),
        }
        units = END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "rounds": len(rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per workload; whole rounds run until it passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced rounds")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace)
    try:
        # Every worker runs before this process imports numpy for the checks:
        # a worker's peak RSS would otherwise start from this process's.
        records = {w: start_worker(w, args.seed, args.seconds, trace) for w in names}
        reports = {w: report(w, trace, *rec) for w, rec in records.items()}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for w, rep in reports.items():
        print(f"{w}: {rep['rounds']} rounds, attempted {rep['attempted']}, failed {rep['failed']}, "
              f"checks {'passed' if rep['correct'] else 'FAILED'}")
        for name, m in rep["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if len(reports) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{n}": m for w, rep in reports.items() for n, m in rep["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
