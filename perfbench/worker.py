"""Runs one workload in a fresh process and writes its timings as JSON.

Started by run.py, which records the time just before it starts this
process. This process notes the time of its first call into the workload, so
set-up covers interpreter start, importing numpy and uavcov, building the
configs and ordering the round.

    python3 perfbench/worker.py [--setup-only] WORKLOAD SEED SECONDS TRACE OUT_DIR RESULT_JSON

Rounds run until SECONDS have passed, at least one. With --setup-only the
process records the end of its set-up and exits without running a round.
With TRACE 1 untraced and traced rounds alternate; the difference between
the two gives the tracing overhead, and the traced rounds give the per-layer
metrics.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isfile(os.path.join(SRC, "uavcov", "__init__.py")):
    sys.exit(f"no uavcov sources under {SRC}: run from a checkout of the repository")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def dir_digest(path: str) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, and the total size."""
    h = hashlib.sha256()
    size = 0
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for name in sorted(files):
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(full, path).encode() + b"\0" + data)
            size += len(data)
    return h.hexdigest(), size


def outcome_record(op, result) -> dict:
    """What the output checks need from one operation's return value."""
    if op.kind == "simulate":
        return {}
    if op.kind == "block_search":
        return {"links": [{"oracle": o.oracle_blocks, "frozen": o.frozen_blocks,
                           "search_steps": o.search_steps} for o in result]}
    return {"served_by_frame": result.served_by_frame}


def run_round(ops, inputs, round_dir: str) -> dict:
    """One round: each operation timed on its own, then its outputs digested."""
    os.makedirs(round_dir)
    results = {}
    wall, cpu = {}, {}
    failed = 0
    for op in ops:
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            results[op] = workloads.run_op(op, round_dir, inputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += op.attempted
        wall[op.name] = time.perf_counter() - w0
        cpu[op.name] = time.process_time() - c0
    outcomes = {op.name: outcome_record(op, res) for op, res in results.items()}
    digest, size = dir_digest(round_dir)
    h = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
    return {"wall_s": wall, "cpu_s": cpu, "failed": failed,
            "attempted": sum(op.attempted for op in ops),
            "outcomes": outcomes, "dir_sha256": digest, "outcome_sha256": h,
            "output_bytes": size}


def main(argv):
    setup_only = argv[:1] == ["--setup-only"]
    if setup_only:
        argv = argv[1:]
    workload, bench_seed, seconds, trace, out_dir, result_path = argv
    bench_seed, seconds, trace = int(bench_seed), float(seconds), trace == "1"
    ops = workloads.round_ops(workload, bench_seed)
    inputs = workloads.build_inputs(ops)
    recorder = None
    if trace:
        import spans
        recorder = spans.SpanRecorder()

    setup_end = time.monotonic()
    if setup_only:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"setup_end_monotonic": setup_end}, fh)
        return
    rounds = []

    def one_round(traced: bool):
        round_dir = os.path.join(out_dir, f"round{len(rounds)}")
        rec = run_round(ops, inputs, round_dir)
        rec["traced"] = traced
        rounds.append(rec)
        if len(rounds) > 1:  # the first round's directory is kept for the checks
            shutil.rmtree(round_dir)

    # With tracing, untraced and traced rounds alternate, so that both see
    # the same stretches of a shared machine.
    kinds = (False, True) if trace else (False,)
    while True:
        for traced in kinds:
            if traced:
                recorder.install()
            try:
                one_round(traced)
            finally:
                if traced:
                    recorder.uninstall()
        if time.monotonic() - setup_end >= seconds:
            break

    doc = {
        "workload": workload,
        "ops": [op.name for op in ops],
        "setup_end_monotonic": setup_end,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rounds": rounds,
    }
    if recorder is not None:
        traced = sum(1 for r in rounds if r["traced"])
        doc["layers"] = recorder.layer_metrics(traced)
        recorder.save(os.path.join(os.path.dirname(result_path),
                                   f"trace-{workload}-seed{bench_seed}.npz"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
