"""Shows that each output check rejects a corrupted copy of a real output.

    python3 perfbench/selftest.py

Runs small real configurations through uavcov (a flare run, a static run,
the matching run_simulation and a few block-search links), confirms that
every check passes on the untouched outputs, then corrupts one value in a
copy and confirms that the intended check raises. Exits 1 if a check passes
a corrupted copy or rejects a clean one.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from worker import dir_digest  # noqa: E402
from uavcov import experiment  # noqa: E402
from uavcov.config import build_config  # noqa: E402

SMALL = {"n_ues": 10, "frames": 3, "episodes": 6, "steps_per_episode": 20, "batch_size": 8,
         "buffer_capacity": 200, "warmup_transitions": 16, "update_interval": 4,
         "dqn_update_interval": 2, "hidden": (8, 8), "r_th": 2e6}
SEED = 4


def edit_csv(path: str, edit):
    """Apply edit(rows) to the data rows of a CSV file, header kept."""
    header, rows = checks.read_table(path)
    edit(header, rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(r) for r in [header] + rows) + "\n")


def edit_summary(run_dir: str, edit):
    path = os.path.join(run_dir, "summary.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def cell(header, rows, frame, ue, column, value):
    for r in rows:
        if int(r[0]) == frame and int(r[1]) == ue:
            r[header.index(column)] = value
            return
    raise LookupError((frame, ue, column))


def move_ue(header, rows, frame, ue, gx, gy, cell_m=300.0):
    cell(header, rows, frame, ue, "grid_x", str(gx))
    cell(header, rows, frame, ue, "grid_y", str(gy))
    cell(header, rows, frame, ue, "x_m", str(float(gx * cell_m)))
    cell(header, rows, frame, ue, "y_m", str(float(gy * cell_m)))


def grid_of(header, rows, frame, ue):
    for r in rows:
        if int(r[0]) == frame and int(r[1]) == ue:
            return int(r[header.index("grid_x")]), int(r[header.index("grid_y")])
    raise LookupError((frame, ue))


def all_frame_rows(header, rows, frame, column, fn):
    for r in rows:
        if int(r[0]) == frame:
            r[header.index(column)] = fn(r[header.index(column)])


def static_row_below_size(run_dir, cfg):
    """(frame, uav) of a static metrics row whose served_count can grow by one."""
    positions = checks.check_mobility(os.path.join(run_dir, "trajectories.csv"), cfg)
    plans = checks.check_clustering(os.path.join(run_dir, "clusters.csv"), positions, cfg)
    for r in checks.read_metrics(os.path.join(run_dir, "metrics.csv")):
        plan = plans[int(r[0])]
        if int(r[4]) < plan.size(plan.uav_of_cluster.index(int(r[3]))):
            return int(r[0]), int(r[3])
    raise LookupError("every UAV serves its whole cluster")


def main() -> int:
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=results)
    try:
        return run(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(work: str) -> int:
    cfg = build_config(dict(SMALL, seeds=[SEED]))
    sim = os.path.join(work, "simulate")
    experiment.run_simulation(cfg, SEED, sim)
    real = {}
    for method in ("flare", "static"):
        real[method] = os.path.join(work, method)
        experiment.run_single(cfg, method, SEED, real[method], quiet=True)
    env_cfg, consts, schedule = workloads.block_inputs()
    links = {seed: [{"oracle": o.oracle_blocks, "frozen": o.frozen_blocks,
                     "search_steps": o.search_steps}
                    for o in experiment.block_search_benchmark(4, env_cfg, consts, schedule, seed)]
             for seed in (3030, 3031)}

    def check_dir(method, run_dir):
        checks.check_run_dir(run_dir, cfg, SEED, method, None if method == "simulate" else sim)

    def check_links(data):
        checks.check_block_search(data, env_cfg, consts, schedule, workloads.BLOCK_SERVED_FLOOR)

    # every check passes the untouched outputs
    check_dir("simulate", sim)
    for method, run_dir in real.items():
        check_dir(method, run_dir)
    check_links(links)

    traj, clus, metr = "trajectories.csv", "clusters.csv", "metrics.csv"
    last = cfg.frames - 1

    def jump(h, r):
        gx, gy = grid_of(h, r, last - 1, 0)
        move_ue(h, r, last, 0, gx + 2 if gx + 2 < cfg.grid_width else gx - 2, gy)

    def collide(h, r):
        move_ue(h, r, last, 1, *grid_of(h, r, last, 0))

    def out_of_bounds(h, r):
        gx, gy = grid_of(h, r, 0, 0)
        move_ue(h, r, 0, 0, cfg.grid_width, gy)

    def swap_format(h, r):
        # same value, other spelling: the mobility rules hold, the bytes differ
        r[0][h.index("x_m")] = repr(float(r[0][h.index("x_m")])) + "0"

    dir_cases = [
        ("move of two cells", "flare", traj, jump, "jumps"),
        ("UE outside the grid", "flare", traj, out_of_bounds, "outside the grid"),
        ("two UEs in one cell", "static", traj, collide, "two UEs in one cell"),
        ("x_m off the grid", "simulate", traj,
         lambda h, r: cell(h, r, 0, 0, "x_m", str(float(r[0][4]) + 1.0)), "is not grid"),
        ("centroid moved", "static", clus,
         lambda h, r: all_frame_rows(h, r, 0, "centroid_x", lambda v: str(float(v) + 1.0)),
         "member mean"),
        ("k_star off by one", "flare", clus,
         lambda h, r: all_frame_rows(h, r, 1, "k_star", lambda v: str(int(v) + 1)), "labels"),
        ("silhouette nudged", "simulate", clus,
         lambda h, r: all_frame_rows(h, r, 0, "mean_silhouette", lambda v: str(float(v) + 1e-6)),
         "brute force"),
        ("power over p_max", "flare", metr,
         lambda h, r: r[3].__setitem__(h.index("sum_power_w"), "1.001"), "p_max"),
        ("blocks over the limit", "static", metr,
         lambda h, r: r[0].__setitem__(h.index("sum_blocks"), "201"), "blocks"),
        ("served beyond the cluster", "flare", metr,
         lambda h, r: r[2].__setitem__(h.index("served_count"), str(cfg.env.n_ues + 1)), "serves"),
        ("world differs from run_simulation", "flare", traj, swap_format,
         "differs from run_simulation"),
    ]
    summary_cases = [
        ("audit counter set", "static", lambda d: d["audit"].__setitem__("C4", 1), "audit"),
        ("served_total moved", "flare",
         lambda d: d["frames"][1].__setitem__("served_total", d["frames"][1]["served_total"] + 0.2),
         "from metrics.csv"),
    ]
    failures = []

    def expect_reject(name, fn, needle):
        try:
            fn()
        except checks.CheckError as exc:
            if needle in str(exc):
                print(f"rejected  {name}: {exc}")
                return
            failures.append(f"{name}: rejected for another reason: {exc}")
            return
        failures.append(f"{name}: corrupted copy passed")

    def corrupted(method):
        src = sim if method == "simulate" else real[method]
        dst = os.path.join(work, "corrupt")
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)
        return dst

    for name, method, fname, edit, needle in dir_cases:
        dst = corrupted(method)
        edit_csv(os.path.join(dst, fname), edit)
        expect_reject(name, lambda: check_dir(method, dst), needle)
    for name, method, edit, needle in summary_cases:
        dst = corrupted(method)
        edit_summary(dst, edit)
        expect_reject(name, lambda: check_dir(method, dst), needle)

    # static served count raised in both summary.json and metrics.csv, so that
    # only the recomputed link budget can tell
    dst = corrupted("static")
    frame, uav = static_row_below_size(dst, cfg)
    edit_csv(os.path.join(dst, metr), lambda h, r: [
        x.__setitem__(4, str(int(x[4]) + 1)) for x in r if int(x[0]) == frame and int(x[3]) == uav])
    edit_summary(dst, lambda d: d["frames"][frame].__setitem__(
        "served_total", d["frames"][frame]["served_total"] + 1))
    expect_reject("static served count raised", lambda: check_dir("static", dst),
                  "recomputed link budget")

    # a round (say a traced one) whose directory differs from the first round's
    dst = corrupted("flare")
    edit_csv(os.path.join(dst, metr), lambda h, r: all_frame_rows(
        h, r, last, "reward", lambda v: str(int(v) + 1)))
    problems = bench.repeatability_problems([
        {"dir_sha256": dir_digest(real["flare"])[0], "outcome_sha256": "same"},
        {"dir_sha256": dir_digest(dst)[0], "outcome_sha256": "same"}])
    if problems:
        print(f"rejected  round that wrote other bytes: {problems[0]}")
    else:
        failures.append("round that wrote other bytes: corrupted copy passed")

    def links_with(edit):
        data = copy.deepcopy(links)
        edit(data)
        return data

    first = links[3030][0]
    link_cases = [
        ("link frozen above its minimum",
         lambda d: d[3030][0].__setitem__("frozen", first["oracle"] + 1), "minimum is"),
        ("oracle count changed",
         lambda d: d[3030][0].__setitem__("oracle", first["oracle"] - 1), "oracle"),
        ("search does not shorten",
         lambda d: [lk.__setitem__("search_steps", [50.0] * schedule.episodes)
                    for v in d.values() for lk in v], "half of first-tenth"),
        ("served links below the floor",
         lambda d: [lk.__setitem__("frozen", None) for lk in d[3031]], "floor"),
    ]
    for name, edit, needle in link_cases:
        data = links_with(edit)
        expect_reject(name, lambda: check_links(data), needle)

    for f in failures:
        print(f"NOT REJECTED  {f}")
    cases = len(dir_cases) + len(summary_cases) + 2 + len(link_cases)
    print(f"{cases - len(failures)} corruptions rejected, {len(failures)} missed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
