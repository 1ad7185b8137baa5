"""Output checks computed apart from the program.

Every check reads what a run wrote (its CSV files, summary.json, or the
outcomes of the block-search benchmark) and recomputes a property of it by a
path of its own: the mobility rules, the clustering, the allocation budgets,
the served totals and, for the static allocation, each frame's served count
from the paper's link budget. From the program it takes only the fading draws
(FadingField.draw), the UAV identities (clustering.match_to_previous) and,
for the byte comparison, run_simulation's own files. A failed check raises
CheckError with the run, frame and value it is about.
"""

import csv
import json
import math
import os

import numpy as np

from uavcov import clustering
from uavcov.channel import FadingField

ABS_TOL_M = 1e-6        # metres, for centroids recomputed from member positions
SILHOUETTE_TOL = 1e-9
SERVED_TOL = 1e-12


class CheckError(Exception):
    pass


# What a check raises on a run directory it cannot read as the program writes it.
UNREADABLE = (CheckError, OSError, ValueError, KeyError, IndexError)


def _require(ok: bool, msg: str):
    if not ok:
        raise CheckError(msg)


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 1, f"{path}: empty file")
    return rows[0], rows[1:]


def _columns(header: list[str], rows: list[list[str]], names: list[str], path: str):
    _require(header == names, f"{path}: header {header} != {names}")
    for r in rows:
        _require(len(r) == len(names), f"{path}: row {r} has {len(r)} fields")
    return rows


# ----- mobility -----

def check_mobility(path: str, cfg) -> list[list[tuple[float, float]]]:
    """Grid moves of at most one cell, in bounds, collision-free, x_m = grid_x * cell.

    Returns the UE positions in metres, frame by frame.
    """
    rows = _columns(*read_table(path), ["frame", "ue_id", "grid_x", "grid_y", "x_m", "y_m"], path)
    n = cfg.env.n_ues
    _require(len(rows) == cfg.frames * n, f"{path}: {len(rows)} rows for {cfg.frames} frames")
    cell = float(cfg.cell_size_m)
    positions = []
    prev = None
    for f in range(cfg.frames):
        grid = []
        xy = []
        for i, r in enumerate(rows[f * n:(f + 1) * n]):
            _require(int(r[0]) == f and int(r[1]) == i, f"{path}: row {r} out of order")
            gx, gy = int(r[2]), int(r[3])
            _require(0 <= gx < cfg.grid_width and 0 <= gy < cfg.grid_height,
                     f"{path}: frame {f} ue {i} at ({gx},{gy}) outside the grid")
            x, y = float(r[4]), float(r[5])
            _require(x == gx * cell and y == gy * cell,
                     f"{path}: frame {f} ue {i} at ({x},{y}) m is not grid ({gx},{gy}) * {cell}")
            grid.append((gx, gy))
            xy.append((x, y))
        _require(len(set(grid)) == n, f"{path}: frame {f} has two UEs in one cell")
        if prev is not None:
            for i, ((ax, ay), (bx, by)) in enumerate(zip(prev, grid)):
                _require(abs(ax - bx) + abs(ay - by) <= 1,
                         f"{path}: ue {i} jumps from ({ax},{ay}) to ({bx},{by}) at frame {f}")
        prev = grid
        positions.append(xy)
    return positions


# ----- clustering -----

def brute_silhouette(points: list[tuple[float, float]], labels: list[int]) -> float:
    """Mean silhouette by direct enumeration of every pairwise distance."""
    n = len(points)
    values = []
    for i in range(n):
        by_label: dict[int, list[float]] = {}
        for j in range(n):
            if j != i:
                by_label.setdefault(labels[j], []).append(math.dist(points[i], points[j]))
        own = by_label.pop(labels[i], [])
        if not own:
            values.append(0.0)
            continue
        a = math.fsum(own) / len(own)
        b = min(math.fsum(d) / len(d) for d in by_label.values())
        values.append(0.0 if max(a, b) == 0.0 else (b - a) / max(a, b))
    return math.fsum(values) / n


class FramePlan:
    """One frame's clustering as clusters.csv states it."""

    def __init__(self, labels, centroids, k_star, silhouette):
        self.labels = labels            # cluster index per UE
        self.centroids = centroids      # cluster index -> (x, y)
        self.k_star = k_star
        self.silhouette = silhouette
        self.uav_of_cluster: list[int] = []

    def size(self, c: int) -> int:
        return self.labels.count(c)


def check_clustering(path: str, positions, cfg) -> list[FramePlan]:
    """Centroids are member means, k* distinct labels in [1, k_max], silhouette by brute force."""
    rows = _columns(*read_table(path), ["frame", "ue_id", "cluster", "centroid_x", "centroid_y",
                                        "k_star", "mean_silhouette"], path)
    n = cfg.env.n_ues
    _require(len(rows) == cfg.frames * n, f"{path}: {len(rows)} rows for {cfg.frames} frames")
    plans = []
    for f in range(cfg.frames):
        part = rows[f * n:(f + 1) * n]
        for i, r in enumerate(part):
            _require(int(r[0]) == f and int(r[1]) == i, f"{path}: row {r} out of order")
        labels = [int(r[2]) for r in part]
        k_star = {int(r[5]) for r in part}
        sil = {float(r[6]) for r in part}
        _require(len(k_star) == 1 and len(sil) == 1, f"{path}: frame {f} k*/silhouette vary by row")
        k_star, sil = k_star.pop(), sil.pop()
        _require(1 <= k_star <= cfg.env.k_max, f"{path}: frame {f} k* = {k_star}")
        _require(set(labels) == set(range(k_star)),
                 f"{path}: frame {f} labels {sorted(set(labels))} for k* = {k_star}")
        centroids = {}
        for c in range(k_star):
            stated = {(float(r[3]), float(r[4])) for r, lab in zip(part, labels) if lab == c}
            _require(len(stated) == 1, f"{path}: frame {f} cluster {c} has several centroids")
            cx, cy = stated.pop()
            members = [positions[f][i] for i in range(n) if labels[i] == c]
            mx = math.fsum(p[0] for p in members) / len(members)
            my = math.fsum(p[1] for p in members) / len(members)
            _require(math.isclose(cx, mx, rel_tol=1e-12, abs_tol=ABS_TOL_M)
                     and math.isclose(cy, my, rel_tol=1e-12, abs_tol=ABS_TOL_M),
                     f"{path}: frame {f} cluster {c} centroid ({cx},{cy}) "
                     f"!= member mean ({mx},{my})")
            centroids[c] = (cx, cy)
        expect = 0.0 if k_star == 1 else brute_silhouette(positions[f], labels)
        _require(abs(sil - expect) <= SILHOUETTE_TOL,
                 f"{path}: frame {f} mean silhouette {sil} != brute force {expect}")
        plans.append(FramePlan(labels, centroids, k_star, sil))
    _assign_uavs(plans, cfg.env.k_max)
    return plans


def _assign_uavs(plans: list[FramePlan], k_max: int):
    """UAV identities frame by frame, from the program's matching rule."""
    prev: dict[int, np.ndarray] = {}
    for p in plans:
        cents = np.array([p.centroids[c] for c in range(p.k_star)], dtype=float)
        plan = clustering.ClusterPlan(k_star=p.k_star, assignment=np.array(p.labels),
                                      centroids=cents, silhouette_mean=p.silhouette,
                                      active_uavs=list(range(p.k_star)))
        plan = clustering.match_to_previous(plan, prev, k_max)
        p.uav_of_cluster = list(plan.active_uavs)
        prev = {plan.active_uavs[c]: cents[c].copy() for c in range(p.k_star)}


# ----- allocation, audit and served totals -----

def read_metrics(path: str) -> list[list[str]]:
    return _columns(*read_table(path), ["frame", "episode", "timestep", "uav_id", "served_count",
                                        "reward", "sum_power_w", "sum_blocks"], path)


def check_allocation(path: str, plans: list[FramePlan], cfg, episodes: int):
    """Power and block budgets per UAV; served counts within the serving cluster."""
    rows = read_metrics(path)
    env = cfg.env
    seen: dict[tuple[int, int], list[int]] = {}
    for r in rows:
        f, e, j = int(r[0]), int(r[1]), int(r[3])
        _require(0 <= f < len(plans), f"{path}: row {r} has frame {f}")
        plan = plans[f]
        _require(j in plan.uav_of_cluster, f"{path}: frame {f} uav {j} serves no cluster")
        size = plan.size(plan.uav_of_cluster.index(j))
        served, reward = int(r[4]), int(r[5])
        power, blocks = float(r[6]), int(r[7])
        _require(0 <= served <= size and 0 <= reward <= size,
                 f"{path}: frame {f} episode {e} uav {j} serves {served}/{reward} of {size} users")
        _require(0.0 <= power <= env.p_max * (1.0 + 1e-12),
                 f"{path}: frame {f} episode {e} uav {j} transmits {power} W > p_max {env.p_max}")
        _require(0 <= blocks <= env.block_limit,
                 f"{path}: frame {f} episode {e} uav {j} uses {blocks} > {env.block_limit} blocks")
        seen.setdefault((f, e), []).append(j)
    for f, plan in enumerate(plans):
        for e in range(episodes):
            _require(sorted(seen.get((f, e), [])) == sorted(plan.uav_of_cluster),
                     f"{path}: frame {f} episode {e} rows for uavs {seen.get((f, e))}, "
                     f"active {plan.uav_of_cluster}")
    _require(len(seen) == len(plans) * episodes, f"{path}: rows for unexpected episodes")


def read_summary(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_audit(run_dir: str, summary: dict):
    audit = summary["audit"]
    _require(sorted(audit) == ["C1", "C4", "C5", "C6", "C7"],
             f"{run_dir}: audit keys {sorted(audit)}")
    _require(all(v == 0 for v in audit.values()), f"{run_dir}: audit counters {audit}")


def check_served_totals(run_dir: str, summary: dict, cfg, learned: bool):
    """Each frame's served_total against the per-episode sums of metrics.csv.

    A learned frame's total is the mean committed count of its last five
    episodes; a static frame has one row per UAV.
    """
    rows = read_metrics(os.path.join(run_dir, "metrics.csv"))
    per_episode: dict[tuple[int, int], int] = {}
    for r in rows:
        key = (int(r[0]), int(r[1]))
        per_episode[key] = per_episode.get(key, 0) + int(r[4])
    frames = summary["frames"]
    _require(len(frames) == cfg.frames, f"{run_dir}: {len(frames)} frames in summary.json")
    for f, doc in enumerate(frames):
        eps = sorted(e for (ff, e) in per_episode if ff == f)
        tail = eps[-5:] if learned else eps
        _require(len(tail) > 0, f"{run_dir}: frame {f} has no metrics rows")
        expect = math.fsum(per_episode[(f, e)] for e in tail) / len(tail)
        _require(abs(doc["served_total"] - expect) <= SERVED_TOL,
                 f"{run_dir}: frame {f} served_total {doc['served_total']} != {expect} "
                 "from metrics.csv")


def check_same_world(run_dir: str, sim_dir: str):
    """trajectories.csv and clusters.csv equal those run_simulation wrote for the same seed."""
    for name in ("trajectories.csv", "clusters.csv"):
        with open(os.path.join(run_dir, name), "rb") as mine, \
                open(os.path.join(sim_dir, name), "rb") as theirs:
            _require(mine.read() == theirs.read(),
                     f"{run_dir}: {name} differs from run_simulation's")


# ----- the static allocation's channel, recomputed -----

def los_probability_deg(theta_deg, b: float, c: float):
    return 1.0 / (1.0 + c * np.exp(-b * (theta_deg - c)))


def static_served(cfg, seed: int, frame: int, positions, plan: FramePlan):
    """Latched served users per UAV of the equal static allocation at mid altitude.

    Written from the paper's link budget: LoS probability as a sigmoid of the
    elevation in degrees, LoS and NLoS path loss, the probability-weighted
    received power, NLoS interference from every other active UAV at
    p_max / n_slots, and the Shannon rate over blocks * block_size.
    """
    env, k = cfg.env, cfg.constants
    n = env.n_ues
    h = (env.h_min + env.h_max) / 2.0
    uavs = plan.uav_of_cluster
    ue = np.array(positions, dtype=float)
    label = np.array(plan.labels)
    sizes = np.array([plan.size(c) for c in range(plan.k_star)], dtype=float)
    xy = np.array([plan.centroids[c] for c in range(plan.k_star)], dtype=float)
    horiz = np.sqrt(((ue[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))   # (n, k*)
    dist = np.sqrt(horiz ** 2 + h * h)
    elev_deg = np.degrees(np.arctan2(h, horiz))
    p_los = los_probability_deg(elev_deg, k.b, k.c)
    rows = np.arange(n)
    p_tx = env.p_max / sizes[label]
    bandwidth = (env.block_limit // sizes[label].astype(int)) * env.block_size
    p_avg = env.p_max / sizes                                                  # per cluster
    uav_col = np.array(uavs)
    steps = cfg.eval_steps if cfg.eval_steps > 0 else cfg.schedule.steps_per_episode
    fading = FadingField(seed, k, n, env.k_max)
    latched = np.zeros(n, dtype=bool)
    for t in range(steps):
        g_all, k_all = fading.draw(frame, cfg.schedule.episodes - 1, t)
        g = g_all[:, uav_col]            # (n, k*), column c is cluster c's UAV
        ray = k_all[:, uav_col]
        own = (rows, label)
        power = (p_los[own] * p_tx * g[own] * dist[own] ** -k.alpha_los
                 + (1.0 - p_los[own]) * p_tx * ray[own] * dist[own] ** -k.alpha_nlos)
        interf = p_avg[None, :] * ray * dist ** -k.alpha_nlos
        interf[own] = 0.0
        rate = bandwidth * np.log2(1.0 + power / (interf.sum(axis=1) + k.noise_power))
        latched |= rate >= env.r_th
    return {uavs[c]: int(latched[label == c].sum()) for c in range(plan.k_star)}


def check_static_channel(run_dir: str, summary: dict, cfg, seed: int, positions, plans):
    """Recomputed committed counts equal served_total and each UAV's metrics row."""
    rows = read_metrics(os.path.join(run_dir, "metrics.csv"))
    stated = {(int(r[0]), int(r[3])): int(r[4]) for r in rows}
    for f, plan in enumerate(plans):
        mine = static_served(cfg, seed, f, positions[f], plan)
        total = sum(mine.values())
        _require(summary["frames"][f]["served_total"] == total,
                 f"{run_dir}: frame {f} served_total {summary['frames'][f]['served_total']} "
                 f"!= {total} from the recomputed link budget")
        for j, count in mine.items():
            _require(stated.get((f, j)) == count,
                     f"{run_dir}: frame {f} uav {j} served_count {stated.get((f, j))} "
                     f"!= {count} from the recomputed link budget")


# ----- one run directory -----

def check_run_dir(run_dir: str, cfg, seed: int, method: str, sim_dir: str | None):
    """Every check that applies to one run directory of a run_single or run_simulation call.

    sim_dir holds run_simulation's files for the same seed; it is None for a
    run_simulation directory itself.
    """
    positions = check_mobility(os.path.join(run_dir, "trajectories.csv"), cfg)
    plans = check_clustering(os.path.join(run_dir, "clusters.csv"), positions, cfg)
    if method == "simulate":
        return
    learned = method != "static"
    episodes = cfg.schedule.episodes if learned else 1
    check_allocation(os.path.join(run_dir, "metrics.csv"), plans, cfg, episodes)
    summary = read_summary(run_dir)
    check_audit(run_dir, summary)
    check_served_totals(run_dir, summary, cfg, learned)
    check_same_world(run_dir, sim_dir)
    if not learned:
        check_static_channel(run_dir, summary, cfg, seed, positions, plans)


# ----- block search -----

def _sequential_stream(master_seed: int, name: str) -> np.random.Generator:
    """The named Philox stream the program derives from (master_seed, name)."""
    key = np.random.SeedSequence([int(master_seed)] + [ord(ch) for ch in name]).generate_state(
        2, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def link_rates(master_seed: int, count: int, env_cfg, consts) -> list[float]:
    """Per-block rates of the benchmark's random static links, redrawn here.

    Same draws in the same order as the program: distance, altitude, power,
    the Rician LoS gain as |nu + x + iy|^2 and the Rayleigh NLoS gain; a link
    is kept when its minimum block count lies in [3, 120].
    """
    rng = _sequential_stream(master_seed, "benchmark-links")
    kf = 10.0 ** (consts.rician_k_db / 10.0)
    nu = math.sqrt(kf / (kf + 1.0))
    sigma = math.sqrt(1.0 / (2.0 * (kf + 1.0)))
    rates = []
    while len(rates) < count:
        d = rng.uniform(0.0, 1500.0)
        h = rng.uniform(env_cfg.h_min, env_cfg.h_max)
        p = rng.uniform(0.1, env_cfg.p_max)
        x = float(rng.normal(0.0, sigma, size=()))
        y = float(rng.normal(0.0, sigma, size=()))
        g = (nu + x) ** 2 + y ** 2
        ray = rng.exponential(1.0)
        r = math.sqrt(d * d + h * h)
        p_los = float(los_probability_deg(math.degrees(math.atan2(h, d)), consts.b, consts.c))
        power = (p_los * p * g * r ** -consts.alpha_los
                 + (1 - p_los) * p * ray * r ** -consts.alpha_nlos)
        per_block = env_cfg.block_size * math.log2(1.0 + power / consts.noise_power)
        if per_block <= 0.0:
            continue
        if 3 <= math.ceil(env_cfg.r_th / per_block) <= 120:
            rates.append(per_block)
    return rates


def check_block_search(outcomes: dict[int, list[dict]], env_cfg, consts, schedule,
                       floor_share: float) -> int:
    """Served links froze at the closed-form minimum; the search shortens; enough are served.

    Returns the number of served links.
    """
    served = 0
    total = 0
    first, last = [], []
    tenth = max(1, schedule.episodes // 10)
    for master_seed, links in sorted(outcomes.items()):
        rates = link_rates(master_seed, len(links), env_cfg, consts)
        for li, (link, per_block) in enumerate(zip(links, rates)):
            where = f"block search seed {master_seed} link {li}"
            closed = math.ceil(env_cfg.r_th / per_block)
            _require(link["oracle"] == closed, f"{where}: oracle {link['oracle']} != {closed}")
            _require(link["frozen"] in (None, closed),
                     f"{where}: froze at {link['frozen']} blocks, minimum is {closed}")
            steps = link["search_steps"]
            _require(len(steps) == schedule.episodes
                     and all(1 <= s <= schedule.steps_per_episode for s in steps),
                     f"{where}: search steps {steps}")
            served += link["frozen"] is not None
            total += 1
            first.append(sum(steps[:tenth]) / tenth)
            last.append(sum(steps[-tenth:]) / tenth)
    f_mean, l_mean = math.fsum(first) / len(first), math.fsum(last) / len(last)
    _require(l_mean <= 0.5 * f_mean,
             f"block search: last-tenth search {l_mean:.1f} steps "
             f"> half of first-tenth {f_mean:.1f}")
    _require(served >= math.ceil(floor_share * total),
             f"block search: {served}/{total} links served, floor {floor_share:.0%}")
    return served
