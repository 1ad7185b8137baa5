"""Experiment harness: frame loop, baselines, oracle, file emission.

A run is (config, method, seed). Mobility, clustering and fading randomness
are derived from the seed through named streams, so the three methods see
identical worlds and differ only in their decisions; paired comparisons are
therefore meaningful seed by seed.

Outputs per run directory: trajectories.csv, clusters.csv, metrics.csv,
rewards.csv, search_steps.csv (flare), summary.json, config.txt, and
checkpoint.bin when asked for (learned methods). All files are deterministic
functions of (config, seed); wall-clock timing is reported on stdout only,
never written into result files.
"""

import contextlib
import ctypes
import functools
import json
import math
import os
import shutil
import time
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import clustering, mobility, seeding
from .channel import (EnvConstants, FadingField, mixed_power, rician_power_gain,
                      rayleigh_power_gain, slant_geometry)
from .config import ExperimentConfig, config_hash, dump_config
from .env import EnvConfig, FrameWorld
from .learn import (Dqn, DqnPool, MaddpgLearner, ReplayBuffer, TrainSchedule,
                    dqn_select_action, dqn_update, evaluate_frame_static,
                    save_checkpoint, train_frame, zero_head_mlp)
from .mobility import GridWorld


# ----- bandwidth oracle -----

@dataclass(frozen=True)
class OracleBlocks:
    blocks: float          # smallest sufficient block count; math.inf if rate is 0
    within_budget: bool    # False when the count exceeds the per-UAV block limit

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.blocks) and self.within_budget


def oracle_min_blocks(power_eff: float, interference: float, noise: float,
                      r_th: float, block_size: float, block_limit: int) -> OracleBlocks:
    """Closed-form minimum block count meeting the rate threshold.

    Smallest integer n with n * block_size * log2(1 + SINR) >= r_th.
    """
    if r_th <= 0:
        raise ValueError("r_th must be positive")
    sinr = power_eff / (interference + noise)
    per_block = block_size * np.log2(1.0 + sinr)
    if per_block <= 0.0:
        return OracleBlocks(blocks=math.inf, within_budget=False)
    n = int(math.ceil(r_th / per_block))
    return OracleBlocks(blocks=float(n), within_budget=n <= block_limit)


# ----- deterministic file writers -----

def fmt(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):   # bool is an int
        return str(int(value))
    return str(float(value))


class CsvWriter:
    def __init__(self, path: str, columns: list[str]):
        self.path = path
        self.columns = columns
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(columns) + "\n")

    def row(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"{self.path}: expected {len(self.columns)} columns")
        self._fh.write(",".join(fmt(v) for v in values) + "\n")

    def close(self):
        self._fh.close()


def _write_json(path: str, doc: dict):
    """Write through a tmp file, so that path holds the whole document or none."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# ----- run directories -----

# file stem -> columns of every CSV a run directory can hold
CSV_COLUMNS = {
    "trajectories": ["frame", "ue_id", "grid_x", "grid_y", "x_m", "y_m"],
    "clusters": ["frame", "ue_id", "cluster", "centroid_x", "centroid_y",
                 "k_star", "mean_silhouette"],
    "metrics": ["frame", "episode", "timestep", "uav_id",
                "served_count", "reward", "sum_power_w", "sum_blocks"],
    "rewards": ["frame", "episode", "mean_reward"],
    "search_steps": ["frame", "episode", "mean_search_steps"],
}


@contextlib.contextmanager
def _atomic_dir(out_dir: str):
    """Yield the sibling directory `<out_dir>.partial` to write a run into.

    When the body completes, the partial directory replaces out_dir, so a
    rerun keeps no stale file of an earlier one. When it raises, the partial
    directory is removed and an earlier out_dir stays as it was; a killed
    run leaves only `.partial` (or `.old`) siblings, which the next run
    removes.
    """
    out_dir = os.path.normpath(out_dir)
    partial, old = out_dir + ".partial", out_dir + ".old"
    for stale in (partial, old):
        shutil.rmtree(stale, ignore_errors=True)
    os.makedirs(partial)
    try:
        yield partial
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    # a directory is only renamed onto an empty one: move the earlier run aside
    if os.path.isdir(out_dir):
        os.replace(out_dir, old)
    os.replace(partial, out_dir)
    shutil.rmtree(old, ignore_errors=True)


def _open_run_dir(out_dir: str, cfg: ExperimentConfig, seed: int, method: str,
                  stems: list[str]) -> dict[str, CsvWriter]:
    """Write the new run directory's config.txt, open the named CSVs."""
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(dump_config(cfg, {"seed": seed, "method": method}))
    return {stem: CsvWriter(os.path.join(out_dir, f"{stem}.csv"), CSV_COLUMNS[stem])
            for stem in stems}


@dataclass
class RunSummary:
    method: str
    seed: int
    r_th: float
    config_hash: str
    frames: list[dict] = field(default_factory=list)
    audit: dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in ("C1", "C4", "C5", "C6", "C7")})
    episode_rewards: list[float] = field(default_factory=list)       # flattened over frames
    episode_search_steps: list[float] = field(default_factory=list)  # flare only, else empty

    @property
    def served_by_frame(self) -> list[int]:
        return [f["served_total"] for f in self.frames]

    @property
    def mean_served(self) -> float:
        return float(np.mean(self.served_by_frame))

    def write(self, path: str):
        """summary.json: every field but the episode series, plus the served counts."""
        doc = asdict(self)
        del doc["episode_rewards"], doc["episode_search_steps"]
        _write_json(path, {**doc, "served_by_frame": self.served_by_frame,
                           "mean_served": self.mean_served})


# ----- single run -----

def _grid_for(cfg: ExperimentConfig, seed: int) -> GridWorld:
    grid = GridWorld(width=cfg.grid_width, height=cfg.grid_height,
                     cell_size_m=cfg.cell_size_m, attraction_prob=cfg.attraction_prob)
    points = cfg.attraction_points
    if points is None:
        points = mobility.draw_attraction_points(seed, grid, cfg.n_attraction_points)
    return replace(grid, attraction_points=[tuple(p) for p in points])


def _frames(cfg: ExperimentConfig, seed: int, grid: GridWorld):
    """Yield each frame's (mobility state, UE positions in m, UAV-matched cluster plan)."""
    k_max = cfg.env.k_max
    state = mobility.init_positions(cfg.env.n_ues, grid, seed)
    prev_centroids: dict[int, np.ndarray] = {}
    for frame in range(cfg.frames):
        state = mobility.step_frame(state, grid, seed, frame)
        pts = mobility.to_physical(state.positions, grid.cell_size_m)
        clu_rng = seeding.counter_stream(seed, seeding.CLUSTERING, (frame,))
        plan = clustering.select_k(pts, k_max, clu_rng)
        plan = clustering.match_to_previous(plan, prev_centroids, k_max)
        prev_centroids = {plan.active_uavs[c]: plan.centroids[c].copy()
                          for c in range(plan.k_star)}
        yield state, pts, plan


def _write_frame(out: dict[str, CsvWriter], frame: int, state, pts, plan):
    """One frame's trajectories.csv and clusters.csv rows."""
    for i, (gx, gy) in enumerate(state.positions.tolist()):
        out["trajectories"].row(frame, i, gx, gy, pts[i, 0], pts[i, 1])
    for i, c in enumerate(plan.assignment.tolist()):
        out["clusters"].row(frame, i, c, plan.centroids[c, 0], plan.centroids[c, 1],
                            plan.k_star, plan.silhouette_mean)


# ----- BLAS threads -----

# get/set_num_threads of OpenBLAS builds: numpy's wheels (ILP64, prefixed)
# first, then plain OpenBLAS
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}64_", "openblas_{}64_", "scipy_openblas_{}", "openblas_{}")


@functools.cache
def _openblas_threads():
    """(get_num_threads, set_num_threads) of the OpenBLAS numpy loaded, or None.

    The library is found among the process's mapped files, which Linux
    lists in /proc/self/maps; elsewhere, or with another BLAS, none is found.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_SYMBOLS:
            try:
                get = getattr(lib, symbol.format("get_num_threads"))
                set_ = getattr(lib, symbol.format("set_num_threads"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body under one OpenBLAS thread; restore the caller's count after.

    The nets' matrices are tiny: a second BLAS thread gains no wall time
    and spins between calls, doubling the CPU time of a training run and
    taking the core another run could use. Thread counts never change
    results. Without a known OpenBLAS this does nothing.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


# ----- single run -----

def run_single(cfg: ExperimentConfig, method: str, seed: int, out_dir: str,
               quiet: bool = False, checkpoint: bool = False) -> RunSummary:
    """Run one method on one seed over all frames; write the run directory.

    The run is written into `<out_dir>.partial`, which replaces out_dir when
    the run completes; a failure removes it, so output directories never hold
    torsos. Training runs under one BLAS thread.
    """
    t0 = time.perf_counter()
    with _atomic_dir(out_dir) as partial, _one_blas_thread():
        summary = _run_single(cfg, method, seed, partial, checkpoint)
    if not quiet:
        print(_run_line(summary, time.perf_counter() - t0, cfg.frames))
    return summary


def _run_line(summary: RunSummary, wall: float, frames: int) -> str:
    return (f"[{summary.method} seed={summary.seed}] mean served {summary.mean_served:.2f} "
            f"over {frames} frames ({wall:.1f}s)")


def _run_single(cfg: ExperimentConfig, method: str, seed: int,
                out_dir: str, checkpoint: bool) -> RunSummary:
    env_cfg = cfg.env
    schedule = cfg.schedule
    grid = _grid_for(cfg, seed)
    field_size = ((grid.width - 1) * grid.cell_size_m, (grid.height - 1) * grid.cell_size_m)
    fading = FadingField(seed, cfg.constants, env_cfg.n_ues, env_cfg.k_max)
    init_rng = seeding.sequential_stream(seed, seeding.INIT)
    expl_rng = seeding.sequential_stream(seed, seeding.EXPLORATION)

    maddpg = dqns = None
    if method != "static":
        bw_head = method == "maddpg_only" and cfg.maddpg_bw_mode == "learned"
        maddpg = MaddpgLearner(env_cfg, schedule, init_rng, bw_head=bw_head)
    if method == "flare":
        dqns = DqnPool(env_cfg, schedule, init_rng)

    stems = ["trajectories", "clusters", "metrics", "rewards"]
    out = _open_run_dir(out_dir, cfg, seed, method,
                        stems if dqns is None else stems + ["search_steps"])
    summary = RunSummary(method=method, seed=seed, r_th=float(env_cfg.r_th),
                         config_hash=config_hash(cfg, {"seed": seed, "method": method}))
    total_steps = cfg.frames * schedule.episodes * schedule.steps_per_episode

    def sink(world, episode, timestep):
        """metrics.csv rows, one per active UAV: served_count is the episode's
        committed coverage, reward the served count at the logged step."""
        if cfg.metrics_interval > 0 and episode % cfg.metrics_interval != 0:
            return
        act = world.active_idx
        for row in zip(act, world.frozen[act].sum(axis=1), world.served[act].sum(axis=1),
                       world.power[act].sum(axis=1), world.blocks[act].sum(axis=1)):
            out["metrics"].row(world.frame, episode, timestep, *row)

    for frame, (state, pts, plan) in enumerate(_frames(cfg, seed, grid)):
        world = FrameWorld(env_cfg, cfg.constants, pts, plan, fading, frame, field_size)
        _write_frame(out, frame, state, pts, plan)

        if maddpg is None:
            eval_steps = cfg.eval_steps if cfg.eval_steps > 0 else schedule.steps_per_episode
            served = evaluate_frame_static(world, schedule, eval_steps)
            sink(world, 0, eval_steps - 1)
        else:
            maddpg.buffer.clear()
            if dqns is not None:
                dqns.buffer.clear()
            records = train_frame(world, maddpg, dqns, schedule, expl_rng,
                                  step_offset=frame * schedule.episodes * schedule.steps_per_episode,
                                  total_steps=total_steps, metrics_sink=sink)
            for rec in records:
                summary.episode_rewards.append(rec.mean_reward)
                out["rewards"].row(frame, rec.episode, rec.mean_reward)
                if dqns is not None:
                    summary.episode_search_steps.append(rec.mean_search_steps)
                    out["search_steps"].row(frame, rec.episode, rec.mean_search_steps)
            # the frame's coverage: committed count averaged over the closing
            # episodes of the search (one episode is a noisy sample of it)
            served = np.mean([r.committed for r in records[-5:]])

        for c in summary.audit:
            summary.audit[c] += world.audit[c]
        act = world.active_idx
        summary.frames.append({
            "frame": frame,
            "k_star": int(plan.k_star),
            "mean_silhouette": float(plan.silhouette_mean),
            "served_total": float(served),
            "served_per_uav": world.committed_per_agent(),
            "sum_power_w": sum(float(p) for p in world.power[act].sum(axis=1)),
            "sum_blocks": int(world.blocks.sum()),
            "method": method,
        })

    if checkpoint and maddpg is not None:
        save_checkpoint(os.path.join(out_dir, "checkpoint.bin"), maddpg, dqns,
                        {"frames_completed": cfg.frames})
    for w in out.values():
        w.close()
    summary.write(os.path.join(out_dir, "summary.json"))
    return summary


# ----- many runs across CPUs -----

# submit order of run_jobs: the longest runs first, so that none starts last
_LONGEST_FIRST = {"flare": 0, "maddpg_only": 1}


def _adopt_warning_filters(filters: list):
    """Pool worker initializer: the caller's warning filters, in place of the defaults."""
    warnings.resetwarnings()
    warnings.filters[:] = filters


def _timed_run(cfg: ExperimentConfig, method: str, seed: int, out_dir: str,
               checkpoint: bool) -> tuple[RunSummary, float]:
    t0 = time.perf_counter()
    summary = run_single(cfg, method, seed, out_dir, quiet=True, checkpoint=checkpoint)
    return summary, time.perf_counter() - t0


def run_jobs(jobs: list[tuple[ExperimentConfig, str, int, str]],
             checkpoint: bool = False) -> list[tuple[RunSummary, float]]:
    """run_single each (config, method, seed, out_dir) job in worker processes.

    Returns each job's summary and wall time, in job order. One worker per
    CPU this process may use, at most one per job; each worker is a spawned
    interpreter under the caller's warning filters, and none outlives the
    call. A failed job cancels the jobs not yet started, and its error is
    raised once the running ones have finished.
    """
    # imported here: the pool's modules would add to every run's start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    if not jobs:
        return []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    order = sorted(range(len(jobs)), key=lambda i: _LONGEST_FIRST.get(jobs[i][1], 2))
    with ProcessPoolExecutor(max_workers=min(cpus or 1, len(jobs)),
                             mp_context=multiprocessing.get_context("spawn"),
                             initializer=_adopt_warning_filters,
                             initargs=(list(warnings.filters),)) as pool:
        futures = {i: pool.submit(_timed_run, *jobs[i], checkpoint) for i in order}
        try:
            for future in as_completed(futures.values()):
                future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
        return [futures[i].result() for i in range(len(jobs))]


def run_experiment(cfg: ExperimentConfig, methods: list[str] | None = None,
                   quiet: bool = False, checkpoint: bool = False) -> dict:
    """Run the configured seeds (and methods) and write a comparison summary.

    The (method, seed) runs go through run_jobs; their lines print in
    method-then-seed order once all have finished.
    """
    methods = methods or [cfg.method]
    pairs = list(dict.fromkeys((m, s) for m in methods for s in cfg.seeds))
    runs = dict(zip(pairs, run_jobs(
        [(cfg, m, s, os.path.join(cfg.out_dir, f"{m}_seed{s}")) for m, s in pairs],
        checkpoint)))
    results = {m: [runs[m, s][0] for s in cfg.seeds] for m in methods}
    if not quiet:
        for m in methods:
            for s in cfg.seeds:
                print(_run_line(*runs[m, s], cfg.frames))
    comparison = {
        "r_th": float(cfg.env.r_th),
        "seeds": list(cfg.seeds),
        "methods": {},
    }
    for method, summaries in results.items():
        per_frame = np.mean([s.served_by_frame for s in summaries], axis=0)
        comparison["methods"][method] = {
            "mean_served": float(np.mean([s.mean_served for s in summaries])),
            "served_by_frame_mean": [float(v) for v in per_frame],
            "per_seed_mean_served": [float(s.mean_served) for s in summaries],
        }
    if "flare" in results and "maddpg_only" in results:
        base = comparison["methods"]["maddpg_only"]["mean_served"]
        ours = comparison["methods"]["flare"]["mean_served"]
        comparison["flare_over_maddpg_ratio"] = float(ours / base) if base > 0 else math.inf
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, "comparison.json"), comparison)
    return comparison


# ----- mobility/clustering-only runs -----

def run_simulation(cfg: ExperimentConfig, seed: int, out_dir: str):
    """Mobility and clustering streams only (no radio, no learning)."""
    grid = _grid_for(cfg, seed)
    with _atomic_dir(out_dir) as partial:
        out = _open_run_dir(partial, cfg, seed, "simulate", ["trajectories", "clusters"])
        for frame, (state, pts, plan) in enumerate(_frames(cfg, seed, grid)):
            _write_frame(out, frame, state, pts, plan)
        for w in out.values():
            w.close()


# ----- oracle table -----

def oracle_table(cfg: ExperimentConfig, out_path: str | None = None) -> list[dict]:
    """Minimum blocks over a horizontal-distance grid at nominal conditions.

    Unit fading, no interference, equal-share power at mid altitude: the
    reference curve for judging learned block allocations.
    """
    env_cfg = cfg.env
    consts = cfg.constants
    h = (env_cfg.h_min + env_cfg.h_max) / 2.0
    p_tx = env_cfg.p_max / max(1, env_cfg.n_ues // env_cfg.k_max)
    rows = []
    for d in range(0, 3001, 250):
        r, theta = slant_geometry(float(d), h)
        p_eff = mixed_power(p_tx, r, theta, 1.0, 1.0, consts)
        oracle = oracle_min_blocks(p_eff, 0.0, consts.noise_power, env_cfg.r_th,
                                   env_cfg.block_size, env_cfg.block_limit)
        rows.append({
            "distance_m": float(d),
            "altitude_m": float(h),
            "p_tx_w": float(p_tx),
            "blocks": oracle.blocks,
            "within_budget": oracle.within_budget,
        })
    if out_path:
        writer = CsvWriter(out_path, ["distance_m", "altitude_m", "p_tx_w",
                                      "blocks", "within_budget"])
        for r in rows:
            blocks = r["blocks"] if math.isfinite(r["blocks"]) else -1
            writer.row(r["distance_m"], r["altitude_m"], r["p_tx_w"], blocks,
                       int(r["within_budget"]))
        writer.close()
    return rows


# ----- single-link block-search benchmark -----

@dataclass
class LinkOutcome:
    oracle_blocks: int
    frozen_blocks: int | None          # greedy-policy result; None if never served
    search_steps: list[float]          # per training episode


def sample_static_link(rng: np.random.Generator, env_cfg: EnvConfig,
                       consts: EnvConstants) -> float:
    """Random static link with frozen fading; returns its per-block rate (bits/s).

    Geometry, power and fading are drawn until the oracle block count lands in
    a range a +-1 search can explore within a few hundred steps.
    """
    while True:
        d = rng.uniform(0.0, 1500.0)
        h = rng.uniform(env_cfg.h_min, env_cfg.h_max)
        p_tx = rng.uniform(0.1, env_cfg.p_max)
        g = rician_power_gain(rng, consts.rician_k_db)
        k = rayleigh_power_gain(rng)
        r, theta = slant_geometry(d, h)
        p_eff = mixed_power(p_tx, r, theta, g, k, consts)
        per_block = env_cfg.block_size * np.log2(1.0 + p_eff / consts.noise_power)
        if per_block <= 0.0:
            continue
        n = math.ceil(env_cfg.r_th / per_block)
        if 3 <= n <= 120:
            return float(per_block)


def block_search_benchmark(n_links: int, env_cfg: EnvConfig, consts: EnvConstants,
                           schedule: TrainSchedule, master_seed: int,
                           quiet: bool = True) -> list[LinkOutcome]:
    """Train one DQN per randomized static link and compare to the oracle.

    State is [blocks/limit, served]; reward 1 on meeting the threshold, at
    which point the search episode ends. After training, a greedy rollout
    from zero blocks gives the frozen count compared against the closed form.
    """
    link_rng = seeding.sequential_stream(master_seed, "benchmark-links")
    expl_rng = seeding.sequential_stream(master_seed, "benchmark-expl")
    init_rng = seeding.sequential_stream(master_seed, "benchmark-init")
    outcomes = []
    total = schedule.episodes * schedule.steps_per_episode
    for li in range(n_links):
        per_block = sample_static_link(link_rng, env_cfg, consts)
        oracle_n = math.ceil(env_cfg.r_th / per_block)
        dqn = Dqn(zero_head_mlp([2] + list(schedule.hidden) + [2], init_rng), schedule.dqn_lr)
        buffer = ReplayBuffer(schedule.replay_capacity, {"state": 2, "action": 1, "reward": 1,
                                                         "next_state": 2, "done": 1})
        search_steps = []
        gstep = 0
        for _ in range(schedule.episodes):
            blocks = 0
            served = False
            steps_used = schedule.steps_per_episode
            for t in range(schedule.steps_per_episode):
                eps = schedule.eps_at(gstep, total)
                state = np.array([blocks / env_cfg.block_limit, 0.0])
                a_idx = dqn_select_action(dqn.net, state, eps, expl_rng)
                blocks = min(max(blocks + (1 if a_idx == 0 else -1), 0), env_cfg.block_limit)
                rate = blocks * per_block
                served = rate >= env_cfg.r_th
                done = served or t == schedule.steps_per_episode - 1
                buffer.add(state=state, action=a_idx, reward=float(served),
                           next_state=np.array([blocks / env_cfg.block_limit, float(served)]),
                           done=float(done))
                gstep += 1
                if (t + 1) % schedule.update_interval == 0 and \
                        len(buffer) >= max(schedule.batch_size, schedule.warmup_transitions):
                    dqn_update(dqn, buffer.sample(schedule.batch_size, expl_rng), schedule)
                if served:
                    steps_used = t + 1
                    break
            search_steps.append(float(steps_used))
        # Greedy rollout: the frozen count is where the policy first serves.
        blocks = 0
        frozen = None
        for _ in range(schedule.steps_per_episode):
            state = np.array([blocks / env_cfg.block_limit, 0.0])
            a_idx = int(np.argmax(dqn.net.forward(state)))
            blocks = min(max(blocks + (1 if a_idx == 0 else -1), 0), env_cfg.block_limit)
            if blocks * per_block >= env_cfg.r_th:
                frozen = blocks
                break
        outcomes.append(LinkOutcome(oracle_blocks=oracle_n, frozen_blocks=frozen,
                                    search_steps=search_steps))
        if not quiet:
            print(f"link {li}: oracle={oracle_n} frozen={frozen} "
                  f"first10={np.mean(search_steps[:10]):.1f} "
                  f"last10={np.mean(search_steps[-10:]):.1f}")
    return outcomes
