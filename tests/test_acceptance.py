"""Acceptance suite: one test per criterion, printing a pass line each.

The end-to-end comparison (criteria 6/7/9) runs the desk-scale profile on
three paired seeds through a session fixture shared by those tests.
"""

import math
import os
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest

from uavcov import clustering, mobility
from uavcov.channel import (EnvConstants, achievable_rate, effective_power,
                            los_probability, received_power)
from uavcov.config import build_config
from uavcov.env import EnvConfig
from uavcov.experiment import block_search_benchmark, run_jobs
from uavcov.learn import TrainSchedule
from uavcov.nn import Mlp, param_views

from conftest import ACCEPTANCE_LINES, run_cli

getcontext().prec = 50

CONSTS = EnvConstants()


def _report(name, ok, detail=""):
    # printed by conftest's terminal summary, so the line shows without -s
    ACCEPTANCE_LINES.append(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


# ----- criterion 1: channel math vs high-precision reimplementation -----

def dec_los_probability(theta, b, c):
    deg = Decimal(theta) * Decimal(180) / Decimal(str(math.pi))
    e = (-Decimal(str(b)) * (deg - Decimal(str(c)))).exp()
    return Decimal(1) / (Decimal(1) + Decimal(str(c)) * e)


def dec_received_power(p, r, g, alpha):
    return Decimal(p) * Decimal(g) * (Decimal(r).ln() * Decimal(-alpha)).exp()


def dec_effective_power(pl, a, b):
    return Decimal(pl) * Decimal(a) + (Decimal(1) - Decimal(pl)) * Decimal(b)


def dec_rate(bw, pe, i, n):
    sinr = Decimal(pe) / (Decimal(i) + Decimal(n))
    return Decimal(bw) * (Decimal(1) + sinr).ln() / Decimal(2).ln()


def test_criterion_1_channel_oracle_suite():
    # the time bound covers the program's five channel calls per input, not
    # the Decimal reference, whose cost says nothing about the program
    rng = np.random.default_rng(101)
    elapsed = 0.0
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.0, math.pi / 2)
        p_tx = rng.uniform(1e-3, 1.0)
        r = rng.uniform(10.0, 3e4)
        g = rng.uniform(0.01, 5.0)
        bw = rng.uniform(1e3, 3.6e6)
        inter = rng.uniform(0.0, 1e-12)

        t0 = time.perf_counter()
        pl = los_probability(theta, CONSTS)
        pw = received_power(p_tx, r, g, CONSTS.alpha_los)
        pw2 = received_power(p_tx, r, g, CONSTS.alpha_nlos)
        eff = effective_power(pl, pw, pw2)
        rate = achievable_rate(bw, eff, inter, CONSTS.noise_power)
        elapsed += time.perf_counter() - t0

        ref_pl = float(dec_los_probability(theta, CONSTS.b, CONSTS.c))
        worst = max(worst, abs(pl - ref_pl) / ref_pl)

        ref_pw = float(dec_received_power(p_tx, r, g, CONSTS.alpha_los))
        worst = max(worst, abs(pw - ref_pw) / ref_pw)

        ref_eff = float(dec_effective_power(ref_pl, ref_pw,
                                            float(dec_received_power(p_tx, r, g, CONSTS.alpha_nlos))))
        worst = max(worst, abs(eff - ref_eff) / ref_eff)

        ref_rate = float(dec_rate(ref_eff, ref_eff, inter, CONSTS.noise_power) * 0 +
                         dec_rate(bw, ref_eff, inter, CONSTS.noise_power))
        worst = max(worst, abs(rate - ref_rate) / max(abs(ref_rate), 1e-300))
    _report("criterion 1 (channel oracle, 1000 inputs)",
            worst < 1e-9 and elapsed < 1.0,
            f"worst rel err {worst:.2e}, program calls {elapsed:.2f}s")


# ----- criterion 2: gradient correctness on 20 random small networks -----

def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 6))] + [int(rng.integers(2, 6)) for _ in range(depth)]
        net = Mlp(dims, rng)
        x = rng.normal(size=(2, dims[0]))
        target = rng.normal(size=(2, dims[-1]))
        out, cache = net.forward_cached(x)
        analytic, _ = net.backward(cache, out - target)

        def loss():
            o = net.forward(x)
            return 0.5 * float(np.sum((o - target) ** 2))

        h = 1e-5
        for p, a in zip(net.params, param_views(analytic, dims)):
            flat, aflat = p.ravel(), a.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = loss()
                flat[i] = orig - h
                lm = loss()
                flat[i] = orig
                num = (lp - lm) / (2 * h)
                denom = max(abs(num), 1e-6)
                worst = max(worst, abs(aflat[i] - num) / denom)
    elapsed = time.perf_counter() - t0
    _report("criterion 2 (gradients vs finite differences, 20 nets)",
            worst < 1e-4 and elapsed < 30.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# ----- criterion 3: bandwidth-search oracle equivalence -----

def test_criterion_3_block_search_oracle():
    t0 = time.perf_counter()
    schedule = TrainSchedule(
        episodes=40, steps_per_episode=150, batch_size=64, buffer_capacity=6000,
        warmup_transitions=300, update_interval=1, hidden=(32, 32),
        lr=1e-3, eps_start=1.0, eps_end=0.02, eps_frac=0.25,
    )
    outcomes = block_search_benchmark(100, EnvConfig(), CONSTS, schedule, 3030)
    matches = sum(1 for o in outcomes if o.frozen_blocks == o.oracle_blocks)
    first10 = float(np.mean([np.mean(o.search_steps[:10]) for o in outcomes]))
    last10 = float(np.mean([np.mean(o.search_steps[-10:]) for o in outcomes]))
    elapsed = time.perf_counter() - t0
    _report("criterion 3 (DQN vs oracle on 100 static links)",
            matches >= 95 and last10 <= 0.5 * first10 and elapsed < 600.0,
            f"matches {matches}/100, search first10 {first10:.1f} -> last10 {last10:.1f}, "
            f"{elapsed:.0f}s")


# ----- criterion 4: clustering on synthetic blobs -----

def brute_silhouette(points, labels):
    pts = np.asarray(points, float)
    n = len(pts)
    vals = np.zeros(n)
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            continue
        a = np.mean([np.linalg.norm(pts[i] - pts[j]) for j in own])
        b = min(np.mean([np.linalg.norm(pts[i] - pts[j])
                         for j in range(n) if labels[j] == c])
                for c in set(labels) - {labels[i]})
        vals[i] = 0.0 if max(a, b) == 0 else (b - a) / max(a, b)
    return vals


def test_criterion_4_clustering():
    t0 = time.perf_counter()
    hits = 0
    worst = 0.0
    spacing = 9000.0
    centers = [(0.0, 0.0), (spacing, 0.0), (0.0, spacing)]
    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        pts = np.vstack([rng.normal(c, 0.05 * spacing, size=(10, 2)) for c in centers])
        plan = clustering.select_k(pts, 5, rng)
        if plan.k_star == 3:
            hits += 1
        ref = brute_silhouette(pts, plan.assignment)
        mine = clustering.silhouette_samples(pts, plan.assignment)
        denom = np.maximum(np.abs(ref), 1e-12)
        worst = max(worst, float(np.max(np.abs(mine - ref) / denom)))
    elapsed = time.perf_counter() - t0
    _report("criterion 4 (3-blob k*, silhouette vs brute force)",
            hits >= 9 and worst < 1e-9 and elapsed < 30.0,
            f"k*=3 in {hits}/10 seeds, worst silhouette rel err {worst:.2e}, {elapsed:.1f}s")


# ----- criterion 5: STEP invariants -----

def test_criterion_5_step_invariants():
    t0 = time.perf_counter()
    grid = mobility.GridWorld()
    for seed in range(420, 440):
        g = mobility.GridWorld(
            attraction_points=mobility.draw_attraction_points(seed, grid, 3))
        state = mobility.init_positions(30, g, seed)
        for frame in range(100):
            new = mobility.step_frame(state, g, seed, frame)
            stepped = np.abs(new.positions - state.positions).sum(axis=1)
            assert np.all(stepped <= 1), "non-adjacent move"
            assert np.all((new.positions >= 0) & (new.positions <= 99)), "out of bounds"
            assert len({(int(x), int(y)) for x, y in new.positions}) == 30, "collision"
            state = new
    # attraction descent: single point, p = 0.4, mean over 20 seeds
    target = np.array([50, 50])
    means = np.zeros(21)
    for seed in range(20):
        g = mobility.GridWorld(attraction_points=[(50, 50)])
        state = mobility.init_positions(30, g, seed)
        means[0] += np.linalg.norm(state.positions - target, axis=1).mean() / 20
        for frame in range(20):
            state = mobility.step_frame(state, g, seed, frame)
            means[frame + 1] += np.linalg.norm(state.positions - target, axis=1).mean() / 20
    decreasing = bool(np.all(np.diff(means) < 0))
    elapsed = time.perf_counter() - t0
    _report("criterion 5 (STEP invariants, 100 frames x 20 seeds)",
            decreasing and elapsed < 30.0,
            f"mean distance strictly decreasing over 20 frames: {decreasing}, {elapsed:.1f}s")


# ----- criteria 6/7/9 share the desk-scale paired runs -----

@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    # the nine runs go through run_experiment's worker pool
    out = tmp_path_factory.mktemp("desk")
    methods = ("flare", "maddpg_only", "static")
    seeds = [1, 2, 3]
    jobs = [(build_config({"seeds": [seed], "r_th": 5e6}), method, seed,
             str(out / f"{method}_seed{seed}")) for method in methods for seed in seeds]
    t0 = time.perf_counter()
    summaries = [summary for summary, _ in run_jobs(jobs)]
    results = {method: summaries[i * len(seeds):(i + 1) * len(seeds)]
               for i, method in enumerate(methods)}
    results["wall"] = time.perf_counter() - t0
    return results


def test_criterion_6_directional_comparison(desk_runs):
    means = {m: float(np.mean([s.mean_served for s in desk_runs[m]]))
             for m in ("flare", "maddpg_only", "static")}
    ratio = means["flare"] / means["maddpg_only"] if means["maddpg_only"] > 0 else math.inf
    ok = (means["flare"] > means["maddpg_only"] >= means["static"]
          and ratio >= 1.2 and desk_runs["wall"] < 3600.0)
    _report("criterion 6 (flare > maddpg_only >= static, ratio >= 1.2)",
            ok,
            f"means {means}, ratio {ratio:.2f}, wall {desk_runs['wall']:.0f}s")


def test_criterion_7_reward_trend(desk_runs):
    oks = []
    details = []
    for s in desk_runs["flare"]:
        rewards = np.asarray(s.episode_rewards)
        k = max(1, len(rewards) // 10)
        first, last = float(rewards[:k].mean()), float(rewards[-k:].mean())
        oks.append(last >= first)
        details.append(f"seed {s.seed}: {first:.2f} -> {last:.2f}")
    _report("criterion 7 (mean episode reward trend per seed)",
            all(oks), "; ".join(details))


def test_criterion_9_constraint_audit(desk_runs):
    total = {}
    for m in ("flare", "maddpg_only", "static"):
        for s in desk_runs[m]:
            for k, v in s.audit.items():
                total[k] = total.get(k, 0) + v
    _report("criterion 9 (C1/C4/C5/C6/C7 audit)",
            all(v == 0 for v in total.values()), f"violations {total}")


# ----- criterion 8: byte-identical reruns through the CLI -----

def test_criterion_8_determinism(tmp_path):
    cfg_text = (
        "n_ues = 8\nframes = 2\nepisodes = 2\nsteps_per_episode = 20\n"
        "batch_size = 8\nbuffer_capacity = 64\nwarmup_transitions = 8\n"
        "update_interval = 2\nhidden = 8,8\nseeds = 5\n"
    )
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(cfg_text)
    out = tmp_path / "runs"
    first: dict[str, bytes] = {}
    for attempt in range(2):
        proc = run_cli("train", "--config", str(cfg_path), "--method", "flare",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        run_dir = out / "flare_seed5"
        if attempt == 0:
            first = {n: (run_dir / n).read_bytes() for n in sorted(os.listdir(run_dir))}
    names = sorted(os.listdir(run_dir))
    assert names == sorted(first)
    diffs = [n for n in names if (run_dir / n).read_bytes() != first[n]]
    _report("criterion 8 (byte-identical rerun)",
            not diffs, f"files compared {names}, diffs {diffs}")
