"""Action mapping, budget clamps, observation shape, reward identities."""

import numpy as np
import pytest

from uavcov.channel import (EnvConstants, FadingField, effective_power, los_probability,
                            received_power)
from uavcov.clustering import ClusterPlan
from uavcov.env import EnvConfig, FrameWorld, map_altitude, masked_softmax
from uavcov.experiment import oracle_min_blocks

from conftest import build_world

CONSTS = EnvConstants()


def test_map_altitude_examples():
    assert map_altitude(0.0, 300.0, 1000.0) == pytest.approx(650.0)
    assert map_altitude(50.0, 300.0, 1000.0) == pytest.approx(1000.0)
    assert map_altitude(np.arctanh(0.5), 300.0, 1000.0) == pytest.approx(825.0, rel=1e-12)
    with pytest.raises(ValueError):
        map_altitude(np.nan, 300.0, 1000.0)


def test_map_altitude_always_in_range():
    rng = np.random.default_rng(0)
    for raw in rng.normal(0, 10, 200):
        h = map_altitude(raw, 300.0, 1000.0)
        assert 300.0 <= h <= 1000.0


def test_masked_softmax_power_examples():
    mask = np.array([True, True, True, False])
    p = masked_softmax(np.zeros(4), mask) * 1.0
    assert p[:3] == pytest.approx([1 / 3] * 3)
    assert p[3] == 0.0
    single = masked_softmax(np.array([5.0, 1.0]), np.array([False, True])) * 0.7
    assert single[0] == 0.0 and single[1] == pytest.approx(0.7)
    two = masked_softmax(np.array([np.log(2.0), 0.0]), np.array([True, True])) * 1.0
    assert two == pytest.approx([2 / 3, 1 / 3], rel=1e-12)
    with pytest.raises(ValueError):
        masked_softmax(np.zeros(2), np.zeros(2, dtype=bool))


def test_masked_softmax_rows_match_single_calls():
    # a batch of logit rows under one mask gives each row's own softmax, bit for bit
    rng = np.random.default_rng(5)
    for _ in range(100):
        mask = rng.random(7) < 0.5
        mask[rng.integers(7)] = True
        z = rng.normal(0, 5, (4, 7))
        batch = masked_softmax(z, mask)
        for row, logits in zip(batch, z):
            assert np.array_equal(row, masked_softmax(logits, mask))


def test_masked_softmax_power_sums_to_budget():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        mask = np.zeros(12, dtype=bool)
        mask[rng.choice(12, n, replace=False)] = True
        logits = rng.normal(0, 5, 12)
        p = masked_softmax(logits, mask) * 1.0
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p[~mask] == 0.0)
        assert np.all(p >= 0.0)


def test_env_config_validates():
    with pytest.raises(ValueError):
        EnvConfig(block_limit=100)  # 100 * 18 kHz != 3.6 MHz
    with pytest.raises(ValueError):
        EnvConfig(h_min=1000.0, h_max=300.0)
    cfg = EnvConfig()
    assert cfg.max_cluster_size == cfg.n_ues
    assert cfg.obs_dim == 2 * cfg.n_ues + 3
    assert cfg.dqn_obs_dim == cfg.obs_dim + 4


def test_frame_world_places_uavs_over_their_centroids():
    # UAV active_uavs[c] hovers over centroid c at mid altitude; the others park at 0
    plan = ClusterPlan(k_star=2, assignment=np.array([0, 0, 1]),
                       centroids=np.array([[300.0, 600.0], [900.0, 0.0]]),
                       silhouette_mean=0.5, active_uavs=[3, 1])
    cfg = EnvConfig(n_ues=3, k_max=5)
    world = FrameWorld(cfg, CONSTS, [[0.0, 600.0], [600.0, 600.0], [900.0, 0.0]], plan,
                       FadingField(0, CONSTS, 3, 5), 0, (99 * 300.0, 99 * 300.0))
    assert world.active_idx == [1, 3]
    assert world.xy[3].tolist() == [300.0, 600.0]
    assert world.xy[1].tolist() == [900.0, 0.0]
    assert world.h[[1, 3]].tolist() == [650.0, 650.0]
    for j in (0, 2, 4):
        assert world.xy[j].tolist() == [0.0, 0.0] and world.h[j] == 0.0
        assert not world.mask[j].any()
    assert world.slot_ues[3, :2].tolist() == [0, 1] and world.slot_ues[1, 0] == 2


def test_block_action_clamps(world_factory):
    world = world_factory([[0.0, 0.0], [300.0, 0.0]], [0, 0])
    world.reset_episode(equal_blocks=False)
    world.apply_block_action(0, 0, -1)
    assert world.blocks[0, 0] == 0
    for _ in range(250):
        world.apply_block_action(0, 0, +1)
    assert world.blocks[0, 0] == 200
    world.apply_block_action(0, 1, +1)  # budget exhausted by slot 0
    assert world.blocks[0, 1] == 0
    world.frozen[0, 0] = True
    world.apply_block_action(0, 0, -1)
    assert world.blocks[0, 0] == 200


def test_zero_power_zero_reward(world_factory):
    world = world_factory([[0.0, 0.0], [600.0, 0.0], [1200.0, 0.0]], [0, 0, 1])
    world.reset_episode(equal_blocks=True)
    world.power[...] = 0.0
    _, served, rewards, ue_rewards = world.evaluate(0, 0)
    assert not served.any()
    assert rewards.sum() == 0.0
    assert ue_rewards.sum() == 0.0


def test_reward_counting_identity(world_factory):
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 29700, (12, 2))
    labels = np.array([0] * 6 + [1] * 6)
    world = world_factory(pts, labels)
    world.reset_episode(equal_blocks=True)
    for step in range(5):
        _, served, rewards, ue_rewards = world.evaluate(0, step)
        assert rewards.sum() == served.sum() == ue_rewards.sum()
        assert int(world.served.sum()) == int(served.sum())


def test_oracle_minimum_blocks_serve_exactly(world_factory):
    # a UE given exactly the oracle block count under this step's fading is
    # served; one block fewer is not
    world = world_factory([[0.0, 0.0]], [0], uav_xy=[[0.0, 0.0]], seed=5)
    world.reset_episode(equal_blocks=False)
    cfg = world.cfg
    g, k = world.fading.draw(0, 0, 0)
    geom_r = np.hypot(0.0, world.h[0])
    p_los = los_probability(np.pi / 2, CONSTS)
    p_eff = effective_power(
        p_los,
        received_power(world.power[0, 0], geom_r, g[0, 0], CONSTS.alpha_los),
        received_power(world.power[0, 0], geom_r, k[0, 0], CONSTS.alpha_nlos),
    )
    oracle = oracle_min_blocks(p_eff, 0.0, CONSTS.noise_power, cfg.r_th,
                               cfg.block_size, cfg.block_limit)
    assert oracle.feasible
    world.blocks[0, 0] = int(oracle.blocks)
    _, served, rewards, _ = world.evaluate(0, 0)
    assert served[0] and rewards[0] == 1.0
    world.reset_episode(equal_blocks=False)
    world.blocks[0, 0] = int(oracle.blocks) - 1
    _, served, _, _ = world.evaluate(0, 0)
    assert not served[0]


def test_freeze_latches(world_factory):
    world = world_factory([[0.0, 0.0]], [0], uav_xy=[[0.0, 0.0]])
    world.reset_episode(equal_blocks=False)
    world.blocks[0, 0] = 200
    world.evaluate(0, 0)
    assert world.served[0, 0] and world.frozen[0, 0]
    world.apply_block_action(0, 0, -1)
    assert world.blocks[0, 0] == 200
    world.reset_episode(equal_blocks=False)
    assert not world.frozen[0, 0] and world.blocks[0, 0] == 0


def test_observations_bounded_and_padded(world_factory):
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 29700, (8, 2))
    labels = np.array([0] * 5 + [1] * 3)
    world = world_factory(pts, labels)
    world.reset_episode(equal_blocks=True)
    world.evaluate(0, 0)
    obs = world.maddpg_obs()
    cfg = world.cfg
    assert obs.shape == (cfg.k_max, cfg.obs_dim)
    assert np.all(np.isfinite(obs))
    assert np.all(obs >= -1.0) and np.all(obs <= 1.0)
    # inactive agents and padding slots are zero
    assert np.all(obs[2:] == 0.0)
    assert np.all(obs[0, 1 + world.n_slots[0]: 1 + cfg.slots] == 0.0)
    js, ss = np.nonzero(world.mask)
    dq = world.dqn_obs(obs, js, ss)
    assert dq.shape == (8, cfg.dqn_obs_dim)
    assert np.all(np.isfinite(dq)) and np.all(dq >= -1.0) and np.all(dq <= 1.0)
    assert np.array_equal(dq[:, :cfg.obs_dim], obs[js])
    assert np.array_equal(dq[:, -3], world.power[js, ss] / cfg.p_max)


def test_constraint_audit_clean(world_factory):
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 29700, (10, 2))
    labels = rng.integers(0, 2, 10)
    labels[:2] = [0, 1]
    world = world_factory(pts, labels)
    world.reset_episode(equal_blocks=True)
    for j in world.active_idx:
        world.apply_maddpg_action(j, rng.normal(), rng.normal(0, 3, world.cfg.slots))
        for s in range(world.n_slots[j]):
            world.apply_block_action(j, s, int(rng.choice([-1, 1])))
    for t in range(10):
        world.evaluate(0, t)
    assert all(v == 0 for v in world.audit.values())


def test_applied_action_vector_matches_state(world_factory):
    world = world_factory([[0.0, 0.0], [600.0, 0.0]], [0, 0])
    world.reset_episode(equal_blocks=False)
    vec = world.apply_maddpg_action(0, 0.3, np.array([1.0, -1.0]))
    cfg = world.cfg
    assert vec.shape == (1 + cfg.slots,)
    assert vec[0] == pytest.approx((world.h[0] - cfg.h_min) / (cfg.h_max - cfg.h_min))
    assert vec[1:] == pytest.approx(world.power[0] / cfg.p_max)
    assert world.power[0].sum() == pytest.approx(cfg.p_max, abs=1e-9)


def test_interferer_power_modes(world_factory):
    pts = [[0.0, 0.0], [600.0, 0.0], [9000.0, 0.0], [9600.0, 0.0]]
    labels = [0, 0, 1, 1]
    world = world_factory(pts, labels)
    world.reset_episode(equal_blocks=True)
    # softmax-style full allocation: both definitions coincide at p_max/|C|
    budget = world.interferer_power()
    world.cfg.p_avg_mode = "allocated"
    allocated = world.interferer_power()
    assert budget == pytest.approx(allocated)
    assert budget == pytest.approx([0.5, 0.5])


def held_and_stepwise(make, episode, steps):
    """Evaluate steps held on one world and one call per step on a second world from make()."""
    held, stepwise = make(), make()
    out = held.evaluate(episode, np.asarray(steps))
    calls = [stepwise.evaluate(episode, t) for t in steps]
    for got, per_step in zip(out, zip(*calls)):
        assert len(got) == len(steps)
        for row, want in zip(got, per_step):
            assert np.array_equal(row, want)
    for name in ("served", "frozen", "power", "blocks", "h"):
        assert np.array_equal(getattr(held, name), getattr(stepwise, name)), name
    assert held.audit == stepwise.audit
    return held, out


@pytest.mark.parametrize("mode", ["budget", "allocated"])
def test_held_evaluation_matches_stepwise(mode):
    # padding slots, and UAVs 0 and 2 inactive below active ones
    pts = np.random.default_rng(11).uniform(0, 29700, (9, 2))
    labels = [0, 0, 0, 0, 1, 1, 1, 2, 2]
    steps = np.arange(40)

    def make(**kw):
        world = build_world(pts, labels, uavs=[3, 1, 4], seed=6, p_avg_mode=mode, **kw)
        world.reset_episode(equal_blocks=True)
        for j in world.active_idx:  # uneven splits, so the two p_avg modes differ
            world.apply_maddpg_action(j, 0.2 * j, np.linspace(-1.0, 1.0, world.cfg.slots))
        return world

    # a threshold at the median rate serves users at some steps and not at others
    r_th = float(np.median(make().evaluate(0, steps)[0]))
    world, (rates, flags, rewards, ue_rewards) = held_and_stepwise(
        lambda: make(r_th=r_th), 0, steps)
    assert rates.shape == flags.shape == ue_rewards.shape == (40, 9)
    assert rewards.shape == (40, world.cfg.k_max)
    assert np.array_equal(world.served[world.uav_of_ue, world.slot_of_ue], flags[-1])
    assert np.array_equal(world.frozen[world.uav_of_ue, world.slot_of_ue], flags.any(axis=0))
    assert (world.frozen & ~world.served).any() and world.served.any()
    assert not world.served[~world.mask].any() and not world.frozen[~world.mask].any()


def test_held_evaluation_counts_violations_per_step():
    # one UAV breaks each of C4-C7; a held evaluation of T steps counts T each
    pts = [[0.0, 0.0], [600.0, 0.0], [9000.0, 0.0], [9600.0, 0.0], [20000.0, 0.0]]

    def make():
        world = build_world(pts, [0, 0, 1, 1, 2], uavs=[2, 0, 3],
                            uav_xy=[[300.0, 0.0], [9300.0, 0.0], [-300.0, 0.0]])
        world.reset_episode(equal_blocks=True)
        world.power[2, 0] += 0.5                          # C4: over the power budget
        world.blocks[0, :2] = world.cfg.block_limit       # C5: over the block budget
        world.h[0] = world.cfg.h_max + 1.0                # C7: above the altitude band
        return world                                      # C6: UAV 3 outside the field

    world, _ = held_and_stepwise(make, 3, np.arange(5, 12))
    assert world.audit == {"C1": 0, "C4": 7, "C5": 7, "C6": 7, "C7": 7}


class NanAtOddSteps:
    """Fading whose odd-step draws give UE 0 NaN gains on every link."""

    def __init__(self, inner):
        self.inner = inner

    def draw(self, frame, episode, step):
        g, k = self.inner.draw(frame, episode, step)
        if step % 2:
            g[0] = k[0] = np.nan
        return g, k


def test_audit_counts_steps_with_a_non_finite_rate(world_factory):
    # UE 0's rate is NaN at 3 of 6 steps: a held call and six single calls count 3
    held, stepwise = (world_factory([[0.0, 0.0], [600.0, 0.0], [9000.0, 0.0]], [0, 0, 1])
                      for _ in range(2))
    for world in (held, stepwise):
        world.fading = NanAtOddSteps(world.fading)
        world.reset_episode(equal_blocks=True)
    rates = held.evaluate(0, np.arange(6))[0]
    for t in range(6):
        stepwise.evaluate(0, t)
    assert np.isnan(rates[1::2, 0]).all()
    assert np.isfinite(rates[::2]).all() and np.isfinite(rates[:, 1:]).all()
    assert held.audit == stepwise.audit == {"C1": 3, "C4": 0, "C5": 0, "C6": 0, "C7": 0}


def test_evaluate_rejects_empty_or_nested_steps(world_factory):
    world = world_factory([[0.0, 0.0], [600.0, 0.0]], [0, 0])
    world.reset_episode(equal_blocks=True)
    for bad in (np.arange(0), np.zeros((2, 2), dtype=int)):
        with pytest.raises(ValueError, match="step"):
            world.evaluate(0, bad)
    assert world.audit == {c: 0 for c in world.audit}
