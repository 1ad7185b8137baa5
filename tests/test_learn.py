"""Agents: action selection statistics, squashing gradients, TD updates."""

import hashlib

import numpy as np
import pytest

from uavcov.env import EnvConfig, masked_softmax
from uavcov.learn import (BLOCK_ACTIONS, Dqn, DqnPool, MaddpgLearner, ReplayBuffer,
                          TrainSchedule, dqn_select_action,
                          dqn_update, evaluate_frame_static,
                          maddpg_select_action, squash_gradient,
                          squash_raw_actions, td_error, train_frame)
from uavcov import nn
from uavcov.nn import Mlp

from conftest import build_world


def small_schedule(**kw):
    defaults = dict(episodes=2, steps_per_episode=10, batch_size=8,
                    buffer_capacity=64, warmup_transitions=8, update_interval=1,
                    hidden=(16, 16), lr=1e-3)
    defaults.update(kw)
    return TrainSchedule(**defaults)


def test_select_action_deterministic_at_zero_sigma():
    actor = Mlp([4, 8, 3], np.random.default_rng(0))
    obs = np.ones(4)
    a = maddpg_select_action(actor, obs, 0.0, None)
    b = maddpg_select_action(actor, obs, 0.0, None)
    assert np.array_equal(a, b)


def test_select_action_noise_statistics():
    actor = Mlp([4, 8, 3], np.random.default_rng(1))
    obs = np.ones(4)
    base = actor.forward(obs)
    rng = np.random.default_rng(2)
    draws = np.array([maddpg_select_action(actor, obs, 0.2, rng) for _ in range(10 ** 4)])
    assert np.allclose(draws.mean(axis=0), base, atol=0.01)
    assert np.allclose(draws.std(axis=0), 0.2, atol=0.01)


def test_select_action_same_seed_same_noise():
    actor = Mlp([4, 8, 3], np.random.default_rng(3))
    obs = np.zeros(4)
    seq1 = [maddpg_select_action(actor, obs, 0.5, np.random.default_rng(9)) for _ in range(1)]
    seq2 = [maddpg_select_action(actor, obs, 0.5, np.random.default_rng(9)) for _ in range(1)]
    assert np.array_equal(seq1[0], seq2[0])


def test_dqn_epsilon_one_uniform():
    qnet = Mlp([3, 8, 2], np.random.default_rng(4))
    rng = np.random.default_rng(5)
    picks = np.array([dqn_select_action(qnet, np.ones(3), 1.0, rng) for _ in range(10 ** 5)])
    frac = (picks == 0).mean()
    assert abs(frac - 0.5) < 0.01


def test_dqn_greedy_and_tie_rule():
    qnet = Mlp([2, 4, 2], np.random.default_rng(6))
    for p in qnet.params:
        p[...] = 0.0
    qnet.biases[-1][...] = [0.9, 0.1]
    assert dqn_select_action(qnet, np.zeros(2), 0.0, None) == 0
    qnet.biases[-1][...] = [0.4, 0.4]
    assert dqn_select_action(qnet, np.zeros(2), 0.0, None) == 0  # tie -> +1
    assert BLOCK_ACTIONS[0] == 1 and BLOCK_ACTIONS[1] == -1


def test_squash_actions_feasible():
    rng = np.random.default_rng(7)
    mask = np.array([True, True, True, False, False])
    raw = rng.normal(0, 3, (6, 1 + 5))
    sq = squash_raw_actions(raw, mask, 5, bw_head=False)
    assert np.all(sq[:, 0] >= 0.0) and np.all(sq[:, 0] <= 1.0)
    assert np.allclose(sq[:, 1:].sum(axis=1), 1.0)
    assert np.all(sq[:, 4:6] == 0.0)


def test_squash_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    slots = 4
    mask = np.array([True, True, True, False])
    for bw_head in (False, True):
        dim = 1 + slots * (2 if bw_head else 1)
        raw = rng.normal(0, 1.5, (1, dim))
        v = rng.normal(size=(1, dim))  # random linear functional of the squashed action

        def f(r):
            return float((squash_raw_actions(r, mask, slots, bw_head) * v).sum())

        sq = squash_raw_actions(raw, mask, slots, bw_head)
        analytic = squash_gradient(raw, sq, v, mask, slots, bw_head)
        h = 1e-6
        for i in range(dim):
            rp, rm = raw.copy(), raw.copy()
            rp[0, i] += h
            rm[0, i] -= h
            num = (f(rp) - f(rm)) / (2 * h)
            assert analytic[0, i] == pytest.approx(num, rel=1e-4, abs=1e-9)


def test_masked_softmax_batch_stability():
    mask = np.array([True, True])
    z = np.array([[1000.0, 999.0]])
    out = masked_softmax(z, mask)
    assert np.isfinite(out).all()
    assert out.sum() == pytest.approx(1.0)


def two_ue_world(seed=0):
    return build_world([[0.0, 0.0], [600.0, 0.0]], [0, 0], seed=seed)


def test_warmup_blocks_updates():
    world = two_ue_world()
    sch = small_schedule(episodes=1, steps_per_episode=1, warmup_transitions=8)
    maddpg = MaddpgLearner(world.cfg, sch, np.random.default_rng(0))
    before = [p.copy() for p in maddpg.actors[0].params]
    train_frame(world, maddpg, None, sch, np.random.default_rng(1), 0, 1)
    assert len(maddpg.buffer) == 1
    for b, p in zip(before, maddpg.actors[0].params):
        assert np.array_equal(b, p)
    assert maddpg.update(world, np.random.default_rng(2)) == {}


def test_zero_lr_update_is_noop():
    world = two_ue_world()
    sch = small_schedule(lr=0.0, warmup_transitions=8, batch_size=8)
    maddpg = MaddpgLearner(world.cfg, sch, np.random.default_rng(0))
    world.reset_episode(equal_blocks=True)
    obs = world.maddpg_obs()
    act = np.zeros((world.cfg.k_max, maddpg.act_dim))
    for _ in range(10):
        maddpg.store(obs, act, np.zeros(world.cfg.k_max), obs, False)
    before = [p.copy() for p in maddpg.actors[0].params + maddpg.critics[0].params]
    losses = maddpg.update(world, np.random.default_rng(1))
    assert losses
    after = maddpg.actors[0].params + maddpg.critics[0].params
    for b, p in zip(before, after):
        assert np.array_equal(b, p)


def test_critic_bandit_constant_reward():
    # gamma = 0, reward always 1 at a fixed state-action: Q -> 1
    world = two_ue_world()
    sch = small_schedule(gamma=0.0, lr=1e-3, batch_size=16, warmup_transitions=16,
                         buffer_capacity=64)
    maddpg = MaddpgLearner(world.cfg, sch, np.random.default_rng(0))
    world.reset_episode(equal_blocks=True)
    obs = world.maddpg_obs()
    act = np.zeros((world.cfg.k_max, maddpg.act_dim))
    act[0, 0] = 0.5
    act[0, 1:3] = 0.5
    rew = np.zeros(world.cfg.k_max)
    rew[0] = 1.0
    for _ in range(32):
        maddpg.store(obs, act, rew, obs, True)
    rng = np.random.default_rng(1)
    for _ in range(2000):
        maddpg.update(world, rng)
    x = np.concatenate([obs.ravel(), act.ravel()])[None, :]
    q = maddpg.critics[0].forward(x)[0, 0]
    assert q == pytest.approx(1.0, abs=0.05)


def test_dqn_bandit_deterministic_rewards():
    # gamma = 0, fixed state, r(a0)=1.0, r(a1)=0.3: Q converges to the rewards
    sch = small_schedule(gamma=0.0, lr=1e-3, batch_size=16)
    rng = np.random.default_rng(2)
    dqn = Dqn(Mlp([2, 16, 16, 2], rng), sch.lr)
    buf = ReplayBuffer(64, {"state": 2, "action": 1, "reward": 1, "next_state": 2, "done": 1})
    state = np.array([0.25, 0.0])
    for i in range(32):
        a = i % 2
        buf.add(state=state, action=a, reward=1.0 if a == 0 else 0.3,
                next_state=state, done=1.0)
    for _ in range(2000):
        dqn_update(dqn, buf.sample(16, rng), sch)
    q = dqn.net.forward(state)
    assert q[0] == pytest.approx(1.0, abs=0.05)
    assert q[1] == pytest.approx(0.3, abs=0.05)


def test_dqn_terminal_excludes_bootstrap():
    sch = small_schedule(gamma=0.9, lr=5e-3, batch_size=8)
    rng = np.random.default_rng(3)
    dqn = Dqn(Mlp([2, 8, 2], rng), sch.lr)
    net, target = dqn.net, dqn.target
    # pump the target high; terminal transitions must ignore it
    for p in target.params:
        p[...] = 0.0
    target.biases[-1][...] = [100.0, 100.0]
    buf = ReplayBuffer(16, {"state": 2, "action": 1, "reward": 1, "next_state": 2, "done": 1})
    state = np.array([0.5, 0.0])
    for _ in range(8):
        buf.add(state=state, action=0, reward=0.0, next_state=state, done=1.0)
    for _ in range(500):
        batch = buf.sample(8, rng)
        # keep the target frozen at its sentinel to expose any bootstrap leak
        snapshot = [p.copy() for p in target.params]
        dqn_update(dqn, batch, sch)
        for p, s in zip(target.params, snapshot):
            p[...] = s
    assert net.forward(state)[0] == pytest.approx(0.0, abs=0.05)


def test_dqn_zero_rewards_zero_loss():
    sch = small_schedule(gamma=0.9, batch_size=8)
    rng = np.random.default_rng(4)
    net = Mlp([2, 8, 2], rng)
    for p in net.params:
        p[...] = 0.0
    dqn = Dqn(net, sch.lr)
    buf = ReplayBuffer(16, {"state": 2, "action": 1, "reward": 1, "next_state": 2, "done": 1})
    for _ in range(8):
        buf.add(state=np.zeros(2), action=0, reward=0.0, next_state=np.zeros(2), done=0.0)
    loss = dqn_update(dqn, buf.sample(8, rng), sch)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_dqn_update_bytes_pinned():
    # fifty single-link TD steps on a non-zero head: the online and target
    # parameters, the Adam moments and the losses, byte for byte
    sch = small_schedule(gamma=0.9, tau=0.05, lr=1e-3, batch_size=16)
    rng = np.random.default_rng(5)
    dqn = Dqn(Mlp([2, 16, 16, 2], rng), sch.lr)
    buf = ReplayBuffer(64, {"state": 2, "action": 1, "reward": 1, "next_state": 2, "done": 1})
    for i in range(64):
        buf.add(state=rng.uniform(size=2), action=i % 2, reward=float(rng.random() < 0.3),
                next_state=rng.uniform(size=2), done=float(rng.random() < 0.2))
    losses = [dqn_update(dqn, buf.sample(16, rng), sch) for _ in range(50)]
    blob = b"".join(a.tobytes() for a in (dqn.net.flat, dqn.target.flat, dqn.opt.m,
                                          dqn.opt.v, np.array(losses)))
    assert hashlib.sha256(blob).hexdigest() == (
        "48f5af35a079d1f39a2bcb6c15424cfc5e2c137e86d2da5dfb4bddb5bfecd5a2")


def test_dqn_pair_rows_are_the_target_and_the_net():
    init = Mlp([2, 4, 2], np.random.default_rng(6))
    dqn = Dqn(init, 1e-3)
    assert dqn.pair.shape == (2, init.flat.size)
    assert np.shares_memory(dqn.target.flat, dqn.pair[0])
    assert np.shares_memory(dqn.net.flat, dqn.pair[1])
    assert np.shares_memory(dqn.opt.params, dqn.pair[1])
    assert not np.shares_memory(dqn.pair, init.flat)
    assert np.array_equal(dqn.pair[0], init.flat) and np.array_equal(dqn.pair[1], init.flat)


def test_train_frame_smoke_and_determinism():
    sch = small_schedule(episodes=3, steps_per_episode=20, warmup_transitions=16,
                         batch_size=8, update_interval=2)
    records = []
    for _ in range(2):
        world = build_world([[0.0, 0.0], [600.0, 0.0], [9000.0, 300.0]], [0, 0, 1], seed=3)
        maddpg = MaddpgLearner(world.cfg, sch, np.random.default_rng(7))
        dqns = DqnPool(world.cfg, sch, np.random.default_rng(8))
        recs = train_frame(world, maddpg, dqns, sch, np.random.default_rng(9), 0,
                           sch.episodes * sch.steps_per_episode)
        committed = world.committed_total()
        records.append((recs, committed, int(world.blocks.sum())))
        assert len(recs) == 3
        assert all(0.0 <= r.mean_reward <= world.cfg.n_ues for r in recs)
        assert all(0.0 <= r.mean_search_steps <= sch.steps_per_episode for r in recs)
        assert all(0 <= r.committed <= world.cfg.n_ues for r in recs)
        assert committed == recs[-1].committed
    assert records[0][0] == records[1][0]
    assert records[0][1:] == records[1][1:]


def test_evaluate_frame_static_keeps_reset_allocation():
    world = two_ue_world(seed=11)
    sch = small_schedule(episodes=2, steps_per_episode=5)
    served = evaluate_frame_static(world, sch, sch.steps_per_episode)
    assert world.h[0] == pytest.approx(650.0)
    assert np.allclose(world.power[0, :2], 0.5)
    assert world.blocks[0, :2].tolist() == [100, 100]
    assert served == world.committed_total()
    assert 0 <= served <= 2


def test_dqn_pool_lazy_and_persistent():
    cfg = EnvConfig(n_ues=4)
    sch = small_schedule()
    pool = DqnPool(cfg, sch, np.random.default_rng(0))
    buffer = pool.buffer
    assert buffer._data["state"].shape == (cfg.n_ues, 20, cfg.dqn_obs_dim)
    states = np.zeros((2, cfg.dqn_obs_dim))
    rows = np.array([cfg.slots + 1, 1])
    pool.select_many(rows, states, 0.0, None)
    assert pool.stack.initialized.nonzero()[0].tolist() == [1, cfg.slots + 1]
    # rows are initialized in selection order
    ref = DqnPool(cfg, sch, np.random.default_rng(0))
    for row in rows.tolist():
        ref.stack.init_row(row, ref.init_rng)
    assert np.array_equal(ref.stack.weights[0], pool.stack.weights[0])
    buffer.add_rows(np.array([3]), state=states[:1], action=[0], reward=[0.0],
                    next_state=states[:1], done=[0.0])
    assert buffer._size.tolist() == [0, 0, 0, 1]
    buffer.clear()
    assert not buffer._size.any()
    init_state = pool.init_rng.bit_generator.state
    pool.select_many(rows[:1], states[:1], 0.0, None)
    assert pool.init_rng.bit_generator.state == init_state  # the row is not re-drawn
    assert pool.buffer is buffer
    assert pool.stack.initialized.nonzero()[0].tolist() == [1, cfg.slots + 1]


def test_stacked_qnets_match_single_nets():
    # a stacked update on two rows must equal two independent Mlp updates
    from uavcov.learn import StackedQnets, zero_head_mlp
    sch = small_schedule(gamma=0.9, lr=1e-3, tau=0.05)
    dims = [3, 8, 8, 2]
    rng = np.random.default_rng(0)
    stack = StackedQnets(4, dims, sch.lr)
    singles = []
    for row in (1, 3):
        rng_i = np.random.default_rng(100 + row)
        stack.init_row(row, rng_i)
        net = zero_head_mlp(dims, np.random.default_rng(100 + row))
        dqn = Dqn(net, sch.lr)
        singles.append({"net": dqn.net, "target": dqn.target, "dqn": dqn})
        for li in range(len(net.weights)):
            assert np.array_equal(stack.weights[li][row], net.weights[li])

    data_rng = np.random.default_rng(7)
    batch = {
        "state": data_rng.normal(size=(2, 6, 3)),
        "action": data_rng.integers(0, 2, size=(2, 6, 1)).astype(float),
        "reward": data_rng.normal(size=(2, 6, 1)),
        "next_state": data_rng.normal(size=(2, 6, 3)),
        "done": data_rng.integers(0, 2, size=(2, 6, 1)).astype(float),
    }
    idx = np.array([1, 3])
    x = data_rng.normal(size=(2, 3))
    q_stack = stack.q_values(idx, x)
    for r, ent in enumerate(singles):
        assert np.array_equal(q_stack[r], ent["net"].forward(x[r]))
    for _ in range(12):
        stack.update(idx, batch, sch.gamma, sch.tau)
        for r, ent in enumerate(singles):
            single_batch = {k: v[r] for k, v in batch.items()}
            dqn_update(ent["dqn"], single_batch, sch)
    for r, (row, ent) in enumerate(zip((1, 3), singles)):
        for li in range(len(ent["net"].weights)):
            assert np.array_equal(stack.weights[li][row], ent["net"].weights[li])
            assert np.array_equal(stack.t_weights[li][row], ent["target"].weights[li])
            assert np.array_equal(stack.biases[li][row], ent["net"].biases[li])


def test_stacked_qnets_float32_update_matches_float32_reference():
    # the DQN pool's float32 stack: every update step, Adam's bias corrections
    # included, stays in float32 and equals the nn kernels run on one row
    from uavcov.learn import StackedQnets
    sch = small_schedule(gamma=0.9, lr=1e-3, tau=0.05)
    dims = [3, 8, 8, 2]
    stack = StackedQnets(4, dims, sch.lr, dtype=np.float32)
    idx = np.array([3, 1])
    for row in idx:
        stack.init_row(row, np.random.default_rng(100 + row))
    n = len(stack.weights)
    refs = [{"p": [p[row].copy() for p in stack.weights + stack.biases],
             "t": [t[row].copy() for t in stack.t_weights + stack.t_biases],
             "m": [np.zeros_like(p[row]) for p in stack.m],
             "v": [np.zeros_like(v[row]) for v in stack.v]} for row in idx]
    data_rng = np.random.default_rng(9)
    batch = {
        "state": data_rng.normal(size=(2, 6, 3)),
        "action": data_rng.integers(0, 2, size=(2, 6, 1)),
        "reward": data_rng.normal(size=(2, 6, 1)),
        "next_state": data_rng.normal(size=(2, 6, 3)),
        "done": data_rng.integers(0, 2, size=(2, 6, 1)),
    }
    batch = {k: v.astype(np.float32) for k, v in batch.items()}
    for step in range(1, 4):
        stack.update(idx, batch, sch.gamma, sch.tau)
        b1t = np.float32(1.0 - nn.BETA1 ** step)
        b2t = np.float32(1.0 - nn.BETA2 ** step)
        for r, ref in enumerate(refs):
            row_batch = {k: v[r] for k, v in batch.items()}
            q_next = nn.forward(ref["t"][:n], ref["t"][n:], row_batch["next_state"])
            acts = []
            q = nn.forward(ref["p"][:n], ref["p"][n:], row_batch["state"], acts)
            _, grad_out = td_error(q, q_next, row_batch, sch.gamma)
            grad, _ = nn.backward(ref["p"][:n], acts, grad_out)
            grads = nn.param_views(grad, dims)
            for p, g, m, v, t in zip(ref["p"], grads[0::2] + grads[1::2], ref["m"], ref["v"],
                                     ref["t"]):
                nn.adam_update(p, g, m, v, b1t, b2t, sch.lr)
                nn.blend(t, p, sch.tau)
    stacked = {"p": stack.weights + stack.biases, "t": stack.t_weights + stack.t_biases,
               "m": stack.m, "v": stack.v}
    for kind, arrays in stacked.items():
        assert all(a.dtype == np.float32 for a in arrays), kind
        for r, row in enumerate(idx):
            for a, want in zip(arrays, refs[r][kind]):
                assert want.dtype == np.float32
                assert np.array_equal(a[row], want), (kind, row)


def test_stacked_qnets_gradients_match_finite_differences():
    from uavcov.learn import StackedQnets
    rng = np.random.default_rng(1)
    dims = [3, 5, 2]
    stack = StackedQnets(2, dims, lr=0.0)
    for row in range(2):
        stack.init_row(row, rng)
        stack.weights[-1][row] = rng.normal(0, 0.3, size=stack.weights[-1][row].shape)
        stack.biases[-1][row] = rng.normal(0, 0.3, size=2)
    idx = np.array([0, 1])
    batch = {
        "state": rng.normal(size=(2, 4, 3)),
        "action": rng.integers(0, 2, size=(2, 4, 1)).astype(float),
        "reward": rng.normal(size=(2, 4, 1)),
        "next_state": rng.normal(size=(2, 4, 3)),
        "done": np.ones((2, 4, 1)),
    }

    def rows():
        return ([w[idx] for w in stack.weights],
                [b[idx][:, None, :] for b in stack.biases])

    def td_loss():
        q = nn.forward(*rows(), batch["state"])
        a = batch["action"][..., 0].astype(int)
        taken = q[np.arange(2)[:, None], np.arange(4)[None, :], a]
        y = batch["reward"][..., 0]  # done=1 everywhere: no bootstrap
        return float(np.sum((taken - y) ** 2) / 4)

    # lr 0 so update() computes gradients without moving; recompute them here
    # by finite differences of the same loss, entry by entry of the flat store
    h = 1e-6
    numeric = np.zeros_like(stack.flat)
    for i in np.ndindex(stack.flat.shape):
        orig = stack.flat[i]
        stack.flat[i] = orig + h
        lp = td_loss()
        stack.flat[i] = orig - h
        lm = td_loss()
        stack.flat[i] = orig
        numeric[i] = (lp - lm) / (2 * h)

    # the analytic gradients as update() computes them: td_error, then nn.backward
    acts = []
    weights, biases = rows()
    q = nn.forward(weights, biases, batch["state"], acts)
    a = batch["action"][..., 0].astype(int)
    y = batch["reward"][..., 0]
    td = q[np.arange(2)[:, None], np.arange(4)[None, :], a] - y
    grad_out = np.zeros_like(q)
    grad_out[np.arange(2)[:, None], np.arange(4)[None, :], a] = 2.0 * td / 4
    td_learn, grad_learn = td_error(q, q, batch, 0.9)
    assert np.array_equal(td_learn, td) and np.array_equal(grad_learn, grad_out)
    grad, _ = nn.backward(weights, acts, grad_out)
    for analytic, num in zip(nn.param_views(grad, dims), nn.param_views(numeric, dims)):
        denom = np.maximum(np.abs(num), 1e-6)
        assert np.max(np.abs(analytic - num) / denom) < 1e-4


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    from uavcov.learn import load_checkpoint, save_checkpoint
    sch = small_schedule()
    world = two_ue_world(seed=21)
    maddpg = MaddpgLearner(world.cfg, sch, np.random.default_rng(0))
    dqns = DqnPool(world.cfg, sch, np.random.default_rng(1))
    train_frame(world, maddpg, dqns, sch, np.random.default_rng(2), 0,
                sch.episodes * sch.steps_per_episode)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, maddpg, dqns, {"frame": 3})
    path2 = str(tmp_path / "ck2.bin")
    save_checkpoint(path2, maddpg, dqns, {"frame": 3})
    assert open(path, "rb").read() == open(path2, "rb").read()

    snapshot = [p.copy() for p in maddpg.actors[0].params]
    t_snapshot = maddpg.actor_opts[0].t
    stack_snapshot = dqns.stack.weights[0].copy()
    # mutate, then restore
    for p in maddpg.actors[0].params:
        p += 1.0
    maddpg.actor_opts[0].t = 999
    dqns.stack.weights[0][...] += 0.5
    counters = load_checkpoint(path, maddpg, dqns)
    assert counters == {"frame": 3}
    for a, b in zip(snapshot, maddpg.actors[0].params):
        assert np.array_equal(a, b)
    assert maddpg.actor_opts[0].t == t_snapshot
    assert np.array_equal(stack_snapshot, dqns.stack.weights[0])


def test_checkpoint_restores_identical_continuation(tmp_path):
    from uavcov.learn import load_checkpoint, save_checkpoint
    sch = small_schedule(episodes=2, steps_per_episode=15, warmup_transitions=8)
    path = str(tmp_path / "ck.bin")

    def fresh():
        world = build_world([[0.0, 0.0], [600.0, 0.0], [9000.0, 300.0]], [0, 0, 1], seed=3)
        maddpg = MaddpgLearner(world.cfg, sch, np.random.default_rng(7))
        dqns = DqnPool(world.cfg, sch, np.random.default_rng(8))
        return world, maddpg, dqns

    world, maddpg, dqns = fresh()
    train_frame(world, maddpg, dqns, sch, np.random.default_rng(9), 0, 1000)
    save_checkpoint(path, maddpg, dqns)
    # continue directly
    world2 = build_world([[0.0, 0.0], [600.0, 0.0], [9000.0, 300.0]], [0, 0, 1], seed=3)
    maddpg.buffer.clear()
    dqns.buffer.clear()
    train_frame(world2, maddpg, dqns, sch, np.random.default_rng(10), 0, 1000)
    direct = [p.copy() for p in maddpg.actors[0].params] + [dqns.stack.weights[0].copy()]
    # reload into a fresh learner and continue identically
    worldb, maddpgb, dqnsb = fresh()
    # the same init_rng draws: the first selection covers every row in order
    for row in np.flatnonzero(dqns.stack.initialized).tolist():
        dqnsb.stack.init_row(row, dqnsb.init_rng)
    load_checkpoint(path, maddpgb, dqnsb)
    worldb2 = build_world([[0.0, 0.0], [600.0, 0.0], [9000.0, 300.0]], [0, 0, 1], seed=3)
    maddpgb.buffer.clear()
    dqnsb.buffer.clear()
    train_frame(worldb2, maddpgb, dqnsb, sch, np.random.default_rng(10), 0, 1000)
    resumed = [p.copy() for p in maddpgb.actors[0].params] + [dqnsb.stack.weights[0].copy()]
    for a, b in zip(direct, resumed):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_mismatch(tmp_path):
    from uavcov.learn import load_checkpoint, save_checkpoint
    sch = small_schedule()
    world = two_ue_world(seed=22)
    maddpg = MaddpgLearner(world.cfg, sch, np.random.default_rng(0))
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, maddpg, None)
    other_cfg = EnvConfig(n_ues=5)
    other = MaddpgLearner(other_cfg, sch, np.random.default_rng(0))
    with pytest.raises(ValueError):
        load_checkpoint(path, other, None)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    with pytest.raises(ValueError):
        load_checkpoint(str(bad), maddpg, None)


def test_training_discovers_served_state_quickly():
    # one UE directly under one UAV at high SNR: the block search finds a
    # served state within 5 episodes on every seed
    sch = small_schedule(episodes=5, steps_per_episode=60, warmup_transitions=16,
                         batch_size=8, eps_frac=0.5)
    for seed in (0, 1, 2):
        world = build_world([[0.0, 0.0]], [0], uav_xy=[[0.0, 0.0]], seed=seed)
        maddpg = MaddpgLearner(world.cfg, sch, np.random.default_rng(100 + seed))
        dqns = DqnPool(world.cfg, sch, np.random.default_rng(200 + seed))
        recs = train_frame(world, maddpg, dqns, sch, np.random.default_rng(300 + seed),
                           0, sch.episodes * sch.steps_per_episode)
        assert any(r.committed >= 1 for r in recs), f"seed {seed} never served"


def test_maddpg_critic_terminal_excludes_bootstrap():
    world = two_ue_world(seed=31)
    sch = small_schedule(gamma=0.9, lr=2e-3, batch_size=16, warmup_transitions=16,
                         buffer_capacity=64)
    maddpg = MaddpgLearner(world.cfg, sch, np.random.default_rng(0))
    world.reset_episode(equal_blocks=True)
    obs = world.maddpg_obs()
    act = np.zeros((world.cfg.k_max, maddpg.act_dim))
    # fixed transition, zero reward, terminal: y must be 0 however inflated
    # the frozen target critic is
    for p in maddpg.critic_targets[0].params:
        p[...] = 0.0
    maddpg.critic_targets[0].biases[-1][...] = 50.0
    for _ in range(32):
        maddpg.store(obs, act, np.zeros(world.cfg.k_max), obs, True)
    rng = np.random.default_rng(1)
    for _ in range(600):
        snapshot = [p.copy() for p in maddpg.critic_targets[0].params]
        maddpg.update(world, rng)
        for p, s in zip(maddpg.critic_targets[0].params, snapshot):
            p[...] = s
    x = np.concatenate([obs.ravel(), act.ravel()])[None, :]
    q = maddpg.critics[0].forward(x)[0, 0]
    assert q == pytest.approx(0.0, abs=0.05)
