"""Property tests: random action sequences on small, awkward frame worlds.

Worlds cover k* = 1, singleton clusters, one or two users, clusters of exactly
max_cluster_size and active UAVs that are not the lowest indices. Every
vectorized reduction of FrameWorld relies on padding slots and inactive UAVs
staying zero (False), so that invariant is checked after every operation.
The replay test runs each held multi-step evaluation one step at a time on a
second world and requires the same results and state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uavcov.channel import EnvConstants, FadingField
from uavcov.clustering import ClusterPlan
from uavcov.env import EnvConfig, FrameWorld

from conftest import apply_raw

FIELD_M = 99 * 300.0
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def worlds(draw, max_ues=7):
    """Keyword arguments of build(): a clustering of 1 to max_ues users onto UAV slots."""
    n_ues = draw(st.integers(1, max_ues))
    k_max = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(n_ues, k_max)))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n_ues - k, max_size=n_ues - k))
    labels = np.array(draw(st.permutations(list(range(k)) + extra)), dtype=np.int64)
    uavs = draw(st.permutations(range(k_max)))[:k]
    tight = draw(st.booleans())
    return dict(n_ues=n_ues, k_max=k_max, labels=labels, uavs=list(uavs),
                max_cluster_size=int(np.bincount(labels).max()) if tight else 0,
                seed=draw(st.integers(0, 2 ** 16)))


def build(n_ues, k_max, labels, uavs, max_cluster_size, seed) -> FrameWorld:
    cfg = EnvConfig(n_ues=n_ues, k_max=k_max, max_cluster_size=max_cluster_size)
    pts = np.random.default_rng(seed).uniform(0.0, FIELD_M, (n_ues, 2))
    k = len(uavs)
    centroids = np.array([pts[labels == c].mean(axis=0) for c in range(k)])
    plan = ClusterPlan(k_star=k, assignment=labels, centroids=centroids,
                       silhouette_mean=0.0, active_uavs=uavs)
    fading = FadingField(seed, EnvConstants(), n_ues, k_max)
    return FrameWorld(cfg, EnvConstants(), pts, plan, fading, 0, (FIELD_M, FIELD_M))


logit = st.floats(-30.0, 30.0, allow_nan=False)
operations = st.lists(st.one_of(
    st.tuples(st.just("maddpg"), st.integers(0, 6), logit,
              st.lists(logit, min_size=7, max_size=7), st.booleans()),
    st.tuples(st.just("block"), st.integers(0, 6), st.integers(0, 6), st.sampled_from((1, -1))),
    st.tuples(st.just("evaluate"), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just("held"), st.integers(0, 3),
              st.lists(st.integers(0, 5), min_size=1, max_size=4)),
    st.tuples(st.just("reset"), st.booleans()),
), max_size=30)


def apply(world: FrameWorld, op):
    """Run one operation; returns what it returned, for the replay comparison."""
    act = world.active_idx
    if op[0] == "maddpg":
        # UAV j's outputs are [alt, z(, -z)], the logits z rolled by jj + j
        _, jj, alt, logits, bw = op
        z = np.array(logits[: world.cfg.slots])
        raw = np.array([np.concatenate([[alt], np.roll(z, jj + j)])
                        for j in range(world.cfg.k_max)])
        if bw:
            raw = np.concatenate([raw, -raw[:, 1:]], axis=1)
        return apply_raw(world, raw)
    if op[0] == "block":
        _, jj, ss, action = op
        j = act[jj % len(act)]
        return world.apply_block_action(j, ss % world.n_slots[j], action)
    if op[0] == "evaluate":
        return world.evaluate(op[1], op[2])
    if op[0] == "held":
        return world.evaluate(op[1], np.array(op[2]))
    return world.reset_episode(equal_blocks=op[1])


def replay(world: FrameWorld, op):
    """Run one operation, a held evaluation as one call per step, stacked like the held result."""
    if op[0] != "held":
        return apply(world, op)
    calls = [world.evaluate(op[1], t) for t in op[2]]
    return tuple(np.stack(per_step) for per_step in zip(*calls))


def check_invariants(world: FrameWorld):
    cfg = world.cfg
    act = world.active_idx
    pad = ~world.mask
    inactive = np.setdiff1d(np.arange(cfg.k_max), act)
    assert all(v == 0 for v in world.audit.values()), world.audit
    # budgets
    assert np.all(world.power >= 0.0) and np.all(world.blocks >= 0)
    assert np.all(world.power[act].sum(axis=1) <= cfg.p_max + 1e-9)
    assert np.all(world.blocks.sum(axis=1) <= cfg.block_limit)
    # padding slots and inactive UAVs stay zero / False in every array
    assert np.all(world.power[pad] == 0.0) and np.all(world.blocks[pad] == 0)
    assert not world.served[pad].any() and not world.frozen[pad].any()
    assert np.all(world.h[inactive] == 0.0) and np.all(world.xy[inactive] == 0.0)
    assert np.all(world.maddpg_obs()[inactive] == 0.0)
    assert np.array_equal(world.n_slots, world.mask.sum(axis=1))
    # serve-and-freeze bookkeeping
    assert not (world.served & ~world.frozen).any()
    assert world.committed_total() == np.count_nonzero(world.frozen & world.mask)
    assert world.served.sum() == np.count_nonzero(world.served & world.mask)
    assert sum(world.committed_per_agent()) == world.committed_total()


@PROPERTY_SETTINGS
@given(spec=worlds(), ops=operations)
def test_random_action_sequences_keep_invariants(spec, ops):
    world = build(**spec)
    assert np.array_equal(np.sort(world.slot_ues[world.mask]), np.arange(spec["n_ues"]))
    assert np.array_equal(world.slot_ues[world.uav_of_ue, world.slot_of_ue],
                          np.arange(spec["n_ues"]))
    world.reset_episode(equal_blocks=True)
    check_invariants(world)
    for op in ops:
        apply(world, op)
        check_invariants(world)


@PROPERTY_SETTINGS
@given(spec=worlds(), ops=operations)
def test_random_action_sequences_replay_identically(spec, ops):
    # b replays each held evaluation one step at a time
    a, b = build(**spec), build(**spec)
    for world in (a, b):
        world.reset_episode(equal_blocks=False)
    for op in ops:
        out_a, out_b = apply(a, op), replay(b, op)
        if isinstance(out_a, tuple):
            for x, y in zip(out_a, out_b):
                assert np.array_equal(x, y)
        elif out_a is not None:
            assert np.array_equal(out_a, out_b)
    for name in ("h", "xy", "power", "blocks", "served", "frozen"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.audit == b.audit


def sequential_clamp(world: FrameWorld, j: int, s: int, action: int):
    """Reference: one slot's clamped block action, reading slots moved before it."""
    if world.frozen[j, s]:
        return
    row = world.blocks[j]
    remaining = world.cfg.block_limit - (int(row.sum()) - int(row[s]))
    row[s] = min(max(int(row[s]) + int(action), 0), remaining)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(spec=worlds(max_ues=24), data=st.data())
def test_block_actions_over_slots_match_the_sequential_clamp(spec, data):
    a, b = build(**spec), build(**spec)
    limit = a.cfg.block_limit
    js, ss = np.nonzero(a.mask)
    small = data.draw(st.lists(st.integers(0, 2), min_size=js.size, max_size=js.size))
    blocks = np.zeros_like(a.blocks)
    blocks[js, ss] = small
    for j in a.active_idx:
        # a UAV near its budget puts the rest of it on one slot
        if data.draw(st.booleans()):
            s = data.draw(st.integers(0, a.n_slots[j] - 1))
            headroom = data.draw(st.integers(0, 3))
            blocks[j, s] += max(0, limit - headroom - blocks[j].sum())
    frozen = np.zeros_like(a.frozen)
    frozen[js, ss] = data.draw(st.lists(st.booleans(), min_size=js.size, max_size=js.size))
    chosen = np.array(data.draw(st.lists(st.booleans(), min_size=js.size, max_size=js.size)),
                      dtype=bool)
    actions = np.array(data.draw(st.lists(st.sampled_from((1, -1)), min_size=js.size,
                                          max_size=js.size)), dtype=np.int64)[chosen]
    for world in (a, b):
        world.blocks[...] = blocks
        world.frozen[...] = frozen
    a.apply_block_action(js[chosen], ss[chosen], actions)
    for j, s, action in zip(js[chosen], ss[chosen], actions):
        sequential_clamp(b, j, s, action)
    assert np.array_equal(a.blocks, b.blocks)
    assert np.all(a.blocks.sum(axis=1) <= limit)
