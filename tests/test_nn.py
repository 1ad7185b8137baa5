"""Network forward/gradient correctness, optimizer behavior, replay sampling."""

import numpy as np
import pytest

from uavcov.learn import ReplayBuffer
from uavcov.nn import Adam, Mlp, soft_update


def hand_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Independent matrix-by-hand evaluation used as a duplicate oracle."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    for i in range(len(net.weights)):
        z = np.zeros((a.shape[0], net.weights[i].shape[1]))
        for row in range(a.shape[0]):
            for col in range(net.weights[i].shape[1]):
                z[row, col] = float(np.dot(a[row], net.weights[i][:, col])) + net.biases[i][col]
        a = np.maximum(z, 0.0) if i < len(net.weights) - 1 else z
    return a


def finite_difference_grads(net: Mlp, x, target, h=1e-5):
    """Central differences of the half-squared-error loss for every parameter."""

    def loss():
        out = net.forward(x)
        return 0.5 * float(np.sum((out - target) ** 2))

    grads = []
    for p in net.params:
        g = np.zeros_like(p)
        flat = p.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss()
            flat[i] = orig - h
            lm = loss()
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * h)
        grads.append(g)
    return grads


def test_zero_net_outputs_zero():
    net = Mlp([4, 8, 3], np.random.default_rng(0))
    for p in net.params:
        p[...] = 0.0
    assert np.all(net.forward(np.ones(4)) == 0.0)


def test_identity_single_layer():
    net = Mlp([5, 5], np.random.default_rng(0))
    net.weights[0][...] = np.eye(5)
    net.biases[0][...] = 0.0
    x = np.random.default_rng(1).normal(size=5)
    assert np.allclose(net.forward(x), x)


def test_forward_matches_hand_evaluation():
    rng = np.random.default_rng(2)
    for dims in ([3, 7, 2], [5, 4, 4, 3], [2, 6, 1]):
        net = Mlp(dims, rng)
        x = rng.normal(size=(4, dims[0]))
        assert np.allclose(net.forward(x), hand_forward(net, x), atol=1e-12)


def test_forward_shape_check():
    net = Mlp([3, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.forward(np.ones(4))


def test_backward_requires_cache():
    net = Mlp([3, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.backward(None, np.ones((1, 2)))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for trial in range(8):
        dims = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 4)))] + [int(rng.integers(1, 4))]
        net = Mlp(dims, rng)
        x = rng.normal(size=(3, dims[0]))
        target = rng.normal(size=(3, dims[-1]))
        out, cache = net.forward_cached(x)
        analytic, _ = net.backward(cache, out - target)
        numeric = finite_difference_grads(net, x, target)
        for a, n in zip(analytic, numeric):
            denom = np.maximum(np.abs(n), 1e-6)
            assert np.max(np.abs(a - n) / denom) < 1e-4


def test_gradient_of_constant_loss_is_zero():
    net = Mlp([3, 4, 2], np.random.default_rng(4))
    _, cache = net.forward_cached(np.ones((2, 3)))
    grads, _ = net.backward(cache, np.zeros((2, 2)))
    assert all(np.all(g == 0.0) for g in grads)


def test_gradient_linearity_over_outputs():
    net = Mlp([3, 5, 2], np.random.default_rng(5))
    x = np.random.default_rng(6).normal(size=(1, 3))
    _, cache = net.forward_cached(x)
    g_sum, _ = net.backward(cache, np.ones((1, 2)))
    g0, _ = net.backward(cache, np.array([[1.0, 0.0]]))
    g1, _ = net.backward(cache, np.array([[0.0, 1.0]]))
    for gs, a, b in zip(g_sum, g0, g1):
        assert np.allclose(gs, a + b, atol=1e-12)


def test_input_gradient():
    net = Mlp([4, 6, 1], np.random.default_rng(7))
    x = np.random.default_rng(8).normal(size=(1, 4))
    _, cache = net.forward_cached(x)
    _, gin = net.backward(cache, np.ones((1, 1)))
    h = 1e-6
    for i in range(4):
        xp, xm = x.copy(), x.copy()
        xp[0, i] += h
        xm[0, i] -= h
        num = (net.forward(xp)[0, 0] - net.forward(xm)[0, 0]) / (2 * h)
        assert gin[0, i] == pytest.approx(num, rel=1e-5, abs=1e-8)


def test_adam_zero_gradient_no_move():
    net = Mlp([2, 2], np.random.default_rng(9))
    before = [p.copy() for p in net.params]
    opt = Adam(net.params, lr=0.1)
    opt.step(net.params, [np.zeros_like(p) for p in net.params])
    for b, p in zip(before, net.params):
        assert np.array_equal(b, p)


def test_adam_first_step_is_signed_lr():
    p = [np.array([1.0])]
    opt = Adam(p, lr=1e-3)
    opt.step(p, [np.array([42.0])])
    # bias-corrected first step: -lr * g / (|g| + ~eps)
    assert p[0][0] == pytest.approx(1.0 - 1e-3, rel=1e-6)
    p2 = [np.array([1.0])]
    opt2 = Adam(p2, lr=1e-3)
    opt2.step(p2, [np.array([-0.5])])
    assert p2[0][0] == pytest.approx(1.0 + 1e-3, rel=1e-6)


def test_adam_deterministic():
    rng = np.random.default_rng(10)
    grads = [rng.normal(size=3) for _ in range(5)]
    results = []
    for _ in range(2):
        p = [np.zeros(3)]
        opt = Adam(p, lr=0.01)
        for g in grads:
            opt.step(p, [g])
        results.append(p[0].copy())
    assert np.array_equal(results[0], results[1])


def test_soft_update():
    rng = np.random.default_rng(11)
    online = Mlp([3, 4, 2], rng)
    target = Mlp([3, 4, 2], rng)
    snapshot = [p.copy() for p in target.params]
    soft_update(target, online, 0.0)
    for s, p in zip(snapshot, target.params):
        assert np.array_equal(s, p)
    soft_update(target, online, 1.0)
    for o, p in zip(online.params, target.params):
        assert np.allclose(o, p)
    t = Mlp([1, 1], rng)
    o = Mlp([1, 1], rng)
    t.weights[0][...] = 0.0
    t.biases[0][...] = 0.0
    o.weights[0][...] = 1.0
    o.biases[0][...] = 1.0
    soft_update(t, o, 0.01)
    assert t.weights[0][0, 0] == pytest.approx(0.01)


def test_soft_update_contraction():
    rng = np.random.default_rng(12)
    online = Mlp([4, 8, 2], rng)
    target = Mlp([4, 8, 2], rng)
    tau = 0.01
    for _ in range(5):
        before = max(np.max(np.abs(t - o)) for t, o in zip(target.params, online.params))
        soft_update(target, online, tau)
        after = max(np.max(np.abs(t - o)) for t, o in zip(target.params, online.params))
        assert after <= (1 - tau) * before + 1e-15


def test_mlp_rejects_bad_dims():
    with pytest.raises(ValueError):
        Mlp([4], np.random.default_rng(0))


def test_replay_buffer_roundtrip_and_uniformity():
    buf = ReplayBuffer(1000, {"x": 2, "r": 1})
    for i in range(1000):
        buf.add(x=[i, i + 0.5], r=i)
    assert len(buf) == 1000
    rng = np.random.default_rng(13)
    counts = np.zeros(1000)
    draws = 1000
    batch = 100
    for _ in range(draws):
        got = buf.sample(batch, rng)
        assert got["x"].shape == (batch, 2)
        ids = got["r"][:, 0].astype(int)
        assert len(set(ids.tolist())) == batch  # without replacement
        counts[ids] += 1
    p = batch / 1000.0
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.all(np.abs(counts - draws * p) < 5 * sigma)


def test_replay_buffer_ring_overwrite():
    buf = ReplayBuffer(4, {"v": 1})
    for i in range(6):
        buf.add(v=i)
    assert len(buf) == 4
    got = buf.sample(4, np.random.default_rng(0))
    assert sorted(got["v"][:, 0].tolist()) == [2.0, 3.0, 4.0, 5.0]


def test_replay_buffer_insufficient():
    buf = ReplayBuffer(10, {"v": 1})
    buf.add(v=1)
    with pytest.raises(ValueError):
        buf.sample(2, np.random.default_rng(0))


def filled_row_store():
    """A 3-row store fed interleaved, row 2 skipping steps and row 0 wrapping,
    and one single-ring reference per row fed the same transitions."""
    fields = {"x": 2, "a": 1}
    store = ReplayBuffer(5, fields, rows=3)
    refs = [ReplayBuffer(5, fields) for _ in range(3)]
    rng = np.random.default_rng(21)
    for step in range(8):
        rows = np.array([0, 1, 2] if step % 3 == 0 else [1, 0])
        x = rng.normal(size=(len(rows), 2))
        a = rng.integers(2, size=len(rows))
        store.add_rows(rows, x=x, a=a)
        for i, r in enumerate(rows.tolist()):
            refs[r].add(x=x[i], a=a[i])
    return store, refs


def test_row_store_rings_match_single_rings():
    store, refs = filled_row_store()
    assert store._size.tolist() == [len(r) for r in refs] == [5, 5, 3]
    assert store._head.tolist() == [r._head for r in refs] == [3, 3, 3]
    for name, data in store._data.items():
        assert data.shape == (3, 5, store.fields[name])
        for r, ref in enumerate(refs):
            assert np.array_equal(data[r], ref._data[name])
    store.clear()
    assert not store._size.any() and not store._head.any()


def test_row_store_sample_matches_single_ring_draws():
    store, refs = filled_row_store()
    rows = np.array([2, 0, 1])
    got = store.sample_rows(rows, 3, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    want = [refs[r].sample(3, rng) for r in rows.tolist()]
    for name in store.fields:
        assert got[name].shape == (3, 3, store.fields[name])
        assert got[name].dtype == np.float32
        assert np.array_equal(got[name], np.stack([w[name] for w in want]))
