"""Network forward/gradient correctness, optimizer behavior, replay sampling."""

import numpy as np
import pytest

from uavcov import nn
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
    # an Mlp over a stack: the input's last axis is checked, not axis 1, and
    # the flat's dtype is kept
    stack = Mlp([3, 5, 2], flat=np.zeros((4, nn.param_count([3, 5, 2])), np.float32))
    out = stack.forward(np.ones((4, 7, 3)))
    assert out.shape == (4, 7, 2) and out.dtype == np.float32
    with pytest.raises(ValueError, match="input dim 4 != 3"):
        stack.forward(np.ones((4, 3, 4)))


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
        for a, n in zip(nn.param_views(analytic, dims), numeric):
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
    opt = Adam(net.flat, lr=0.1)
    opt.step(np.zeros_like(net.flat))
    for b, p in zip(before, net.params):
        assert np.array_equal(b, p)


def test_adam_first_step_is_signed_lr():
    p = np.array([1.0])
    opt = Adam(p, lr=1e-3)
    opt.step(np.array([42.0]))
    # bias-corrected first step: -lr * g / (|g| + ~eps)
    assert p[0] == pytest.approx(1.0 - 1e-3, rel=1e-6)
    p2 = np.array([1.0])
    opt2 = Adam(p2, lr=1e-3)
    opt2.step(np.array([-0.5]))
    assert p2[0] == pytest.approx(1.0 + 1e-3, rel=1e-6)


def test_adam_deterministic():
    rng = np.random.default_rng(10)
    grads = [rng.normal(size=3) for _ in range(5)]
    results = []
    for _ in range(2):
        p = np.zeros(3)
        opt = Adam(p, lr=0.01)
        for g in grads:
            opt.step(g)
        results.append(p.copy())
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


def test_params_are_views_of_the_flat_vector():
    dims = [3, 5, 4, 2]
    net = Mlp(dims, np.random.default_rng(30))
    assert net.flat.shape == (nn.param_count(dims),)
    assert [p.shape for p in net.params] == [(3, 5), (5,), (5, 4), (4,), (4, 2), (2,)]
    assert all(np.shares_memory(p, net.flat) for p in net.params)
    assert np.array_equal(np.concatenate([p.ravel() for p in net.params]), net.flat)
    net.flat[...] = 0.0
    assert not any(p.any() for p in net.params)


def test_init_draws_each_layer_weights_then_biases():
    net = Mlp([3, 5, 2], np.random.default_rng(31))
    ref = np.random.default_rng(31)
    for w, b in zip(net.weights, net.biases):
        bound = 1.0 / np.sqrt(w.shape[0])
        assert np.array_equal(w, ref.uniform(-bound, bound, size=w.shape))
        assert np.array_equal(b, ref.uniform(-bound, bound, size=b.shape))


def test_clone_shares_no_memory():
    net = Mlp([3, 5, 2], np.random.default_rng(32))
    twin = net.clone()
    assert np.array_equal(twin.flat, net.flat)
    assert not any(np.shares_memory(a, b)
                   for a in [twin.flat] + twin.params for b in [net.flat] + net.params)
    twin.weights[0][...] += 1.0
    assert not np.array_equal(twin.flat, net.flat)
    assert all(np.shares_memory(p, twin.flat) for p in twin.params)


def test_fused_adam_and_soft_update_match_the_per_parameter_loop():
    # one adam_update and one blend over the flat vector against the same
    # kernels run parameter by parameter, bit for bit, over three steps
    rng = np.random.default_rng(33)
    dims = [4, 6, 3]
    net, target = Mlp(dims, rng), Mlp(dims, rng)
    opt = Adam(net.flat, lr=1e-2)
    ref_p = [p.copy() for p in net.params]
    ref_t = [p.copy() for p in target.params]
    ref_m = [np.zeros_like(p) for p in net.params]
    ref_v = [np.zeros_like(p) for p in net.params]
    for t in range(1, 4):
        grad = rng.normal(size=net.flat.size)
        opt.step(grad)
        soft_update(target, net, 0.05)
        for p, g, m, v, tp in zip(ref_p, nn.param_views(grad, dims), ref_m, ref_v, ref_t):
            nn.adam_update(p, g, m, v, 1.0 - nn.BETA1 ** t, 1.0 - nn.BETA2 ** t, opt.lr)
            nn.blend(tp, p, 0.05)
    for got, want in ((net.params, ref_p), (target.params, ref_t),
                      (nn.param_views(opt.m, dims), ref_m), (nn.param_views(opt.v, dims), ref_v)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_fused_kernels_match_the_per_parameter_loop_on_float32_stack_rows():
    # the stacked DQN step: per-row bias corrections, float32 throughout
    rng = np.random.default_rng(34)
    dims = [3, 8, 2]
    size = nn.param_count(dims)
    p, tp = (rng.normal(size=(3, size)).astype(np.float32) for _ in range(2))
    m, v = np.zeros((2, 3, size), np.float32)
    refs = {name: [a.copy() for a in nn.param_views(arr, dims)]
            for name, arr in (("p", p), ("t", tp), ("m", m), ("v", v))}
    steps = np.array([0, 3, 8])
    for _ in range(3):
        grad = rng.normal(size=(3, size)).astype(np.float32)
        steps += 1
        b1t = (1.0 - nn.BETA1 ** steps).astype(np.float32)
        b2t = (1.0 - nn.BETA2 ** steps).astype(np.float32)
        nn.adam_update(p, grad, m, v, b1t[:, None], b2t[:, None], 1e-3)
        nn.blend(tp, p, 0.05)
        for i, g in enumerate(nn.param_views(grad, dims)):
            shape = (-1,) + (1,) * (g.ndim - 1)
            nn.adam_update(refs["p"][i], g, refs["m"][i], refs["v"][i],
                           b1t.reshape(shape), b2t.reshape(shape), 1e-3)
            nn.blend(refs["t"][i], refs["p"][i], 0.05)
    for name, arr in (("p", p), ("t", tp), ("m", m), ("v", v)):
        assert arr.dtype == np.float32
        for a, b in zip(nn.param_views(arr, dims), refs[name]):
            assert b.dtype == np.float32 and np.array_equal(a, b), name


def test_backward_skipping_a_gradient_keeps_the_bits_of_the_other():
    rng = np.random.default_rng(35)
    dims = [3, 6, 5, 2]
    net = Mlp(dims, rng)
    stack = rng.normal(size=(4, nn.param_count(dims))).astype(np.float32)
    cases = [(net.weights, net.biases, rng.normal(size=(7, 3)), rng.normal(size=(7, 2)))]
    weights, biases = nn.layer_views(stack, dims)
    cases.append((weights, biases, rng.normal(size=(4, 7, 3)).astype(np.float32),
                  rng.normal(size=(4, 7, 2)).astype(np.float32)))
    for weights, biases, x, delta in cases:
        acts = []
        nn.forward(weights, biases, x, acts)
        grad, grad_in = nn.backward(weights, acts, delta)
        assert grad.shape == x.shape[:-2] + (nn.param_count(dims),)
        only_grad, none_in = nn.backward(weights, acts, delta, input_grad=False)
        none_grad, only_in = nn.backward(weights, acts, delta, param_grads=False)
        assert none_in is None and none_grad is None
        assert np.array_equal(only_grad, grad) and np.array_equal(only_in, grad_in)
    _, cache = net.forward_cached(cases[0][2])
    assert np.array_equal(net.backward(cache, cases[0][3], input_grad=False)[0],
                          net.backward(cache, cases[0][3])[0])


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
