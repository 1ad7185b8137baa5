"""Link-budget math: worked examples, invariants, fading statistics."""

from dataclasses import dataclass

import numpy as np
import pytest

from uavcov import channel, seeding
from uavcov.channel import (EnvConstants, FadingField, achievable_rate,
                            effective_power, los_probability,
                            received_power, rayleigh_power_gain, rician_power_gain)
from uavcov.env import EnvConfig

from conftest import apply_raw, build_world

ENV = EnvConstants()


@dataclass(frozen=True)
class LinkGeometry:
    d: float      # horizontal distance, m
    r: float      # 3D distance, m
    theta: float  # elevation angle, rad


def link_geometry(ue_xy, uav_xyz) -> LinkGeometry:
    """Scalar oracle for one ground-to-air link. UAV altitude must be > 0."""
    ue = np.asarray(ue_xy, dtype=float)
    uav = np.asarray(uav_xyz, dtype=float)
    if not (np.all(np.isfinite(ue)) and np.all(np.isfinite(uav))):
        raise ValueError("non-finite coordinates")
    h = float(uav[2])
    if h <= 0:
        raise ValueError("UAV altitude must be positive")
    d = float(np.hypot(uav[0] - ue[0], uav[1] - ue[1]))
    r = float(np.hypot(d, h))
    theta = float(np.arcsin(h / r))
    return LinkGeometry(d=d, r=r, theta=theta)


class StubFading:
    """Fading field with fixed (rician, rayleigh) gain matrices at every step."""

    def __init__(self, g, k):
        self.g, self.k = np.asarray(g, dtype=float), np.asarray(k, dtype=float)

    def draw(self, frame, episode, step):
        return self.g, self.k


def stub_world(ue_xy, labels, g, k, **env_kw):
    world = build_world(ue_xy, labels, **env_kw)
    world.fading = StubFading(g, k)
    world.reset_episode(equal_blocks=True)
    return world


def expected_rates(world, interferers):
    """Each UE's rate from the scalar link budget, with interference summed over
    interferers(i, serving uav) -> [(p_avg, rayleigh gain, uav)]."""
    cfg = world.cfg
    g, _ = world.fading.draw(0, 0, 0)
    rates = []
    for i, xy in enumerate(world.ue_xy):
        j, s = world.uav_of_ue[i], world.slot_of_ue[i]
        geom = link_geometry(xy, (*world.xy[j], world.h[j]))
        p = world.power[j, s]
        p_eff = effective_power(los_probability(geom.theta, ENV),
                                received_power(p, geom.r, g[i, j], ENV.alpha_los),
                                received_power(p, geom.r, world.fading.k[i, j], ENV.alpha_nlos))
        inter = sum(p_avg * gain * link_geometry(xy, (*world.xy[m], world.h[m])).r
                    ** (-ENV.alpha_nlos) for p_avg, gain, m in interferers(i, j))
        rates.append(achievable_rate(world.blocks[j, s] * cfg.block_size, p_eff, inter,
                                     ENV.noise_power))
    return np.array(rates)


def test_link_geometry_vertical():
    g = link_geometry((0.0, 0.0), (0.0, 0.0, 300.0))
    assert g.d == 0.0
    assert g.r == 300.0
    assert g.theta == pytest.approx(np.pi / 2, rel=1e-12)


def test_link_geometry_45deg():
    g = link_geometry((0.0, 0.0), (300.0, 0.0, 300.0))
    assert g.d == pytest.approx(300.0)
    assert g.r == pytest.approx(300.0 * np.sqrt(2.0), rel=1e-12)
    assert g.theta == pytest.approx(np.pi / 4, rel=1e-12)


def test_link_geometry_345_triangle():
    g = link_geometry((0.0, 0.0), (400.0, 0.0, 300.0))
    assert g.d == pytest.approx(400.0)
    assert g.r == pytest.approx(500.0, rel=1e-12)
    # asin(3/5), evaluated independently at high precision
    assert g.theta == pytest.approx(0.643501108793, rel=1e-9)


def test_link_geometry_consistency_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ue = rng.uniform(-5e4, 5e4, 2)
        uav = np.append(rng.uniform(-5e4, 5e4, 2), rng.uniform(1.0, 5e3))
        g = link_geometry(ue, uav)
        assert g.r >= g.d >= 0.0
        assert g.r >= uav[2]
        assert 0.0 <= g.theta <= np.pi / 2
        assert g.r ** 2 == pytest.approx(g.d ** 2 + uav[2] ** 2, rel=1e-9)


def test_link_geometry_rejects_bad_input():
    with pytest.raises(ValueError):
        link_geometry((np.nan, 0.0), (0.0, 0.0, 100.0))
    with pytest.raises(ValueError):
        link_geometry((0.0, 0.0), (0.0, 0.0, 0.0))


def test_los_probability_examples():
    # exponent vanishes when the angle in degrees equals c
    assert los_probability(ENV.c * np.pi / 180.0, ENV) == pytest.approx(1 / 12.95, rel=1e-12)
    # frozen from a 40-digit evaluation of the sigmoid
    assert los_probability(np.pi / 2, ENV) == pytest.approx(0.999706713922, rel=1e-9)
    assert los_probability(0.0, ENV) == pytest.approx(0.0162076534598, rel=1e-9)


def test_los_probability_monotone_and_bounded():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = np.sort(rng.uniform(0.0, np.pi / 2, 2))
        pa, pb = los_probability(a, ENV), los_probability(b, ENV)
        assert 0.0 < pa < 1.0 and 0.0 < pb < 1.0
        if b > a:
            assert pb > pa


def test_received_power_examples():
    assert received_power(0.0, 300.0, 1.0, 3.0) == 0.0
    assert received_power(0.1, 300.0, 1.0, 3.0) == pytest.approx(3.7037037037e-9, rel=1e-9)
    assert received_power(0.1, 300.0, 1.0, 4.0) == pytest.approx(1.23456790123e-11, rel=1e-9)
    with pytest.raises(ValueError):
        received_power(0.1, 0.0, 1.0, 3.0)


def test_received_power_scaling_law():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p, r, lam = rng.uniform(0.01, 1.0), rng.uniform(10.0, 5e3), rng.uniform(0.5, 3.0)
        base = received_power(p, r, 1.0, ENV.alpha_los)
        scaled = received_power(p, lam * r, 1.0, ENV.alpha_los)
        assert scaled == pytest.approx(base * lam ** (-ENV.alpha_los), rel=1e-9)


def test_effective_power_examples_and_bounds():
    assert effective_power(1.0, 4e-9, 2e-11) == 4e-9
    assert effective_power(0.0, 4e-9, 2e-11) == 2e-11
    assert effective_power(0.5, 4e-9, 2e-11) == pytest.approx(2.01e-9, rel=1e-12)
    rng = np.random.default_rng(17)
    for _ in range(300):
        p = rng.random()
        a, b = rng.uniform(0, 1e-8, 2)
        eff = effective_power(p, a, b)
        assert min(a, b) - 1e-30 <= eff <= max(a, b) + 1e-30


def test_interference_examples():
    # two UAVs under unit gains: each UE hears the other UAV at p_max / n_slots
    pts = [[0.0, 0.0], [600.0, 0.0], [1500.0, 0.0], [3000.0, 300.0], [3300.0, 0.0]]
    labels = [0, 0, 0, 1, 1]
    world = stub_world(pts, labels, np.ones((5, 5)), np.ones((5, 5)))
    cfg = world.cfg
    rates, served, _, _ = world.evaluate(0, 0)
    expect = expected_rates(world, lambda i, j: [(cfg.p_max / world.n_slots[1 - j], 1.0, 1 - j)])
    assert rates == pytest.approx(expect, rel=1e-12)
    assert np.array_equal(served, expect >= cfg.r_th)
    # one UAV alone hears no interference
    solo = stub_world(pts[:3], [0, 0, 0], np.ones((3, 5)), np.ones((3, 5)))
    rates, _, _, _ = solo.evaluate(0, 0)
    assert rates == pytest.approx(expected_rates(solo, lambda i, j: []), rel=1e-12)


def test_interference_additivity():
    # three UAVs, arbitrary gains: interference is the sum over the two others
    for mode in ("budget", "allocated"):
        rng = np.random.default_rng(19)
        pts = rng.uniform(0.0, 6000.0, (9, 2))
        labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        world = stub_world(pts, labels, rng.uniform(0.1, 3.0, (9, 5)),
                           rng.uniform(0.1, 3.0, (9, 5)), p_avg_mode=mode)
        apply_raw(world, rng.normal(0.0, 2.0, (world.cfg.k_max, 1 + world.cfg.slots)))
        p_avg = world.interferer_power()
        if mode == "budget":
            assert p_avg == pytest.approx([1 / 3] * 3, rel=1e-12)
        rates, _, _, _ = world.evaluate(0, 0)
        expect = expected_rates(world, lambda i, j: [(p_avg[m], world.fading.k[i, m], m)
                                                     for m in world.active_idx if m != j])
        assert rates == pytest.approx(expect, rel=1e-12)


def test_achievable_rate_examples():
    assert achievable_rate(0.0, 1e-9, 0.0, 4e-15) == 0.0
    assert achievable_rate(18e3, 0.0, 0.0, 4e-15) == 0.0
    # frozen from a 40-digit evaluation: 18 kHz at SNR 3.7027e-9 / 4e-15
    assert achievable_rate(18e3, 3.7027e-9, 0.0, 4e-15) == pytest.approx(356762.660258, rel=1e-9)


def test_achievable_rate_monotonicity():
    rng = np.random.default_rng(23)
    for _ in range(300):
        bw = rng.uniform(1e3, 1e6)
        p = rng.uniform(1e-14, 1e-8)
        i = rng.uniform(0.0, 1e-12)
        base = achievable_rate(bw, p, i, ENV.noise_power)
        assert achievable_rate(bw * 1.5, p, i, ENV.noise_power) >= base
        assert achievable_rate(bw, p * 1.5, i, ENV.noise_power) >= base
        assert achievable_rate(bw, p, i + 1e-13, ENV.noise_power) <= base


def test_evaluate_threshold_inclusive(world_factory):
    # re-evaluating the same (episode, step) with r_th at a UE's exact rate serves it
    world = world_factory([[0.0, 0.0], [600.0, 0.0], [9000.0, 0.0]], [0, 0, 1], seed=3)
    world.reset_episode(equal_blocks=True)
    rates, _, _, _ = world.evaluate(2, 7)
    assert np.all(rates > 0.0)
    for i, rate in enumerate(rates):
        for r_th, expect in ((rate, True), (np.nextafter(rate, np.inf), False)):
            world.cfg.r_th = float(r_th)
            world.reset_episode(equal_blocks=True)
            again, served, rewards, _ = world.evaluate(2, 7)
            assert np.array_equal(again, rates)
            assert served[i] == expect
            assert rewards.sum() == served.sum()
    with pytest.raises(ValueError):
        EnvConfig(r_th=0.0)


def test_fading_determinism():
    field = FadingField(1234, ENV, n_ues=6, n_uavs=3)
    g1, k1 = field.draw(2, 5, 17)
    g2, k2 = field.draw(2, 5, 17)
    assert np.array_equal(g1, g2) and np.array_equal(k1, k2)
    g3, _ = field.draw(2, 5, 18)
    assert not np.array_equal(g1, g3)


def fresh_philox(master_seed, name, counter):
    """A new Philox built at counter words [0, *counter], with nothing drawn yet."""
    words = np.zeros(4, dtype=np.uint64)
    words[1:len(counter) + 1] = counter
    return np.random.Generator(np.random.Philox(counter=words,
                                                key=seeding.stream_key(master_seed, name)))


def test_fading_draw_equals_a_fresh_stream_at_its_address():
    # one Philox per field, re-addressed per draw, in any order and repeated
    field = FadingField(4321, ENV, n_ues=7, n_uavs=3)
    for address in [(0, 0, 0), (3, 1, 9), (0, 0, 1), (3, 1, 9), (0, 0, 0), (2, 19, 199),
                    (1, 0, 0), (0, 0, 1)]:
        g, k = field.draw(*address)
        for rng in (seeding.counter_stream(4321, seeding.FADING, address),
                    fresh_philox(4321, seeding.FADING, address)):
            assert np.array_equal(g, rician_power_gain(rng, ENV.rician_k_db, size=(7, 3)))
            assert np.array_equal(k, rayleigh_power_gain(rng, size=(7, 3)))


def test_addressed_streams_equal_a_fresh_philox():
    # an odd count of 32-bit draws leaves a cached half-word and a part-used
    # buffer behind; the next address must start clean
    stream = seeding.AddressedStream(11, seeding.MOBILITY)
    for counter in [(), (5,), (0, 7), (1, 2, 3), (5,), (2 ** 64 - 1, 0, 2 ** 63)]:
        for got in (stream.at(counter), seeding.counter_stream(11, seeding.MOBILITY, counter)):
            ref = fresh_philox(11, seeding.MOBILITY, counter)
            assert np.array_equal(got.integers(0, 2 ** 31, 3, dtype=np.uint32),
                                  ref.integers(0, 2 ** 31, 3, dtype=np.uint32))
            assert np.array_equal(got.normal(size=9), ref.normal(size=9))
    with pytest.raises(ValueError):
        seeding.counter_stream(11, seeding.MOBILITY, (1, 2, 3, 4))


def test_fading_unit_means():
    rng = np.random.default_rng(29)
    ray = rayleigh_power_gain(rng, size=10 ** 6)
    ric = rician_power_gain(rng, ENV.rician_k_db, size=10 ** 6)
    assert np.all(ray >= 0.0) and np.all(ric >= 0.0)
    assert abs(ray.mean() - 1.0) < 0.01
    assert abs(ric.mean() - 1.0) < 0.01


def test_fading_counter_streams_do_not_collide():
    # consuming many values at one counter must not bleed into the next
    field = FadingField(99, ENV, n_ues=50, n_uavs=5)
    a1, _ = field.draw(0, 0, 0)
    b1, _ = field.draw(0, 0, 1)
    field2 = FadingField(99, ENV, n_ues=50, n_uavs=5)
    b2, _ = field2.draw(0, 0, 1)
    assert np.array_equal(b1, b2)
    assert not np.array_equal(a1, b1)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(31)
    ue = rng.uniform(0, 3e4, (8, 2))
    uav = np.column_stack([rng.uniform(0, 3e4, (3, 2)), rng.uniform(300, 1000, 3)])
    d = channel.horizontal_distances(ue, uav[:, :2])
    r, theta = channel.slant_geometry(d, uav[:, 2])
    for i in range(8):
        for j in range(3):
            g = link_geometry(ue[i], uav[j])
            assert d[i, j] == pytest.approx(g.d, rel=1e-12, abs=1e-12)
            assert r[i, j] == pytest.approx(g.r, rel=1e-12)
            assert theta[i, j] == pytest.approx(g.theta, rel=1e-12)
    # the mixed link power equals its scalar pieces composed, bit for bit
    p_tx = rng.uniform(0.1, 1.0, (8, 3))
    g_los, g_nlos = rng.exponential(1.0, (2, 8, 3))
    mixed = channel.mixed_power(p_tx, r, theta, g_los, g_nlos, ENV)
    for i in range(8):
        for j in range(3):
            p = float(p_tx[i, j])
            assert mixed[i, j] == effective_power(
                los_probability(float(theta[i, j]), ENV),
                received_power(p, float(r[i, j]), float(g_los[i, j]), ENV.alpha_los),
                received_power(p, float(r[i, j]), float(g_nlos[i, j]), ENV.alpha_nlos))
