"""K-means, silhouette and cluster-count selection against brute force.

The batched Lloyd and the array silhouette are also held to per-run, per-point
reference implementations (the loop forms they replaced) bit for bit.
"""

import importlib.util
import os
from itertools import combinations

import numpy as np
import pytest

from uavcov import clustering, experiment, seeding
from uavcov.clustering import (KMEANS_RESTARTS, MAX_LLOYD_ITERATIONS, ClusterPlan,
                               kmeans, match_to_previous, select_k,
                               silhouette_samples)
from uavcov.config import build_config

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def brute_force_silhouette(points, labels):
    """Direct pairwise-distance recomputation of every silhouette value."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    out = np.zeros(n)
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            continue
        a = np.mean([np.linalg.norm(pts[i] - pts[j]) for j in own])
        bs = []
        for c in set(labels) - {labels[i]}:
            members = [j for j in range(n) if labels[j] == c]
            bs.append(np.mean([np.linalg.norm(pts[i] - pts[j]) for j in members]))
        b = min(bs)
        out[i] = 0.0 if max(a, b) == 0.0 else (b - a) / max(a, b)
    return out


def reference_lloyd(points, centroids):
    """One Lloyd run at a time; the repair donor comes from a cluster of 2 or more."""
    n, k = points.shape[0], centroids.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    inertia = np.inf
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                far = d2[np.arange(n), new_labels].copy()
                sizes = np.bincount(new_labels, minlength=k)
                far[sizes[new_labels] < 2] = -np.inf
                worst = int(np.argmax(far))
                new_labels[worst] = c
                d2[worst, :] = np.inf
                d2[worst, c] = 0.0
        new_inertia = float(d2[np.arange(n), new_labels].sum())
        if new_inertia > inertia + 1e-9 * max(1.0, inertia):
            raise AssertionError("k-means inertia increased")
        if np.array_equal(new_labels, labels):
            inertia = new_inertia
            break
        labels = new_labels
        inertia = new_inertia
        for c in range(k):
            centroids[c] = points[labels == c].mean(axis=0)
    return labels, centroids, inertia


def reference_kmeans(points, k, rng, n_init=KMEANS_RESTARTS):
    best = None
    for _ in range(n_init):
        seed_centroids = clustering._kmeanspp_seed(points, k, rng)
        labels, centroids, inertia = reference_lloyd(points, seed_centroids.copy())
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia)
    return best


def reference_silhouette(points, labels):
    """Per-point loop over the same per-cluster distance sums."""
    clusters = np.unique(labels)
    n = points.shape[0]
    dist = np.sqrt(np.maximum(0.0, np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)))
    sums = np.stack([dist[:, labels == c].sum(axis=1) for c in clusters], axis=1)
    counts = np.array([(labels == c).sum() for c in clusters])
    s = np.zeros(n, dtype=float)
    for i in range(n):
        own = int(np.where(clusters == labels[i])[0][0])
        if counts[own] <= 1:
            continue
        a = sums[i, own] / (counts[own] - 1)
        b = min(sums[i, c] / counts[c] for c in range(clusters.size) if c != own)
        denom = max(a, b)
        s[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return s


def reference_select_k(points, k_max, rng):
    best = None
    for k in range(2, min(k_max, len(points)) + 1):
        labels, centroids, _ = reference_kmeans(points, k, rng)
        score = float(reference_silhouette(points, labels).mean())
        if best is None or score > best[0]:
            best = (score, k, labels, centroids)
    return best


def assert_same_kmeans(got, ref):
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])
    assert got[2] == ref[2]


def assert_same_plan(plan, ref):
    score, k_star, labels, centroids = ref
    assert plan.k_star == k_star
    assert np.array_equal(plan.assignment, labels)
    assert np.array_equal(plan.centroids, centroids)
    assert plan.silhouette_mean == score


def world_frames():
    """(seed, frame, UE positions, cluster plan) of the benchmark's world workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in (1, 2, 3):
        cfg = build_config(dict(workloads.WORLD_OVERRIDES, seeds=[seed]))
        grid = experiment._grid_for(cfg, seed)
        for frame, (_, pts, plan) in enumerate(experiment._frames(cfg, seed, grid)):
            yield seed, frame, pts, plan


def test_batched_kmeans_matches_per_run_reference_on_world_frames():
    for seed, frame, pts, plan in world_frames():
        ref = reference_select_k(pts, 5, seeding.counter_stream(seed, seeding.CLUSTERING, (frame,)))
        assert_same_plan(plan, ref)
        for k in (2, 5):
            assert_same_kmeans(kmeans(pts, k, np.random.default_rng(frame)),
                               reference_kmeans(pts, k, np.random.default_rng(frame)))


def awkward_point_sets():
    rng = np.random.default_rng(77)
    for trial in range(40):
        n = int(rng.integers(3, 25))
        yield rng.uniform(0, 1000, (n, 2))                        # generic
        yield rng.integers(0, 4, (n, 2)).astype(float) * 100.0    # many duplicates
    for n in (3, 4, 5):
        yield rng.uniform(0, 10, (n, 2))                          # n <= k_max: k runs up to n
    side = np.arange(3.0) * 50.0
    yield np.array([(x, y) for x in side for y in side])          # lattice: tied restarts
    yield np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 2)
    yield np.array([[0.0, 0.0], [1e-9, 0.0], [1.0, 0.0], [1.0, 1e-9], [0.5, 3.0]])


def test_batched_kmeans_matches_per_run_reference_on_awkward_sets():
    for i, pts in enumerate(awkward_point_sets()):
        n = len(pts)
        for k in sorted({1, 2, min(5, n), n}):
            assert_same_kmeans(kmeans(pts, k, np.random.default_rng(i)),
                               reference_kmeans(pts, k, np.random.default_rng(i)))
        if len(np.unique(pts, axis=0)) > 1:
            assert_same_plan(select_k(pts, 5, np.random.default_rng(i)),
                             reference_select_k(pts, 5, np.random.default_rng(i)))


def test_kmeans_with_fewer_distinct_points_than_k_keeps_every_cluster():
    # all distances reach 0: the farthest point is a singleton's only member,
    # which once emptied that cluster and left a NaN centroid and inertia
    pts = np.array([[400, 200], [600, 200], [600, 1000], [200, 600], [600, 200], [600, 200]],
                   dtype=float)
    for s in range(200):
        labels, centroids, inertia = kmeans(pts, 5, np.random.default_rng(s))
        assert np.isfinite(inertia)
        assert np.array_equal(np.unique(labels), np.arange(5))
        assert np.all(np.isfinite(centroids))


def test_silhouette_matches_per_point_reference():
    rng = np.random.default_rng(8)
    for trial in range(60):
        n = int(rng.integers(2, 20))
        pts = rng.uniform(0, 100, (n, 2))
        if trial % 3 == 0:
            pts = np.round(pts / 40.0) * 40.0        # coincident points, a = b = 0
        labels = rng.choice([0, 3, 7, 8], size=n)   # non-contiguous labels, singletons
        if len(set(labels.tolist())) < 2:
            continue
        assert np.array_equal(silhouette_samples(pts, labels), reference_silhouette(pts, labels))


def test_kmeans_identical_points():
    rng = np.random.default_rng(1)
    pts = np.tile([[3.0, 4.0]], (6, 1))
    labels, centroids, inertia = kmeans(pts, 1, rng)
    assert np.all(labels == 0)
    assert centroids[0] == pytest.approx([3.0, 4.0])
    assert inertia == 0.0


def test_kmeans_two_pairs_matches_exhaustive_optimum():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    rng = np.random.default_rng(2)
    labels, centroids, inertia = kmeans(pts, 2, rng)
    # exhaustive scan of all 2-partitions
    best = np.inf
    for size in range(1, 4):
        for left in combinations(range(4), size):
            right = [i for i in range(4) if i not in left]
            cl, cr = pts[list(left)].mean(axis=0), pts[right].mean(axis=0)
            cost = sum(np.sum((pts[i] - cl) ** 2) for i in left) + \
                   sum(np.sum((pts[i] - cr) ** 2) for i in right)
            best = min(best, cost)
    assert inertia == pytest.approx(best, rel=1e-12)
    assert labels[0] == labels[1] and labels[2] == labels[3] and labels[0] != labels[2]
    got = sorted(map(tuple, centroids))
    assert got[0] == pytest.approx((0.0, 0.5)) and got[1] == pytest.approx((10.0, 0.5))


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(3)
    pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [7.0, 7.0]])
    labels, centroids, inertia = kmeans(pts, 4, rng)
    assert inertia == pytest.approx(0.0, abs=1e-18)
    assert len(set(labels.tolist())) == 4


def test_kmeans_deterministic_and_centroids_are_means():
    rng1 = np.random.default_rng(44)
    rng2 = np.random.default_rng(44)
    pts = np.random.default_rng(0).uniform(0, 100, (40, 2))
    l1, c1, i1 = kmeans(pts, 3, rng1)
    l2, c2, i2 = kmeans(pts, 3, rng2)
    assert np.array_equal(l1, l2) and np.allclose(c1, c2) and i1 == i2
    for c in range(3):
        members = pts[l1 == c]
        assert c1[c] == pytest.approx(members.mean(axis=0), rel=1e-9)


def test_kmeans_rejects_empty():
    with pytest.raises(ValueError):
        kmeans(np.empty((0, 2)), 2, np.random.default_rng(0))


def test_kmeans_rejects_k_beyond_n():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4, np.random.default_rng(0))


def test_silhouette_hand_example():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    labels = np.array([0, 0, 1, 1])
    s0 = silhouette_samples(pts, labels)[0]
    assert s0 == pytest.approx((10.5 - 1.0) / 10.5, rel=1e-12)


def test_silhouette_conventions():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    labels = np.array([0, 1, 1])
    assert silhouette_samples(pts, labels)[0] == 0.0  # singleton
    coincident = np.zeros((4, 2))
    labels2 = np.array([0, 0, 1, 1])
    assert np.all(silhouette_samples(coincident, labels2) == 0.0)
    with pytest.raises(ValueError):
        silhouette_samples(pts, np.zeros(3, dtype=int))


def test_silhouette_matches_brute_force():
    rng = np.random.default_rng(5)
    for trial in range(20):
        pts = rng.uniform(0, 100, (15, 2))
        labels = rng.integers(0, 3, 15)
        if len(set(labels.tolist())) < 2:
            continue
        mine = silhouette_samples(pts, labels)
        ref = brute_force_silhouette(pts, labels)
        assert np.allclose(mine, ref, rtol=1e-9, atol=1e-12)
        assert np.all(mine >= -1.0) and np.all(mine <= 1.0)


def make_blobs(rng, centers, n_per, sigma):
    pts = []
    for cx, cy in centers:
        pts.append(rng.normal([cx, cy], sigma, size=(n_per, 2)))
    return np.vstack(pts)


def test_select_k_three_blobs():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        spacing = 10000.0
        pts = make_blobs(rng, [(0, 0), (spacing, 0), (0, spacing)], 10, 0.05 * spacing)
        plan = select_k(pts, 5, rng)
        if plan.k_star == 3:
            hits += 1
        # chosen mean silhouette must match a brute-force recomputation
        ref = brute_force_silhouette(pts, plan.assignment).mean()
        assert plan.silhouette_mean == pytest.approx(ref, rel=1e-9)
    assert hits >= 9


def test_select_k_two_pairs():
    rng = np.random.default_rng(9)
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1000.0, 0.0], [1000.0, 1.0]])
    plan = select_k(pts, 5, rng)
    assert plan.k_star == 2


def test_select_k_degenerate():
    rng = np.random.default_rng(10)
    pts = np.tile([[5.0, 5.0]], (8, 1))
    plan = select_k(pts, 5, rng)
    assert plan.k_star == 1
    assert plan.centroids[0] == pytest.approx([5.0, 5.0])
    assert plan.silhouette_mean == 0.0
    assert -1.0 <= plan.silhouette_mean <= 1.0


def test_select_k_single_uav_is_one_cluster():
    # k_max = 1 leaves no k in {2..k_max}: one cluster, drawing nothing
    rng = np.random.default_rng(11)
    pts = make_blobs(rng, [(0, 0), (5000, 0)], 6, 100.0)
    state = rng.bit_generator.state
    plan = select_k(pts, 1, rng)
    assert rng.bit_generator.state == state
    assert plan.k_star == 1 and plan.active_uavs == [0]
    assert np.all(plan.assignment == 0)
    assert plan.centroids == pytest.approx(pts.mean(axis=0, keepdims=True))
    assert plan.silhouette_mean == 0.0


def test_select_k_is_argmax_over_candidates():
    rng = np.random.default_rng(12)
    pts = make_blobs(rng, [(0, 0), (5000, 0), (0, 5000), (5000, 5000)], 8, 100.0)
    plan = select_k(pts, 5, np.random.default_rng(12))
    for k in range(2, 6):
        labels, _, _ = kmeans(pts, k, np.random.default_rng(999))
        s_k = silhouette_samples(pts, labels).mean()
        assert plan.silhouette_mean >= s_k - 1e-9


def test_match_to_previous_keeps_identity():
    plan = ClusterPlan(
        k_star=2,
        assignment=np.array([0, 1]),
        centroids=np.array([[0.0, 0.0], [100.0, 0.0]]),
        silhouette_mean=0.0,
        active_uavs=[0, 1],
    )
    prev = {3: np.array([99.0, 1.0]), 1: np.array([1.0, 1.0])}
    matched = match_to_previous(plan, prev, 5)
    # cluster 1 (at x=100) keeps UAV 3, cluster 0 keeps UAV 1
    assert matched.active_uavs == [1, 3]
    assert np.array_equal(matched.assignment, plan.assignment)
