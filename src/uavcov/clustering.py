"""Silhouette-scored K-means over user positions.

Lloyd iterations with k-means++ seeding and a fixed number of restarts per k,
every k and restart of a frame run as one batch; the cluster count is chosen
by the mean silhouette over k = 2..k_max.
UAVs are placed at the centroids of the selected clusters; cluster labels are
matched to the previous frame's UAV identities by greedy nearest-centroid
pairing so UAVs track clusters instead of swapping.
"""

from dataclasses import dataclass

import numpy as np

MAX_LLOYD_ITERATIONS = 300
KMEANS_RESTARTS = 5


@dataclass
class ClusterPlan:
    k_star: int
    assignment: np.ndarray       # (n,) cluster index per UE
    centroids: np.ndarray        # (k_star, 2) meters
    silhouette_mean: float
    active_uavs: list[int]       # UAV index serving cluster c is active_uavs[c]


def _kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=float)
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centroids[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[c]) ** 2, axis=1))
    return centroids


def _cluster_means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(runs, k, dim) cluster means of each run's labelling; +inf for a cluster with no member.

    bincount adds each cluster's coordinates one point after another, the order
    points[labels == c].mean(axis=0) sums them in, so the means match it bit for bit.
    """
    runs = labels.shape[0]
    dim = points.shape[1]
    bins = (np.arange(runs)[:, None] * k + labels).ravel()
    counts = np.bincount(bins, minlength=runs * k).reshape(runs, k, 1)
    sums = np.bincount((bins[:, None] * dim + np.arange(dim)).ravel(),
                       weights=np.tile(points.ravel(), runs),
                       minlength=runs * k * dim).reshape(runs, k, dim)
    return np.divide(sums, counts, out=np.full(sums.shape, np.inf), where=counts > 0)


def _repair_empty(d2: np.ndarray, labels: np.ndarray, k: int):
    """Give each empty cluster of one run the point farthest from its centroid.

    The donor is drawn only from clusters with at least 2 members, so a repair
    never empties another cluster. d2 (n, K) and labels (n,) are updated in place.
    """
    rows = np.arange(labels.size)
    counts = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(counts == 0):
        far = d2[rows, labels]
        far[counts[labels] < 2] = -np.inf
        worst = int(np.argmax(far))
        counts[labels[worst]] -= 1
        counts[c] += 1
        labels[worst] = c
        d2[worst, :] = np.inf
        d2[worst, c] = 0.0


def _lloyd(points: np.ndarray, seeds: list[np.ndarray]):
    """Lloyd iterations of many runs at once, each until its assignment is stable.

    seeds holds each run's (k, dim) initial centroids. Runs are padded to the
    largest k with +inf centroids, whose d2 columns read +inf. A run leaves the
    batch when its assignment repeats, keeping the centroids it had. Returns
    labels (runs, n), centroids (runs, K, dim) with +inf padding, inertia (runs,).
    """
    n = points.shape[0]
    ks = [len(s) for s in seeds]
    k_pad = max(ks)
    real = np.arange(k_pad) < np.array(ks)[:, None]
    centroids = np.full((len(seeds), k_pad, points.shape[1]), np.inf)
    for r, s in enumerate(seeds):
        centroids[r, :ks[r]] = s
    labels = np.full((len(seeds), n), -1, dtype=np.int64)
    inertia = np.full(len(seeds), np.inf)
    live = np.arange(len(seeds))
    for _ in range(MAX_LLOYD_ITERATIONS):
        if live.size == 0:
            break
        d2 = np.sum((points[None, :, None, :] - centroids[live, None, :, :]) ** 2, axis=3)
        new_labels = np.argmin(d2, axis=2)
        runs = np.arange(live.size)[:, None]
        counts = np.bincount((runs * k_pad + new_labels).ravel(), minlength=live.size * k_pad)
        empty = (counts.reshape(live.size, k_pad) == 0) & real[live]
        for j in np.flatnonzero(empty.any(axis=1)):
            _repair_empty(d2[j], new_labels[j], ks[live[j]])
        new_inertia = d2[runs, np.arange(n), new_labels].sum(axis=1)
        old = inertia[live]
        if np.any(new_inertia > old + 1e-9 * np.maximum(1.0, old)):
            raise AssertionError("k-means inertia increased")
        inertia[live] = new_inertia
        moved = ~np.all(new_labels == labels[live], axis=1)
        live = live[moved]
        labels[live] = new_labels[moved]
        centroids[live] = _cluster_means(points, new_labels[moved], k_pad)
    return labels, centroids, inertia


def _best_runs(points: np.ndarray, ks: list[int], n_init: int, rng: np.random.Generator):
    """Best-of-n_init k-means for every k in ks, as one batch of Lloyd runs.

    Lloyd draws nothing, so every k-means++ seed is drawn first, k by k and
    restart by restart. The best restart of each k is the first with the
    smallest inertia. Returns one (labels, centroids, inertia) per k.
    """
    seeds = [_kmeanspp_seed(points, k, rng) for k in ks for _ in range(n_init)]
    labels, centroids, inertia = _lloyd(points, seeds)
    best = []
    for i, k in enumerate(ks):
        r = i * n_init + int(np.argmin(inertia[i * n_init:(i + 1) * n_init]))
        best.append((labels[r], centroids[r, :k], float(inertia[r])))
    return best


def kmeans(points, k: int, rng: np.random.Generator, n_init: int = KMEANS_RESTARTS):
    """Best-of-n_init k-means. Returns (labels, centroids, inertia)."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("empty point list")
    if not 1 <= k <= pts.shape[0]:
        raise ValueError("k must be between 1 and the number of points")
    return _best_runs(pts, [k], n_init, rng)[0]


def silhouette_samples(points, assignment) -> np.ndarray:
    """Per-sample silhouette values s_i = (b_i - a_i) / max(a_i, b_i).

    a_i is the mean distance to the other members of the own cluster, b_i the
    smallest mean distance to another cluster. Singleton clusters and the
    degenerate a_i = b_i = 0 case score 0 by convention.
    """
    pts = np.asarray(points, dtype=float)
    labels = np.asarray(assignment)
    clusters, own, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if clusters.size < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    n = pts.shape[0]
    dist = np.sqrt(np.maximum(0.0, np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)))
    sums = np.stack([dist[:, labels == c].sum(axis=1) for c in clusters], axis=1)
    rows = np.arange(n)
    own_count = counts[own]
    a = sums[rows, own] / np.maximum(own_count - 1, 1)
    means = sums / counts
    means[rows, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    s = np.zeros(n, dtype=float)
    scored = (own_count > 1) & (denom != 0.0)
    s[scored] = (b[scored] - a[scored]) / denom[scored]
    return s


def select_k(points, k_max: int, rng: np.random.Generator) -> ClusterPlan:
    """Cluster with the silhouette-maximizing k in {2..k_max}, ties to smaller k.

    Fewer than 3 points or fully coincident points fall back to a single
    cluster (silhouette undefined below 2 clusters).
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    degenerate = n < 3 or np.all(np.all(pts == pts[0], axis=1))
    if degenerate:
        return ClusterPlan(
            k_star=1,
            assignment=np.zeros(n, dtype=np.int64),
            centroids=pts.mean(axis=0, keepdims=True),
            silhouette_mean=0.0,
            active_uavs=[0],
        )
    ks = list(range(2, min(k_max, n) + 1))
    best = None
    for k, (labels, centroids, _) in zip(ks, _best_runs(pts, ks, KMEANS_RESTARTS, rng)):
        score = float(silhouette_samples(pts, labels).mean())
        if best is None or score > best[0]:
            best = (score, k, labels, centroids)
    score, k_star, labels, centroids = best
    return ClusterPlan(
        k_star=k_star,
        assignment=labels,
        centroids=centroids,
        silhouette_mean=score,
        active_uavs=list(range(k_star)),
    )


def match_to_previous(plan: ClusterPlan, prev_centroids: dict[int, np.ndarray], k_max: int) -> ClusterPlan:
    """Relabel clusters onto UAV indices, greedily pairing closest centroids.

    prev_centroids maps UAV index -> last known horizontal position. Pure
    relabeling: assignments and centroid coordinates are unchanged, only
    which UAV serves which cluster. Unmatched clusters take the lowest unused
    UAV indices.
    """
    k = plan.k_star
    if not prev_centroids:
        return plan
    pairs = sorted(
        (float(np.sum((np.asarray(xy) - plan.centroids[c]) ** 2)), uav, c)
        for uav, xy in prev_centroids.items()
        for c in range(k)
    )
    uav_of_cluster: dict[int, int] = {}
    used_uavs: set[int] = set()
    for _, uav, c in pairs:
        if c in uav_of_cluster or uav in used_uavs:
            continue
        uav_of_cluster[c] = uav
        used_uavs.add(uav)
    unused = [u for u in range(k_max) if u not in used_uavs]
    for c in range(k):
        if c not in uav_of_cluster:
            uav_of_cluster[c] = unused.pop(0)
    return ClusterPlan(
        k_star=k,
        assignment=plan.assignment,
        centroids=plan.centroids,
        silhouette_mean=plan.silhouette_mean,
        active_uavs=[uav_of_cluster[c] for c in range(k)],
    )


def place_uavs(plan: ClusterPlan, altitude_init: float, k_max: int):
    """UAV placements from a plan: (k_max, 3) xyz array plus active flags.

    UAV active_uavs[c] hovers over the centroid of cluster c at the initial
    altitude; all other UAVs are inactive (parked, zero coordinates).
    """
    xyz = np.zeros((k_max, 3), dtype=float)
    active = np.zeros(k_max, dtype=bool)
    for c, uav in enumerate(plan.active_uavs):
        xyz[uav, :2] = plan.centroids[c]
        xyz[uav, 2] = altitude_init
        active[uav] = True
    return xyz, active
