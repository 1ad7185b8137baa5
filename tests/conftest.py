"""Shared world builders for the environment and learning tests."""

import os
import subprocess
import sys

import numpy as np
import pytest

import uavcov
from uavcov.channel import EnvConstants, FadingField
from uavcov.clustering import ClusterPlan
from uavcov.env import EnvConfig, FrameWorld

# "[acceptance] ... PASS/FAIL" detail lines, one per acceptance criterion run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance lines after the run, where output capture cannot hide them."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def run_cli(*args) -> subprocess.CompletedProcess:
    """`python -m uavcov.cli ARGS` in a child that imports the package under test."""
    src = os.path.dirname(os.path.dirname(uavcov.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "uavcov.cli", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))


def build_world(ue_xy_m, assignment, uav_xy=None, seed=0, frame=0, uavs=None, **env_kw):
    """FrameWorld over explicit UE positions and cluster assignment.

    The plan's centroids are the cluster means unless uav_xy gives them, so
    UAVs hover over them at mid altitude; cluster c is served by UAV uavs[c],
    by default UAV c. Field size is the standard 100x100 grid at 300 m cells.
    """
    pts = np.asarray(ue_xy_m, dtype=float)
    labels = np.asarray(assignment, dtype=np.int64)
    k = int(labels.max()) + 1
    env_kw.setdefault("n_ues", pts.shape[0])
    cfg = EnvConfig(**env_kw)
    constants = EnvConstants()
    if uav_xy is None:
        centroids = np.array([pts[labels == c].mean(axis=0) for c in range(k)])
    else:
        centroids = np.asarray(uav_xy, dtype=float)
    plan = ClusterPlan(k_star=k, assignment=labels, centroids=centroids, silhouette_mean=0.0,
                       active_uavs=list(range(k)) if uavs is None else list(uavs))
    fading = FadingField(seed, constants, cfg.n_ues, cfg.k_max)
    return FrameWorld(cfg, constants, pts, plan, fading, frame,
                      field_size_m=(99 * 300.0, 99 * 300.0))


@pytest.fixture
def world_factory():
    return build_world
