"""One BLAS thread per training run, and run_experiment's runs across CPUs.

run_single pins OpenBLAS to one thread and restores the caller's count;
run_jobs runs many run_single calls in spawned worker processes. Neither may
change a byte of any output, and no worker may outlive the call.
"""

import hashlib
import multiprocessing
import os
import warnings

import pytest

from uavcov import experiment
from uavcov.experiment import run_single

from test_harness import tiny_config

METHODS = ["flare", "maddpg_only", "static"]


def tree_bytes(root) -> dict[str, bytes]:
    """Every file under root by its relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.fixture
def blas():
    found = experiment._openblas_threads()
    if found is None:
        pytest.skip("numpy's BLAS is not a known OpenBLAS")
    return found


def test_run_single_trains_under_one_blas_thread_and_restores(blas, tmp_path, monkeypatch):
    get, set_ = blas
    caller = get()
    seen = []
    inner = experiment._run_single

    def spy(*args):
        seen.append(get())
        return inner(*args)

    def failing(*args):
        seen.append(get())
        raise RuntimeError("injected")

    set_(2)
    try:
        monkeypatch.setattr(experiment, "_run_single", spy)
        run_single(tiny_config(), "flare", 1, str(tmp_path / "ok"), quiet=True)
        assert seen == [1] and get() == 2
        monkeypatch.setattr(experiment, "_run_single", failing)
        with pytest.raises(RuntimeError, match="injected"):
            run_single(tiny_config(), "flare", 1, str(tmp_path / "bad"), quiet=True)
        assert seen == [1, 1] and get() == 2
    finally:
        set_(caller)


def test_run_without_openblas_writes_the_same_bytes(tmp_path, monkeypatch):
    cfg = tiny_config()
    run_single(cfg, "flare", 1, str(tmp_path / "pinned"), quiet=True, checkpoint=True)
    monkeypatch.setattr(experiment, "_openblas_threads", lambda: None)
    run_single(cfg, "flare", 1, str(tmp_path / "unpinned"), quiet=True, checkpoint=True)
    assert tree_bytes(tmp_path / "pinned") == tree_bytes(tmp_path / "unpinned")


def test_pooled_experiment_matches_serial_runs(tmp_path, capsys):
    cfg = tiny_config(out_dir=str(tmp_path / "pool"), seeds=[1, 2])
    experiment.run_experiment(cfg, methods=METHODS)
    lines = capsys.readouterr().out.splitlines()
    assert multiprocessing.active_children() == []
    # the same config, so config.txt names the same out_dir
    for method in METHODS:
        for seed in cfg.seeds:
            run_single(cfg, method, seed, str(tmp_path / "serial" / f"{method}_seed{seed}"),
                       quiet=True)
    pooled = tree_bytes(tmp_path / "pool")
    assert hashlib.sha256(pooled.pop("comparison.json")).hexdigest() == \
        "88ed01a9024f2954561d7cda9886374ec8b351dfa80ac0b0f5b3bac76dee0a17"
    assert len(pooled) == 2 * (7 + 6 + 6) and pooled == tree_bytes(tmp_path / "serial")
    assert [line.split(" mean served")[0] for line in lines] == \
        [f"[{m} seed={s}]" for m in METHODS for s in cfg.seeds]


def test_failed_job_raises_and_leaves_no_worker(tmp_path):
    cfg = tiny_config()
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    jobs = [(cfg, method, 1, str(tmp_path / method)) for method in METHODS]
    jobs[1] = (cfg, "maddpg_only", 1, str(blocker / "run"))
    with pytest.raises(NotADirectoryError):
        experiment.run_jobs(jobs)
    assert multiprocessing.active_children() == []


def test_worker_runs_under_the_callers_warning_filters(tmp_path):
    # the step size overflows the nets; by default that warns, and the run
    # later fails on a non-finite altitude with a ValueError
    cfg = tiny_config(lr=1e300, out_dir=str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            experiment.run_experiment(cfg, methods=["maddpg_only"], quiet=True)
    assert multiprocessing.active_children() == []
