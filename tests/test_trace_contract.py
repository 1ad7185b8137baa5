"""The benchmark's span recorder finds every name it wraps in the program.

perfbench/spans.py patches functions and methods where their callers look
them up (`vars(owner)[attr]`). A rename or a moved import breaks only traced
benchmark runs, so this test installs the recorder around a tiny flare run.
The recorder's counts also pin that a static frame is one evaluate call over
its whole horizon, with one fading draw per step, that the silhouette runs
under its wrapped name, and that a flare run allocates its replay once, not
per slot or per frame. A tiny panel of every kind of benchmark operation
reads every span metric above zero, so a wrapped name that silently drops
off the program path fails here rather than reading 0 in a report.
"""

import importlib.util
import os

from uavcov import clustering, experiment, learn
from uavcov.channel import EnvConstants
from uavcov.env import EnvConfig
from uavcov.learn import TrainSchedule

from test_harness import tiny_config

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_recorder_wraps_a_flare_run_and_restores_every_name(tmp_path):
    spans = load_spans()
    pairs = [(owner, attr) for owner, attr, _, _ in spans.SPANS]
    pairs += [(clustering, "kmeans"), (learn.ReplayBuffer, "__init__"),
              (learn.MaddpgLearner, "__init__")]
    originals = {(id(owner), attr): vars(owner)[attr] for owner, attr in pairs}

    recorder = spans.SpanRecorder()
    try:
        recorder.install()
        assert all(vars(owner)[attr] is not originals[id(owner), attr]
                   for owner, attr in pairs)
        experiment.run_single(tiny_config(), "flare", 1, str(tmp_path / "run"), quiet=True)
    finally:
        recorder.uninstall()

    assert all(vars(owner)[attr] is originals[id(owner), attr] for owner, attr in pairs)
    metrics = recorder.layer_metrics(1)
    assert metrics["learn.train_frame_s"] > 0
    assert metrics["learn.dqn_select_calls"] > 0


def traced_metrics(cfg, method, out_dir):
    """Per-layer metrics of one traced run_single call."""
    recorder = load_spans().SpanRecorder()
    try:
        recorder.install()
        experiment.run_single(cfg, method, 1, out_dir, quiet=True)
    finally:
        recorder.uninstall()
    return recorder.layer_metrics(1)


def test_static_frames_evaluate_their_horizon_in_one_call(tmp_path):
    # the held allocation of a static frame is one evaluate call that still
    # draws every step's fading
    cfg = tiny_config()
    metrics = traced_metrics(cfg, "static", str(tmp_path / "run"))
    assert metrics["env.evaluate_calls"] == cfg.frames
    assert metrics["channel.fading_draw_calls"] == cfg.frames * cfg.eval_steps
    # select_k scores each k through the wrapped clustering.silhouette_samples
    assert metrics["clustering.silhouette_s"] > 0


def test_flare_allocates_its_replay_once_per_run(tmp_path):
    # one MADDPG ring and one (n_ues, cap, dim) DQN store over both frames
    cfg = tiny_config()
    env, sch = cfg.env, cfg.schedule
    assert cfg.frames == 2
    cap = min(sch.buffer_capacity, sch.episodes * sch.steps_per_episode)
    maddpg_dim = env.k_max * (2 * env.obs_dim + env.act_dim() + 1) + 1
    dqn_dim = env.n_ues * (2 * env.dqn_obs_dim + 3)
    metrics = traced_metrics(cfg, "flare", str(tmp_path / "run"))
    assert metrics["learn.replay_buffer_bytes"] == 4 * cap * (maddpg_dim + dqn_dim)


def test_every_span_metric_reads_above_zero_on_a_tiny_panel(tmp_path):
    # flare, maddpg_only, static, simulate and a 1-link block search, all traced
    cfg = tiny_config()
    schedule = TrainSchedule(episodes=4, steps_per_episode=30, batch_size=8,
                             buffer_capacity=120, warmup_transitions=16, update_interval=1,
                             hidden=(8, 8), lr=1e-3)
    recorder = load_spans().SpanRecorder()
    try:
        recorder.install()
        for method in ("flare", "maddpg_only", "static"):
            experiment.run_single(cfg, method, 1, str(tmp_path / method), quiet=True)
        experiment.run_simulation(cfg, 1, str(tmp_path / "simulate"))
        experiment.block_search_benchmark(1, EnvConfig(), EnvConstants(), schedule, 3030)
    finally:
        recorder.uninstall()
    metrics = recorder.layer_metrics(1)
    # select_k batches its k-means restarts without calling clustering.kmeans
    exempt = {"clustering.kmeans_calls"}
    assert [name for name, value in metrics.items() if value <= 0 and name not in exempt] == []
