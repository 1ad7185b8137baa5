"""Harness: oracle values, baselines, config files, CLI, emitted artifacts."""

import hashlib
import json
import math
import os
from dataclasses import asdict, fields, is_dataclass

import pytest

from uavcov import experiment
from uavcov.channel import EnvConstants, effective_power, los_probability, received_power
from uavcov.cli import main
from uavcov.config import (ConfigError, ExperimentConfig, build_config, config_hash,
                           dump_config, parse_config_text)
from uavcov.env import EnvConfig
from uavcov.experiment import (CsvWriter, OracleBlocks, block_search_benchmark,
                               oracle_min_blocks, run_single)
from uavcov.learn import TrainSchedule

from conftest import run_cli
from test_channel import link_geometry

CONSTS = EnvConstants()

TINY = dict(n_ues=6, frames=2, episodes=2, steps_per_episode=15, batch_size=8,
            buffer_capacity=64, warmup_transitions=8, update_interval=2,
            hidden=(8, 8), seeds=[1], eval_steps=10)


def tiny_config(**kw):
    overrides = dict(TINY)
    overrides.update(kw)
    return build_config(overrides)


def read_csv(path: str) -> tuple[list[str], list[list[float]]]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    return header, rows


def test_oracle_single_block():
    # per-block rate at this SINR (~6.8e5 bits/s) exceeds a 1e5 threshold
    got = oracle_min_blocks(1e-3, 0.0, 4e-15, 1e5, 1.8e4, 200)
    assert got.blocks == 1.0 and got.within_budget


def test_oracle_zero_power_infeasible():
    got = oracle_min_blocks(0.0, 0.0, 4e-15, 5e6, 1.8e4, 200)
    assert math.isinf(got.blocks) and not got.feasible


def test_oracle_budget_marker():
    # SINR of 1: one block carries 18 kbit/s, needing 278 of the 200 blocks
    got = oracle_min_blocks(4e-15, 0.0, 4e-15, 5e6, 1.8e4, 200)
    assert got.blocks == 278.0 and not got.within_budget
    assert not got.feasible


def test_oracle_vertical_link_fifteen_blocks():
    # 300 m overhead link, 0.1 W, unit fading, recomputed end to end
    geom = link_geometry((0.0, 0.0), (0.0, 0.0, 300.0))
    p_los = los_probability(geom.theta, CONSTS)
    p_eff = effective_power(
        p_los,
        received_power(0.1, geom.r, 1.0, CONSTS.alpha_los),
        received_power(0.1, geom.r, 1.0, CONSTS.alpha_nlos),
    )
    got = oracle_min_blocks(p_eff, 0.0, CONSTS.noise_power, 5e6, 1.8e4, 200)
    assert got == OracleBlocks(blocks=15.0, within_budget=True)


def test_config_defaults_match_tables():
    cfg = build_config({"profile": "full"})
    assert cfg.env.n_ues == 30 and cfg.env.k_max == 5
    assert cfg.env.p_max == 1.0 and cfg.env.b_max == 3.6e6
    assert cfg.env.block_size == 1.8e4 and cfg.env.block_limit == 200
    assert cfg.env.h_min == 300.0 and cfg.env.h_max == 1000.0
    assert cfg.constants.b == 0.136 and cfg.constants.c == 11.95
    assert cfg.constants.alpha_los == 3.0 and cfg.constants.alpha_nlos == 4.0
    assert cfg.constants.noise_power == 4e-15
    assert cfg.cell_size_m == 300.0 and cfg.attraction_prob == 0.4
    assert cfg.n_attraction_points == 3
    assert cfg.schedule.episodes == 100 and cfg.schedule.steps_per_episode == 500
    assert cfg.schedule.batch_size == 512 and cfg.schedule.buffer_capacity == 100_000
    assert cfg.schedule.lr == 1e-4 and cfg.schedule.gamma == 0.99
    assert cfg.schedule.tau == 0.01 and cfg.schedule.hidden == (64, 64)
    assert cfg.schedule.warmup_transitions == 2500


def test_config_roundtrip_and_hash():
    cfg = tiny_config(r_th=7.5e6)
    text = dump_config(cfg)
    reparsed = build_config(parse_config_text(text))
    assert dump_config(reparsed) == text
    assert config_hash(reparsed) == config_hash(cfg)
    moved = build_config({**parse_config_text(text), "out_dir": "elsewhere"})
    assert config_hash(moved) == config_hash(cfg)


def test_config_keys_are_the_dataclass_fields():
    # every field of the three sections and every plain ExperimentConfig
    # field is a key of the same name, dumped once and parsed back
    cfg = build_config({})
    sections = {f.name for f in fields(ExperimentConfig) if is_dataclass(f.type)}
    names = [f.name for f in fields(ExperimentConfig) if f.name not in sections]
    for section in sections:
        names += [f.name for f in fields(getattr(cfg, section))]
    assert len(names) == len(set(names)) == 50
    text = dump_config(cfg)
    assert [line.split(" = ")[0] for line in text.splitlines()] == sorted(names)
    assert set(parse_config_text(text)) == set(names)


def test_config_dump_bytes_pinned():
    # config.txt and the config hash identify every run; a change to either
    # is a change to every run directory
    cfgs = [build_config({}), build_config({"profile": "full"})]  # desk, full
    assert [hashlib.sha256(dump_config(c).encode("utf-8")).hexdigest() for c in cfgs] == [
        "befca6012f3643bb89973c60e81a94e25de303271b009d7603793d2ed4fcd6dc",
        "fae58aa991eda26f1ed9c343e5081f60863f4086d6fa4dc4e5650e2c0ff5b10d"]
    assert [config_hash(c) for c in cfgs] == [
        "57324567e0757b468b570dc56b44c58953bedf45c56376841af578cd39728ea7",
        "87372d461abd2344a1905c544a5fcfcca0faa69c1132ce56816e5d6fe6761815"]


def test_config_unknown_key_named():
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config_text("bogus_key = 3\n")
    with pytest.raises(ConfigError, match="block_limit"):
        parse_config_text("block_limit = many\n")
    with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
        build_config({"bogus": 1})


@pytest.mark.parametrize("key,value", [("episodes", 0), ("steps_per_episode", 0),
                                       ("frames", 0), ("eval_steps", -1),
                                       ("batch_size", 0), ("buffer_capacity", 0),
                                       ("update_interval", 0), ("update_interval", -2),
                                       ("k_max", 0), ("h_min", 0.0), ("h_min", -100.0),
                                       ("n_ues", 0), ("n_ues", -2), ("cell_size_m", 0.0),
                                       ("cell_size_m", -1.0), ("grid_width", 0),
                                       ("grid_height", 0), ("metrics_interval", -3),
                                       ("attraction_prob", -0.1), ("attraction_prob", 1.5)])
def test_degenerate_schedule_rejected(key, value):
    # each would divide by zero, average nothing, silently fall back, leave no
    # UAV to fly or fly one at or below the ground, serve nobody, mirror or
    # empty the field, or fail later inside numpy or GridWorld
    with pytest.raises(ConfigError, match=key):
        tiny_config(**{key: value})
    with pytest.raises(ConfigError, match=key):
        build_config(parse_config_text(f"{key} = {value}\n"))


def test_k_max_one_runs_every_method(tmp_path):
    cfg = tiny_config(k_max=1)
    for method in ("static", "maddpg_only", "flare"):
        summary = run_single(cfg, method, 1, str(tmp_path / method), quiet=True)
        assert [f["k_star"] for f in summary.frames] == [1] * cfg.frames
        assert all(v == 0 for v in summary.audit.values())


def test_oracle_table_matches_scalar_geometry():
    cfg = build_config({})
    env = cfg.env
    for row in experiment.oracle_table(cfg):
        geom = link_geometry((0.0, 0.0), (row["distance_m"], 0.0, row["altitude_m"]))
        p_eff = effective_power(
            los_probability(geom.theta, CONSTS),
            received_power(row["p_tx_w"], geom.r, 1.0, CONSTS.alpha_los),
            received_power(row["p_tx_w"], geom.r, 1.0, CONSTS.alpha_nlos),
        )
        got = oracle_min_blocks(p_eff, 0.0, CONSTS.noise_power, env.r_th, env.block_size,
                                env.block_limit)
        assert (row["blocks"], row["within_budget"]) == (got.blocks, got.within_budget)


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    w = CsvWriter(path, ["a", "b"])
    rows = [(1, 0.5), (2, 1.0 / 3.0), (3, 2.9e-15)]
    for r in rows:
        w.row(*r)
    w.close()
    header, got = read_csv(path)
    assert header == ["a", "b"]
    for (a, b), (ga, gb) in zip(rows, got):
        assert ga == a and gb == b


def test_static_single_ue_clusters_get_everything(tmp_path):
    cfg = tiny_config(n_ues=2, k_max=2, frames=1)
    summary = run_single(cfg, "static", 4, str(tmp_path / "run"), quiet=True)
    assert summary.frames[0]["k_star"] in (1, 2)
    # rebuild the final world state through the API for the structural claim
    from conftest import build_world
    world = build_world([[0.0, 0.0], [20000.0, 20000.0]], [0, 1], k_max=2)
    world.reset_episode(equal_blocks=True)
    for j in world.active_idx:
        assert world.power[j, 0] == pytest.approx(1.0)
        assert world.blocks[j, 0] == 200


def test_static_threshold_monotonicity(tmp_path):
    low = run_single(tiny_config(method="static", r_th=5e6), "static", 7,
                     str(tmp_path / "low"), quiet=True)
    high = run_single(tiny_config(method="static", r_th=1e7), "static", 7,
                      str(tmp_path / "high"), quiet=True)
    for a, b in zip(high.served_by_frame, low.served_by_frame):
        assert a <= b


def test_run_single_writes_all_files(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path))
    out = str(tmp_path / "flare_seed1")
    summary = run_single(cfg, "flare", 1, out, quiet=True)
    for name in ("trajectories.csv", "clusters.csv", "metrics.csv", "rewards.csv",
                 "search_steps.csv", "summary.json", "config.txt"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "summary.json")) as fh:
        doc = json.load(fh)
    assert doc["method"] == "flare" and doc["seed"] == 1
    assert doc["config_hash"] == summary.config_hash
    assert len(doc["frames"]) == cfg.frames
    for f in doc["frames"]:
        assert 0 <= f["served_total"] <= cfg.env.n_ues
        assert 1 <= f["k_star"] <= cfg.env.k_max
    assert set(doc["audit"]) == {"C1", "C4", "C5", "C6", "C7"}
    header, rows = read_csv(os.path.join(out, "trajectories.csv"))
    assert header == ["frame", "ue_id", "grid_x", "grid_y", "x_m", "y_m"]
    assert len(rows) == cfg.frames * cfg.env.n_ues


def test_methods_share_world_streams(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path))
    for method in ("flare", "maddpg_only", "static"):
        run_single(cfg, method, 5, str(tmp_path / f"{method}_seed5"), quiet=True)
    ref_traj = open(tmp_path / "flare_seed5" / "trajectories.csv", "rb").read()
    ref_clus = open(tmp_path / "flare_seed5" / "clusters.csv", "rb").read()
    for method in ("maddpg_only", "static"):
        assert open(tmp_path / f"{method}_seed5" / "trajectories.csv", "rb").read() == ref_traj
        assert open(tmp_path / f"{method}_seed5" / "clusters.csv", "rb").read() == ref_clus


def test_maddpg_only_allocates_no_dqn(monkeypatch, tmp_path):
    def boom(*a, **kw):
        raise AssertionError("DQN pool allocated for maddpg_only")

    monkeypatch.setattr(experiment, "DqnPool", boom)
    cfg = tiny_config()
    summary = run_single(cfg, "maddpg_only", 2, str(tmp_path / "m2"), quiet=True)
    assert summary.episode_search_steps == []
    assert not os.path.exists(tmp_path / "m2" / "search_steps.csv")


def test_maddpg_only_learned_bw_head(tmp_path):
    cfg = tiny_config(maddpg_bw_mode="learned")
    summary = run_single(cfg, "maddpg_only", 3, str(tmp_path / "run"), quiet=True)
    assert all(0 <= f["served_total"] <= cfg.env.n_ues for f in summary.frames)
    assert all(v == 0 for v in summary.audit.values())


def test_run_determinism_api(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path))
    a = run_single(cfg, "flare", 9, str(tmp_path / "a"), quiet=True)
    b = run_single(cfg, "flare", 9, str(tmp_path / "b"), quiet=True)
    assert a.served_by_frame == b.served_by_frame
    assert a.episode_rewards == b.episode_rewards
    for name in ("trajectories.csv", "clusters.csv", "metrics.csv", "rewards.csv",
                 "search_steps.csv", "summary.json"):
        assert open(tmp_path / "a" / name, "rb").read() == open(tmp_path / "b" / name, "rb").read()


def test_run_directory_bytes_pinned(tmp_path):
    """Every file of the tiny_config run directories of seed 1, byte for byte.

    The simulate, static and flare (with checkpoint) directories are hashed
    file by file. The flare digests pass through the learners' many small
    matmuls, so a numpy or BLAS upgrade may move them with no change to this
    code; re-take them then, after checking that the static digests held.
    """
    cfg = tiny_config()
    experiment.run_simulation(cfg, 1, str(tmp_path / "simulate"))
    run_single(cfg, "static", 1, str(tmp_path / "static"), quiet=True)
    run_single(cfg, "flare", 1, str(tmp_path / "flare"), quiet=True, checkpoint=True)
    world = {
        "clusters.csv": "06b80b9df77f49f54f7d401b237e21b9cc7c32c557b566adc0862ff7d7c47aa4",
        "trajectories.csv": "96f6c1cb92f25d253b10b2b3ca74791c89b1b29ca27105d74f0e625fff102151",
    }
    expected = {
        "simulate": {
            **world,
            "config.txt": "29a18955ad7e53e9552b61d0417a5d140d4a2f962de30492ee504b165cad098f",
        },
        "static": {
            **world,
            "config.txt": "d6d5057d624bb1685e2f9293f6791ee00bdb3cc34443103620f84658121d0241",
            "metrics.csv": "385c03626b7dea733bf2855cb79328cb4a3b686efbb4102c3dbae63c24507314",
            "rewards.csv": "67ef8135d3c28fb9b086b1740c17301ab07942cab650ced1f5f073ed793a8377",
            "summary.json": "98cb7a8a028b8beb3feb4563ece022871fcad629ceda1739065a3459ba707356",
        },
        "flare": {
            **world,
            "checkpoint.bin": "5a48b828c462e23e2b9f5fa88cbd3f926781b881ec97d377842d0c853df1147e",
            "config.txt": "5f37476f5ff51dc020d789930790f1646c6b98f062f4971c429b9bb367a6fb56",
            "metrics.csv": "3e0aef6ccd297faacc0eb55ec0f614a12d9cf06ca93f97e770b35c60761b8362",
            "rewards.csv": "012e782188ee7ff8e3aae14e59c6c82e7fb9d042faffd1e28f63a39edf1ed25a",
            "search_steps.csv": "c9f0778357e620f371333478927facaf030955058c269b0b4b4cd26d88b97c05",
            "summary.json": "ca363c5bfefba2c019acb89e2ea6ef06308037f21503378bc7baffae44c05c7a",
        },
    }
    got = {kind: {name: hashlib.sha256((tmp_path / kind / name).read_bytes()).hexdigest()
                  for name in os.listdir(tmp_path / kind)}
           for kind in expected}
    assert got == expected


def test_block_search_outcomes_pinned():
    """The single-link DQN lane on a short criterion-3 schedule, outcome for outcome.

    Two links of master seed 3030, warm after 32 transitions, so every later
    step runs a dqn_update; the search steps vary from episode to episode,
    so a change to the exploration draws or to the greedy walk moves them.
    """
    schedule = TrainSchedule(episodes=8, steps_per_episode=60, batch_size=16,
                             buffer_capacity=480, warmup_transitions=32, update_interval=1,
                             hidden=(16, 16), lr=1e-3, eps_start=1.0, eps_end=0.02,
                             eps_frac=0.6)
    outcomes = block_search_benchmark(2, EnvConfig(), CONSTS, schedule, 3030)
    text = json.dumps([asdict(o) for o in outcomes], sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "28b4385d38f1120deddd01789c98d718d1ae7d7930b21d358b4b880802425b64")


def test_static_metrics_rows_log_the_last_evaluated_step(tmp_path):
    # tiny_config evaluates 10 of its 15 steps per episode; the rows stay at episode 0
    cfg = tiny_config()
    run_single(cfg, "static", 1, str(tmp_path / "run"), quiet=True)
    header, rows = read_csv(str(tmp_path / "run" / "metrics.csv"))
    ep, ts = header.index("episode"), header.index("timestep")
    assert len(rows) > 0
    assert {(r[ep], r[ts]) for r in rows} == {(0.0, cfg.eval_steps - 1)}


def test_local_critic_mode_runs(tmp_path):
    cfg = tiny_config(critic_mode="local")
    summary = run_single(cfg, "flare", 1, str(tmp_path / "run"), quiet=True)
    assert len(summary.episode_rewards) == cfg.frames * cfg.schedule.episodes


def test_cli_simulate_and_oracle(tmp_path):
    out = str(tmp_path / "sim")
    code = main(["simulate", "--frames", "3", "--seed", "7", "--out", out])
    assert code == 0
    run_dir = os.path.join(out, "simulate_seed7")
    assert os.path.exists(os.path.join(run_dir, "trajectories.csv"))
    assert os.path.exists(os.path.join(run_dir, "clusters.csv"))
    assert not os.path.exists(os.path.join(run_dir, "metrics.csv"))
    assert main(["oracle", "--config", "default"]) == 0


def test_cli_train_tiny(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("".join(f"{k} = {v if not isinstance(v, (list, tuple)) else ','.join(map(str, v))}\n"
                                for k, v in TINY.items()))
    code = main(["train", "--config", str(cfg_path), "--method", "flare",
                 "--rate-threshold", "5000000", "--out", str(tmp_path / "runs")])
    assert code == 0
    assert os.path.exists(tmp_path / "runs" / "flare_seed1" / "summary.json")


def test_cli_invalid_config_names_key(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("not_a_real_key = 1\n")
    code = main(["train", "--config", str(cfg_path)])
    assert code != 0
    assert "not_a_real_key" in capsys.readouterr().err


def test_cli_unknown_flag_nonzero():
    proc = run_cli("train", "--bogus")
    assert proc.returncode != 0
    assert "--bogus" in proc.stderr


def test_cli_help_documents_flags():
    proc = run_cli("train", "--help")
    assert proc.returncode == 0
    for flag in ("--config", "--seed", "--method", "--rate-threshold", "--frames",
                 "--episodes", "--out"):
        assert flag in proc.stdout


def test_run_experiment_comparison(tmp_path):
    cfg = tiny_config(out_dir=str(tmp_path), seeds=[1, 2])
    comparison = experiment.run_experiment(cfg, methods=["flare", "maddpg_only", "static"],
                                           quiet=True)
    assert os.path.exists(tmp_path / "comparison.json")
    with open(tmp_path / "comparison.json") as fh:
        doc = json.load(fh)
    assert doc == comparison
    assert set(doc["methods"]) == {"flare", "maddpg_only", "static"}
    assert doc["seeds"] == [1, 2]
    for stats in doc["methods"].values():
        assert len(stats["served_by_frame_mean"]) == cfg.frames
        assert len(stats["per_seed_mean_served"]) == 2
    assert "flare_over_maddpg_ratio" in doc


def test_cli_evaluate_tiny(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("".join(
        f"{k} = {v if not isinstance(v, (list, tuple)) else ','.join(map(str, v))}\n"
        for k, v in TINY.items()))
    code = main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "cmp")])
    assert code == 0
    assert os.path.exists(tmp_path / "cmp" / "comparison.json")
    for method in ("flare", "maddpg_only", "static"):
        assert os.path.exists(tmp_path / "cmp" / f"{method}_seed1" / "summary.json")


def test_cli_train_checkpoint_flag(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text("".join(
        f"{k} = {v if not isinstance(v, (list, tuple)) else ','.join(map(str, v))}\n"
        for k, v in TINY.items()))
    code = main(["train", "--config", str(cfg_path), "--method", "maddpg_only",
                 "--out", str(tmp_path / "runs"), "--checkpoint"])
    assert code == 0
    ck = tmp_path / "runs" / "maddpg_only_seed1" / "checkpoint.bin"
    assert ck.exists()
    from uavcov.learn import CHECKPOINT_MAGIC
    assert ck.read_bytes().startswith(CHECKPOINT_MAGIC)


def test_run_single_cleans_partial_output(tmp_path, monkeypatch):
    cfg = tiny_config()
    out = tmp_path / "doomed"
    calls = {"n": 0}
    original = experiment.CsvWriter.row

    def flaky(self, *values):
        calls["n"] += 1
        if calls["n"] > 10:
            raise OSError("disk full")
        return original(self, *values)

    monkeypatch.setattr(experiment.CsvWriter, "row", flaky)
    with pytest.raises(OSError):
        experiment.run_single(cfg, "static", 1, str(out), quiet=True)
    assert not out.exists()


def test_rerun_keeps_no_stale_file(tmp_path):
    cfg = tiny_config()
    out = tmp_path / "run"
    run_single(cfg, "maddpg_only", 1, str(out), quiet=True, checkpoint=True)
    assert (out / "checkpoint.bin").exists()
    run_single(cfg, "maddpg_only", 1, str(out), quiet=True)
    assert not (out / "checkpoint.bin").exists()
    assert os.listdir(tmp_path) == ["run"]


def test_failed_rerun_keeps_the_earlier_run_directory(tmp_path, monkeypatch):
    cfg = tiny_config()
    out = tmp_path / "run"
    run_single(cfg, "static", 1, str(out), quiet=True)
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}

    def failing(self, *values):
        raise OSError("disk full")

    monkeypatch.setattr(experiment.CsvWriter, "row", failing)
    with pytest.raises(OSError, match="disk full"):
        run_single(cfg, "static", 1, str(out), quiet=True)
    assert os.listdir(tmp_path) == ["run"]
    assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
