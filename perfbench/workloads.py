"""The benchmark's workloads: fixed input panels and the calls into uavcov.

Each workload is a round of operations. An operation is one (method, seed)
run of the harness, or one link of the block-search benchmark. Every round of
a workload runs the same operations on the same inputs, so every round writes
the same bytes and reports the same served count.

The program seeds of a workload are a fixed panel. A world's served count
depends strongly on the world: one frame of flare on the desk profile cut to
eight episodes served 4.8, 1.4, 15.2 and 8.2 users on seeds 1 to 4. A panel
drawn from the benchmark seed would therefore move served_users by more than
any bound a regression check can use. The benchmark seed instead fixes the
order in which a round runs the panel's operations; no output depends on
that order.
"""

import os
from dataclasses import dataclass

import numpy as np

from uavcov import experiment
from uavcov.channel import EnvConstants
from uavcov.config import ExperimentConfig, build_config
from uavcov.env import EnvConfig
from uavcov.learn import TrainSchedule

# Desk profile at the paper's 5 Mbps threshold and 30 UEs, two frames of
# world 2, in which k* rises from 3 to 5 and the DQN pool grows. A desk frame
# is 20 episodes of 200 steps, a quarter of them warm-up; it takes about 15 s
# of flare. The cut keeps those proportions and the update intervals: six
# episodes of 100 steps, 150 of them warm-up, so a frame takes about 3 s.
# The learners' buffers hold one frame, so they are 600 transitions here
# against 4000 at desk.
LEARNED_WORLDS = (2,)
LEARNED_OVERRIDES = {"r_th": 5e6, "n_ues": 30, "frames": 2, "episodes": 6,
                     "steps_per_episode": 100, "warmup_transitions": 150}

# No learning: mobility, clustering, the static allocation's channel
# evaluation and CSV output over many frames.
WORLD_SEEDS = (1, 2, 3)
WORLD_OVERRIDES = {"r_th": 5e6, "n_ues": 30, "frames": 20}

# The criterion-3 schedule of the acceptance suite, on a few links per call.
BLOCK_MASTER_SEEDS = (3030, 3031, 3032)
BLOCK_LINKS_PER_CALL = 4
BLOCK_SCHEDULE = {"episodes": 40, "steps_per_episode": 150, "batch_size": 64,
                  "buffer_capacity": 6000, "warmup_transitions": 300,
                  "update_interval": 1, "hidden": (32, 32), "lr": 1e-3,
                  "eps_start": 1.0, "eps_end": 0.02, "eps_frac": 0.25}
# Served links per round may not fall below this share of the links.
BLOCK_SERVED_FLOOR = 0.9


@dataclass(frozen=True)
class Op:
    """One operation of a round."""

    kind: str      # "flare", "maddpg_only", "static", "simulate" or "block_search"
    seed: int      # program seed, or the master seed of a block-search call

    @property
    def name(self) -> str:
        return f"{self.kind}_seed{self.seed}"

    @property
    def attempted(self) -> int:
        return BLOCK_LINKS_PER_CALL if self.kind == "block_search" else 1


def config_for(op: Op) -> ExperimentConfig:
    overrides = LEARNED_OVERRIDES if op.kind in ("flare", "maddpg_only") else WORLD_OVERRIDES
    return build_config(dict(overrides, seeds=[op.seed]))


def block_inputs() -> tuple[EnvConfig, EnvConstants, TrainSchedule]:
    return EnvConfig(), EnvConstants(), TrainSchedule(**BLOCK_SCHEDULE)


def round_ops(workload: str, bench_seed: int) -> list[Op]:
    """The operations of one round, in the order the benchmark seed gives."""
    if workload in ("flare", "maddpg_only"):
        ops = [Op(workload, s) for s in LEARNED_WORLDS]
    elif workload == "world":
        ops = [Op(kind, s) for s in WORLD_SEEDS for kind in ("simulate", "static")]
    elif workload == "block_search":
        ops = [Op("block_search", s) for s in BLOCK_MASTER_SEEDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = np.random.default_rng(bench_seed).permutation(len(ops))
    return [ops[i] for i in order]


def run_op(op: Op, out_dir: str, inputs: dict):
    """Call uavcov's public entry point for one operation; returns its result."""
    path = os.path.join(out_dir, op.name)
    if op.kind == "simulate":
        return experiment.run_simulation(inputs[op], op.seed, path)
    if op.kind == "block_search":
        env_cfg, consts, schedule = inputs[op]
        return experiment.block_search_benchmark(BLOCK_LINKS_PER_CALL, env_cfg, consts,
                                                 schedule, op.seed)
    return experiment.run_single(inputs[op], op.kind, op.seed, path, quiet=True)


def build_inputs(ops: list[Op]) -> dict:
    """Everything the program receives, built before the first timed call."""
    return {op: block_inputs() if op.kind == "block_search" else config_for(op)
            for op in ops}
