"""Span recorder that wraps uavcov's public functions from outside the program.

Each wrapped call records one span: its name, start, end and parent (the span
that was open when it began). Spans are kept in flat arrays in memory and
written once, when the benchmark process ends. A span's self time is its
duration minus the durations of its child spans.

A wrapper is installed where the caller looks the name up: a function that a
module imported by name is patched on the importing module, and methods are
patched on their classes. Some boundaries are only counted, not timed:
k-means restarts (their time stays in select_k's self time), replay buffer
allocations and the target actors of each MADDPG learner.
"""

import time
from array import array

import numpy as np

from uavcov import channel, clustering, env, experiment, learn, mobility, nn


def _batch_rows(_self, x, *args, **kwargs):
    return 1 if np.ndim(x) == 1 else len(x)


def _first_len(_self, first, *args, **kwargs):
    return len(first)


# (owner, attribute, span name, rows of work per call)
SPANS = (
    (mobility, "step_frame", "mobility.step_frame", None),
    (clustering, "select_k", "clustering.select_k", None),
    (clustering, "silhouette_samples", "clustering.silhouette", None),
    (channel.FadingField, "draw", "channel.fading_draw", None),
    (env.FrameWorld, "evaluate", "env.evaluate", None),
    (env.FrameWorld, "maddpg_obs", "env.maddpg_obs", None),
    (env.FrameWorld, "apply_maddpg_action", "env.apply_maddpg_action", None),
    (env.FrameWorld, "dqn_obs", "env.dqn_obs", None),
    (env.FrameWorld, "apply_block_action", "env.apply_block_action", None),
    (nn.Mlp, "forward", "nn.mlp_forward", _batch_rows),
    (nn.Mlp, "forward_cached", "nn.mlp_forward", _batch_rows),
    (nn.Mlp, "backward", "nn.mlp_backward", None),
    (nn.Adam, "step", "nn.adam_step", None),
    (learn, "soft_update", "nn.soft_update", None),
    (experiment, "train_frame", "learn.train_frame", None),
    (learn, "maddpg_select_action", "learn.actor_select", None),
    (learn.MaddpgLearner, "update", "learn.maddpg_update", None),
    (learn.DqnPool, "select_many", "learn.dqn_select", _first_len),
    (learn.DqnPool, "update_many", "learn.dqn_update", None),
    (learn.StackedQnets, "update", "learn.stacked_update", _first_len),
    (learn.ReplayBuffer, "add", "learn.replay_add", None),
    (learn.ReplayBuffer, "sample", "learn.replay_sample", None),
    (experiment, "dqn_select_action", "learn.dqn_single_select", None),
    (experiment, "dqn_update", "learn.dqn_single_update", None),
    (experiment.CsvWriter, "row", "experiment.csv_row", None),
    (experiment, "run_single", "experiment.harness", None),
    (experiment, "run_simulation", "experiment.harness", None),
    (experiment, "block_search_benchmark", "experiment.harness", None),
)

# Per-layer metric suffixes reported for each span name.
SPAN_METRICS = (
    ("mobility.step_frame", ("s", "calls")),
    ("clustering.select_k", ("s",)),
    ("clustering.silhouette", ("s",)),
    ("channel.fading_draw", ("s", "calls")),
    ("env.evaluate", ("s", "calls")),
    ("env.maddpg_obs", ("s", "calls")),
    ("env.apply_maddpg_action", ("s", "calls")),
    ("env.dqn_obs", ("s", "calls")),
    ("env.apply_block_action", ("s", "calls")),
    ("nn.mlp_forward", ("s", "calls", "rows")),
    ("nn.mlp_backward", ("s", "calls")),
    ("nn.adam_step", ("s", "calls")),
    ("nn.soft_update", ("s", "calls")),
    ("learn.train_frame", ("s",)),
    ("learn.actor_select", ("s", "calls")),
    ("learn.maddpg_update", ("s", "calls")),
    ("learn.dqn_select", ("s", "calls", "rows")),
    ("learn.dqn_update", ("s", "calls")),
    ("learn.stacked_update", ("s",)),
    ("learn.replay_add", ("s", "calls")),
    ("learn.replay_sample", ("s", "calls")),
    ("learn.dqn_single_select", ("s", "calls")),
    ("learn.dqn_single_update", ("s", "calls")),
    ("experiment.csv_row", ("s", "calls")),
    ("experiment.harness", ("s",)),
)

# Counts that are not a span's calls or rows.
COUNT_METRICS = ("clustering.kmeans_calls", "learn.maddpg_target_forwards",
                 "learn.dqn_rows_updated", "learn.replay_buffer_bytes",
                 "experiment.output_bytes")

OVERHEAD_METRIC = "trace.overhead_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, suffixes in SPAN_METRICS:
        for suffix in suffixes:
            units[f"{span}_{suffix}"] = "s" if suffix == "s" else "count"
    for name in COUNT_METRICS:
        units[name] = "bytes" if name.endswith("_bytes") else "count"
    units[OVERHEAD_METRIC] = "s"
    return units


class SpanRecorder:
    """Installs the wrappers, records spans and reduces them to per-layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rows = array("q")
        self.target = array("b")      # 1 for a forward pass of a MADDPG target actor
        self.kmeans_calls = 0
        self.replay_buffer_bytes = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._target_actors: list[nn.Mlp] = []   # held so their ids stay unique
        self._target_ids: set[int] = set()

    # ----- installation -----

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, span, rows in SPANS:
            self._patch(owner, attr, self._span_wrapper(span, vars(owner)[attr], rows,
                                                        mark_target=span == "nn.mlp_forward"))
        self._patch(clustering, "kmeans", self._kmeans_counter(vars(clustering)["kmeans"]))
        self._patch(learn.ReplayBuffer, "__init__",
                    self._buffer_counter(vars(learn.ReplayBuffer)["__init__"]))
        self._patch(learn.MaddpgLearner, "__init__",
                    self._learner_hook(vars(learn.MaddpgLearner)["__init__"]))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def _span_wrapper(self, span: str, fn, rows, mark_target: bool):
        nid = self._name_id(span)
        clock = time.perf_counter
        stack = self._stack
        targets = self._target_ids

        def wrapper(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.rows.append(rows(*args, **kwargs) if rows is not None else 0)
            self.target.append(1 if mark_target and id(args[0]) in targets else 0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()

        return wrapper

    def _kmeans_counter(self, fn):
        def wrapper(*args, **kwargs):
            self.kmeans_calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _buffer_counter(self, fn):
        def wrapper(buf, *args, **kwargs):
            fn(buf, *args, **kwargs)
            self.replay_buffer_bytes += sum(a.nbytes for a in buf._data.values())
        return wrapper

    def _learner_hook(self, fn):
        def wrapper(learner, *args, **kwargs):
            fn(learner, *args, **kwargs)
            for net in learner.actor_targets:
                self._target_actors.append(net)
                self._target_ids.add(id(net))
        return wrapper

    # ----- reduction -----

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self.name, dtype=np.uint16),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "rows": np.array(self.rows, dtype=np.int64),
            "target": np.array(self.target, dtype=np.int8),
        }

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round self times and counts of every per-layer metric but the overhead."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
        self_time = np.bincount(a["name"], weights=dur - covered, minlength=n_names)
        calls = np.bincount(a["name"], minlength=n_names)
        rows = np.bincount(a["name"], weights=a["rows"], minlength=n_names)

        def sid(span):
            return self.names.index(span)

        out: dict[str, float] = {}
        for span, suffixes in SPAN_METRICS:
            i = sid(span)
            for suffix in suffixes:
                if suffix == "s":
                    out[f"{span}_s"] = float(self_time[i]) / rounds
                elif suffix == "calls":
                    out[f"{span}_calls"] = _per_round(int(calls[i]), rounds)
                else:
                    out[f"{span}_rows"] = _per_round(int(rows[i]), rounds)
        fwd = a["name"] == sid("nn.mlp_forward")
        parent_name = np.full(dur.size, -1, dtype=np.int64)
        parent_name[child] = a["name"][a["parent"][child]]
        in_update = parent_name == sid("learn.maddpg_update")
        out["clustering.kmeans_calls"] = _per_round(self.kmeans_calls, rounds)
        out["learn.maddpg_target_forwards"] = _per_round(
            int(np.count_nonzero(fwd & in_update & (a["target"] == 1))), rounds)
        out["learn.dqn_rows_updated"] = _per_round(int(rows[sid("learn.stacked_update")]), rounds)
        out["learn.replay_buffer_bytes"] = _per_round(self.replay_buffer_bytes, rounds)
        return out

    def save(self, path: str):
        np.savez(path, names=np.array(self.names), **self.arrays())


def _per_round(total: int, rounds: int) -> int:
    if total % rounds:
        raise RuntimeError(f"a count of {total} over {rounds} identical rounds is uneven")
    return total // rounds
