"""Multi-agent decision environment for one mobility frame.

A FrameWorld is built from a single frame's users and ClusterPlan: the UAV
serving cluster c hovers over its centroid at mid altitude, and the cluster's
users fill that UAV's slots. It exposes the per-timestep machinery:
observation vectors, application of normalized actions onto the altitude
interval and the power and block budgets, rate/reward evaluation, and the
serve-and-freeze bookkeeping.
Evaluation takes one step or a 1-D array of steps over which the allocation
is held: only the fading differs between those steps, so the geometry, LoS
probability, interferer powers and audit are computed once for all of them.

Feasibility is enforced by construction: actions arrive as masked-softmax
budget fractions and an altitude in [0, 1] (learn.squash_raw_actions), block
edits are clamped to the remaining budget, and UAV horizontal positions are
cluster centroids of in-field points. Every evaluation additionally audits
the budget/coverage constraints and counts violations (expected zero).
"""

from dataclasses import dataclass

import numpy as np

from . import channel
from .channel import EnvConstants
from .clustering import ClusterPlan


@dataclass
class EnvConfig:
    n_ues: int = 30
    k_max: int = 5
    p_max: float = 1.0            # W per UAV
    b_max: float = 3.6e6          # Hz per UAV
    block_size: float = 1.8e4     # Hz per resource block
    block_limit: int = 200        # blocks per UAV
    h_min: float = 300.0          # m
    h_max: float = 1000.0         # m
    r_th: float = 5e6             # bits/s service threshold
    max_cluster_size: int = 0     # 0 means n_ues (worst case)
    p_avg_mode: str = "budget"    # interference power: "budget" or "allocated"

    def __post_init__(self):
        if self.n_ues < 1:
            raise ValueError(f"n_ues must be at least 1, got {self.n_ues}")
        if self.max_cluster_size <= 0:
            self.max_cluster_size = self.n_ues
        if abs(self.block_limit * self.block_size - self.b_max) > 1e-6:
            raise ValueError("block_limit * block_size must equal b_max")
        if self.k_max < 1:
            raise ValueError(f"k_max must be at least 1, got {self.k_max}")
        if self.h_min <= 0:
            raise ValueError(f"h_min must be positive, got {self.h_min}")
        if not self.h_min < self.h_max:
            raise ValueError("h_min must be below h_max")
        if self.p_max <= 0:
            raise ValueError("p_max must be positive")
        if self.r_th <= 0:
            raise ValueError("r_th must be positive")
        if self.p_avg_mode not in ("budget", "allocated"):
            raise ValueError(f"unknown p_avg_mode: {self.p_avg_mode}")

    @property
    def slots(self) -> int:
        return self.max_cluster_size

    @property
    def obs_dim(self) -> int:
        # altitude + per-slot power + per-slot blocks + served ratio + size ratio
        return 2 * self.slots + 3

    @property
    def dqn_obs_dim(self) -> int:
        return self.obs_dim + 4

    def act_dim(self, bw_head: bool = False) -> int:
        return 1 + self.slots + (self.slots if bw_head else 0)


class FrameWorld:
    """Mutable per-frame state of all agents plus the evaluation machinery.

    Per-UAV state lives in arrays over (k_max,) and per-slot state over
    (k_max, slots). Padding slots and inactive UAVs stay zero (False) in every
    array, so whole-row reductions count only assigned users. Horizontal
    positions xy are the frame's placement and read-only; altitude, power
    and blocks are the decisions.
    """

    def __init__(self, cfg: EnvConfig, constants: EnvConstants, ue_xy_m: np.ndarray,
                 plan: ClusterPlan, fading: channel.FadingField, frame: int,
                 field_size_m: tuple[float, float]):
        self.cfg = cfg
        self.constants = constants
        self.ue_xy = np.asarray(ue_xy_m, dtype=float)
        self.frame = int(frame)
        self.fading = fading
        self.audit = {c: 0 for c in ("C1", "C4", "C5", "C6", "C7")}

        K, S = cfg.k_max, cfg.slots
        self.active_idx = sorted(plan.active_uavs)
        self.slot_ues = np.full((K, S), -1, dtype=np.int64)   # UE index or -1 padding
        self.xy = np.zeros((K, 2))
        self.h = np.zeros(K)
        for c, j in enumerate(plan.active_uavs):
            members = np.flatnonzero(plan.assignment == c)
            if members.size > S:
                raise ValueError("cluster exceeds the configured slot count")
            self.slot_ues[j, : members.size] = members
            self.xy[j] = plan.centroids[c]
            self.h[j] = (cfg.h_min + cfg.h_max) / 2.0
        self.mask = self.slot_ues >= 0
        self.n_slots = self.mask.sum(axis=1)
        self.power = np.zeros((K, S))                     # W
        self.blocks = np.zeros((K, S), dtype=np.int64)
        self.served = np.zeros((K, S), dtype=bool)
        self.frozen = np.zeros((K, S), dtype=bool)
        # UE -> (UAV, slot), and the UAV's column among the active UAVs
        js, ss = np.nonzero(self.mask)
        self.uav_of_ue = np.full(cfg.n_ues, -1, dtype=np.int64)
        self.slot_of_ue = np.full(cfg.n_ues, -1, dtype=np.int64)
        self.uav_of_ue[self.slot_ues[js, ss]] = js
        self.slot_of_ue[self.slot_ues[js, ss]] = ss
        self.serving_col = np.searchsorted(self.active_idx, self.uav_of_ue)
        # The placement is fixed for the frame: ground distances and the
        # field audit are computed once, and xy is read-only.
        self.xy.flags.writeable = False
        self._act = np.array(self.active_idx, dtype=np.int64)
        self._share = np.maximum(1, self.n_slots[self._act])
        self._ground_d = channel.horizontal_distances(self.ue_xy, self.xy[self._act])
        w, hgt = field_size_m
        x, y = self.xy[self._act].T
        in_field = (0.0 <= x) & (x <= w) & (0.0 <= y) & (y <= hgt)
        self._outside_field = int(np.count_nonzero(~in_field))
        # Flat gather indices of each UE: its serving link and its links to
        # the active UAVs in a (n_ues, k_max) fading draw, its (uav, slot) in
        # the (k_max, slots) arrays, its serving link in (n_ues, |active|).
        rows = np.arange(cfg.n_ues)
        self._serving_link = rows * K + self.uav_of_ue
        self._active_links = rows[:, None] * K + self._act
        self._slot_flat = self.uav_of_ue * S + self.slot_of_ue
        self._serving_flat = rows * self._act.size + self.serving_col
        self._ue_uav = np.zeros((cfg.n_ues, K))           # one-hot serving UAV per UE
        self._ue_uav[rows, self.uav_of_ue] = 1.0

    # ----- per-episode reset -----

    def reset_episode(self, equal_blocks: bool):
        """Fresh allocation state: mid altitude, uniform power, blocks 0 or equal split."""
        cfg = self.cfg
        share = np.maximum(1, self.n_slots)[:, None]
        self.h[self.active_idx] = (cfg.h_min + cfg.h_max) / 2.0
        self.power[...] = np.where(self.mask, cfg.p_max / share, 0.0)
        self.blocks[...] = np.where(self.mask, cfg.block_limit // share, 0) if equal_blocks else 0
        self.served[...] = False
        self.frozen[...] = False

    # ----- observations -----

    def maddpg_obs(self) -> np.ndarray:
        """(k_max, obs_dim) observation matrix; inactive agents are all-zero rows."""
        cfg = self.cfg
        S = cfg.slots
        act = self.active_idx
        out = np.zeros((cfg.k_max, cfg.obs_dim))
        out[act, 0] = (self.h[act] - cfg.h_min) / (cfg.h_max - cfg.h_min)
        out[:, 1: 1 + S] = self.power / cfg.p_max
        out[:, 1 + S: 1 + 2 * S] = self.blocks / cfg.block_limit
        out[act, -2] = self.served[act].sum(axis=1) / self.n_slots[act]
        out[:, -1] = self.n_slots / cfg.n_ues
        return out

    def dqn_obs(self, obs: np.ndarray, js: np.ndarray, ss: np.ndarray) -> np.ndarray:
        """Per-user states of slots (js, ss): the UAV's observation row plus the slot's fields."""
        cfg = self.cfg
        tail = np.column_stack([
            (self.h[js] - cfg.h_min) / (cfg.h_max - cfg.h_min),
            self.power[js, ss] / cfg.p_max,
            self.blocks[js, ss] / cfg.block_limit,
            self.served[js, ss].astype(float),
        ])
        return np.concatenate([obs[js], tail], axis=1)

    # ----- action application -----

    def apply_maddpg_action(self, actions: np.ndarray):
        """Set the active UAVs' altitude, power and (optional) blocks from normalized actions.

        actions is (k_max, act_dim): row j is UAV j's [altitude01, power
        fractions (, bandwidth fractions)], as learn.squash_raw_actions gives
        them; inactive rows are ignored. The bandwidth fractions are quantized
        down to whole blocks, so the budget holds by construction.
        """
        cfg = self.cfg
        act, S = self._act, cfg.slots
        rows = actions[act]
        if not np.isfinite(rows).all():
            raise ValueError("actions must be finite")
        self.h[act] = cfg.h_min + rows[:, 0] * (cfg.h_max - cfg.h_min)
        self.power[act] = rows[:, 1:1 + S] * cfg.p_max
        if rows.shape[1] > 1 + S:
            self.blocks[act] = np.floor(rows[:, 1 + S:] * cfg.block_limit).astype(np.int64)

    def apply_block_action(self, j, s, action):
        """Increment/decrement slots' blocks within each UAV's shared budget.

        j, s and action are one slot's, or arrays over distinct slots; the
        result is that of one call per slot in row-major order. Frozen slots
        ignore actions; each result is clamped to
        [0, block_limit - sum(other slots)] so the budget always holds.

        Per UAV, a slot's move x (the action, floored at minus its blocks)
        only meets the top clamp, which the running block sum S hits when
        S0 + cumsum(x) reaches block_limit. S is then the walk reflected
        there, S = P + min(S0, block_limit - max(P up to here)) with
        P = cumsum(x), and each slot moves by the step of S it makes.
        """
        x = np.zeros_like(self.blocks)
        x[j, s] = np.where(self.frozen[j, s], 0, np.maximum(action, -self.blocks[j, s]))
        p = np.cumsum(x, axis=1)
        s0 = self.blocks.sum(axis=1, keepdims=True)
        running = p + np.minimum(s0, self.cfg.block_limit - np.maximum.accumulate(p, axis=1))
        self.blocks += np.diff(running, axis=1, prepend=s0)

    # ----- evaluation -----

    def interferer_power(self) -> np.ndarray:
        """Per-active-UAV average transmit power used in the interference sum."""
        cfg = self.cfg
        if cfg.p_avg_mode == "budget":
            return cfg.p_max / self._share
        sums = [self.power[j, : self.n_slots[j]].sum() for j in self.active_idx]
        return np.array(sums) / self._share

    def evaluate(self, episode: int, step):
        """Rates, serve flags and rewards for the current allocations.

        step is one step or a 1-D array of steps over which the allocation
        is held. Each step draws its own (frame, episode, step) fading;
        every assigned link's rate includes inter-UAV NLoS interference.
        Returns (rates, served flags, per-agent rewards, per-UE rewards),
        each with a leading step axis when step is an array. The state ends
        as after one call per step in order: served holds the last step's
        flags, frozen latches every step's, and the audit counts each step.
        """
        steps = np.atleast_1d(step)
        if steps.ndim != 1 or steps.size == 0:
            raise ValueError("step must be an int or a non-empty 1-D array of steps")
        cfg = self.cfg
        env = self.constants
        T, n = steps.size, cfg.n_ues
        g = np.empty((T, n))                      # serving-link Rician gains
        k = np.empty((T, n))                      # serving-link Rayleigh gains
        k_act = np.empty((T, n, self._act.size))  # Rayleigh gains to every active UAV
        for i, t in enumerate(steps.tolist()):
            g_all, k_all = self.fading.draw(self.frame, episode, t)
            g_all.take(self._serving_link, out=g[i])
            k_all.take(self._serving_link, out=k[i])
            k_all.take(self._active_links, out=k_act[i])

        h = self.h[self._act]
        r, theta = channel.slant_geometry(self._ground_d, h)   # (n, |act|)
        r_serv = r.take(self._serving_flat)
        p_tx = self.power.take(self._slot_flat)
        p_eff = channel.mixed_power(p_tx, r_serv, theta.take(self._serving_flat), g, k, env)

        inter_full = self.interferer_power() * k_act * r ** (-env.alpha_nlos)
        interference = (inter_full.sum(axis=2)
                        - inter_full.reshape(T, -1).take(self._serving_flat, axis=1))

        rates = channel.achievable_rate(self.blocks.take(self._slot_flat) * cfg.block_size,
                                        p_eff, interference, env.noise_power)
        served_flags = rates >= cfg.r_th
        uav, slot = self.uav_of_ue, self.slot_of_ue
        self.served[uav, slot] = served_flags[-1]
        self.frozen[uav, slot] |= served_flags.any(axis=0)
        ue_rewards = served_flags.astype(float)
        rewards = ue_rewards @ self._ue_uav
        self._audit(rates, h)
        if np.ndim(step) == 0:
            return rates[0], served_flags[0], rewards[0], ue_rewards[0]
        return rates, served_flags, rewards, ue_rewards

    def _audit(self, rates: np.ndarray, h: np.ndarray):
        """Count each held step's violations: C1 a non-finite rate, C4-C7 offending UAVs."""
        cfg = self.cfg
        act = self._act
        T = len(rates)
        in_band = (cfg.h_min - 1e-9 <= h) & (h <= cfg.h_max + 1e-9)
        over_power = self.power[act].sum(axis=1) > cfg.p_max + 1e-9
        over_blocks = self.blocks[act].sum(axis=1) > cfg.block_limit
        self.audit["C1"] += int(np.count_nonzero(~np.isfinite(rates).all(axis=1)))
        self.audit["C4"] += T * int(np.count_nonzero(over_power))
        self.audit["C5"] += T * int(np.count_nonzero(over_blocks))
        self.audit["C6"] += T * self._outside_field
        self.audit["C7"] += T * int(np.count_nonzero(~in_band))

    # ----- summaries -----

    def committed_total(self) -> int:
        """Users served at some evaluation this episode, allocation locked."""
        return int(self.frozen.sum())

    def committed_per_agent(self) -> list[int]:
        return self.frozen[self.active_idx].sum(axis=1).tolist()
