"""Hybrid multi-agent training machinery with checkpointing.

Actor-critic agents (one per UAV slot) emit altitude and a power split every
timestep; one small Q-network per (UAV, user slot) walks that user's resource
blocks up or down. squash_raw_actions, the policy head, is the one map from
actor outputs to the normalized actions the world applies and the critics
see. Critics are centralized by default: they see the concatenated
observations and normalized actions of every UAV slot, inactive slots
zero-masked. All gradients, the policy head's included, are computed manually
through the nn core. Parameters, targets and Adam moments are flat vectors
(one (rows, P) matrix for a stack of Q-nets) in the nn layout, so each
optimizer step and soft update is one call per net, and checkpoints name
per-layer views of them. Every Q-net is built from the MADDPG nets' parts:
an Mlp, its clone() as target, and an Adam. The single-link block search
trains one; flare's per-user Q-nets are the rows of one such stack. Both
take the same TD step, dqn_update.

Within one frame the world is quasi-static: buffers hold only current-frame
transitions, while network weights persist across frames (warm start).
"""

import json
from dataclasses import dataclass

import numpy as np

from .env import EnvConfig, FrameWorld
from .nn import Adam, Mlp, param_count, param_views, soft_update

CHECKPOINT_MAGIC = b"UAVCOV-CKPT-1\n"

# Q-value column order for the block actions: index 0 is +1, index 1 is -1.
BLOCK_ACTIONS = (1, -1)


@dataclass
class TrainSchedule:
    """Training hyperparameters. Defaults are the full-scale profile."""

    episodes: int = 100
    steps_per_episode: int = 500
    lr: float = 1e-4
    dqn_lr: float = 0.0  # 0: use lr (the actor/critic rate)
    gamma: float = 0.99
    tau: float = 0.01
    batch_size: int = 512
    buffer_capacity: int = 100_000
    warmup_transitions: int = 2500
    update_interval: int = 1
    dqn_update_interval: int = 0  # 0: use update_interval
    hidden: tuple[int, ...] = (64, 64)
    sigma_start: float = 0.2
    sigma_end: float = 0.02
    sigma_frac: float = 0.5
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_frac: float = 0.3
    critic_mode: str = "central"  # "central" or "local"

    def __post_init__(self):
        for key in ("episodes", "steps_per_episode", "batch_size", "buffer_capacity",
                    "update_interval"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.warmup_transitions > self.buffer_capacity:
            raise ValueError("warmup cannot exceed buffer capacity")
        if self.critic_mode not in ("central", "local"):
            raise ValueError(f"unknown critic_mode: {self.critic_mode}")
        if self.dqn_lr <= 0.0:
            self.dqn_lr = self.lr
        if self.dqn_update_interval <= 0:
            self.dqn_update_interval = self.update_interval

    @property
    def replay_capacity(self) -> int:
        """Ring size of a replay cleared every frame: one frame's transitions bound it."""
        return min(self.buffer_capacity, self.episodes * self.steps_per_episode)

    def sigma_at(self, step: int, total_steps: int) -> float:
        return _anneal(step, total_steps, self.sigma_start, self.sigma_end, self.sigma_frac)

    def eps_at(self, step: int, total_steps: int) -> float:
        return _anneal(step, total_steps, self.eps_start, self.eps_end, self.eps_frac)


def _anneal(step: int, total: int, start: float, end: float, frac: float) -> float:
    horizon = max(1.0, total * frac)
    pos = min(1.0, step / horizon)
    return start + (end - start) * pos


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform no-replacement sampling.

    Transitions are float32 records, the fields side by side in one
    (capacity, sum of dims) array; _data maps each field to its columns, as
    views. With rows=n it is n independent rings in one (n, capacity, ...)
    array, each with its own head and size, fed by add_rows and read by
    sample_rows.
    """

    def __init__(self, capacity: int, fields: dict[str, int], rows: int | None = None):
        self.capacity = int(capacity)
        self.fields = dict(fields)
        self.rows = rows
        lead = (self.capacity,) if rows is None else (rows, self.capacity)
        self._records = np.zeros(lead + (sum(self.fields.values()),), dtype=np.float32)
        self._data = self._columns(self._records)
        self.clear()

    def _columns(self, records: np.ndarray) -> dict[str, np.ndarray]:
        """Each field's columns of records, as views."""
        columns, start = {}, 0
        for name, dim in self.fields.items():
            columns[name] = records[..., start:start + dim]
            start += dim
        return columns

    def __len__(self) -> int:
        return self._size

    def add(self, **values):
        for name in self.fields:
            self._data[name][self._head] = values[name]
        self._head = (self._head + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        if self._size < batch:
            raise ValueError("not enough transitions to sample")
        idx = rng.choice(self._size, size=batch, replace=False)
        return self._columns(self._records.take(idx, axis=0).astype(float))

    def add_rows(self, rows: np.ndarray, **values):
        """One transition into each of the distinct rows, values (len(rows), ...)."""
        head = self._head[rows]
        for name in self.fields:
            self._data[name][rows, head] = np.reshape(values[name], (len(rows), -1))
        self._head[rows] = (head + 1) % self.capacity
        self._size[rows] = np.minimum(self._size[rows] + 1, self.capacity)

    def sample_rows(self, rows: np.ndarray, batch: int,
                    rng: np.random.Generator) -> dict[str, np.ndarray]:
        """(len(rows), batch, dim) minibatches, each row drawn as sample draws, in order."""
        idx = np.array([rng.choice(n, size=batch, replace=False)
                        for n in self._size[rows].tolist()])
        return self._columns(self._records[rows[:, None], idx])

    def clear(self):
        if self.rows is None:
            self._size = self._head = 0
        else:
            self._size, self._head = np.zeros((2, self.rows), dtype=np.int64)


# ----- the policy head: actor outputs -> normalized actions -----

def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the active entries of the last axis; inactive entries get 0.

    mask selects entries of the last axis and is shared by every leading row;
    scaled by p_max it is the power split, which sums to the budget.
    """
    if not mask.any():
        raise ValueError("at least one slot must be active")
    out = np.zeros_like(logits)
    active = logits[..., mask]
    active = np.exp(active - active.max(axis=-1, keepdims=True))
    out[..., mask] = active / active.sum(axis=-1, keepdims=True)
    return out


def squash_raw_actions(raw: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Actor outputs (..., act_dim) -> normalized actions [alt01, power fracs(, bw fracs)].

    tanh squashes the altitude; each later head of S = len(mask) outputs is a
    masked softmax, and a 1 + 2S wide raw carries the bandwidth head.
    """
    S = len(mask)
    heads = [masked_softmax(raw[..., lo:lo + S], mask) for lo in range(1, raw.shape[-1], S)]
    return np.concatenate([(np.tanh(raw[..., :1]) + 1.0) / 2.0, *heads], axis=-1)


def squash_gradient(raw: np.ndarray, squashed: np.ndarray, grad_sq: np.ndarray,
                    mask: np.ndarray) -> np.ndarray:
    """Chain d(loss)/d(squashed action) back to the raw actor outputs."""
    S = len(mask)
    grad_raw = np.zeros_like(raw)
    th = np.tanh(raw[..., 0])
    grad_raw[..., 0] = grad_sq[..., 0] * (1.0 - th * th) / 2.0
    for lo in range(1, raw.shape[-1], S):   # softmax heads: f * (g - <g, f>) on active slots
        f, g = squashed[..., lo:lo + S], grad_sq[..., lo:lo + S]
        grad_raw[..., lo:lo + S] = np.where(mask, f * (g - (g * f).sum(-1, keepdims=True)), 0.0)
    return grad_raw


# ----- action selection -----

def maddpg_select_action(actor: Mlp, obs: np.ndarray, noise_sigma: float,
                         rng: np.random.Generator | None) -> np.ndarray:
    """Actor output with Gaussian exploration noise on the raw outputs."""
    raw = actor.forward(obs)
    if noise_sigma > 0.0:
        raw = raw + rng.normal(0.0, noise_sigma, size=raw.shape)
    return raw

def dqn_select_action(qnet: Mlp, state: np.ndarray, epsilon: float,
                      rng: np.random.Generator | None) -> int:
    """Epsilon-greedy over the two block actions; ties resolve to index 0 (+1)."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(2))
    q = qnet.forward(state)
    return int(np.argmax(q))


# ----- MADDPG -----

class MaddpgLearner:
    """Per-UAV actors with (by default) centralized critics and target copies."""

    def __init__(self, cfg: EnvConfig, schedule: TrainSchedule,
                 init_rng: np.random.Generator, bw_head: bool = False):
        self.cfg = cfg
        self.schedule = schedule
        self.act_dim = cfg.act_dim(bw_head)
        if schedule.critic_mode == "central":
            critic_in = cfg.k_max * (cfg.obs_dim + self.act_dim)
        else:
            critic_in = cfg.obs_dim + self.act_dim
        hidden = list(schedule.hidden)
        self.actors, self.actor_targets, self.actor_opts = [], [], []
        self.critics, self.critic_targets, self.critic_opts = [], [], []
        for _ in range(cfg.k_max):
            actor = zero_head_mlp([cfg.obs_dim] + hidden + [self.act_dim], init_rng)
            critic = zero_head_mlp([critic_in] + hidden + [1], init_rng)
            self.actors.append(actor)
            self.actor_targets.append(actor.clone())
            self.critics.append(critic)
            self.critic_targets.append(critic.clone())
            self.actor_opts.append(Adam(actor.flat, schedule.lr))
            self.critic_opts.append(Adam(critic.flat, schedule.lr))
        self.buffer = ReplayBuffer(schedule.replay_capacity, {
            "obs": cfg.k_max * cfg.obs_dim,
            "act": cfg.k_max * self.act_dim,
            "rew": cfg.k_max,
            "next_obs": cfg.k_max * cfg.obs_dim,
            "done": 1,
        })

    def store(self, obs: np.ndarray, acts: np.ndarray, rewards: np.ndarray,
              next_obs: np.ndarray, done: bool):
        self.buffer.add(obs=obs.ravel(), act=acts.ravel(), rew=rewards,
                        next_obs=next_obs.ravel(), done=float(done))

    def ready(self) -> bool:
        return len(self.buffer) >= max(self.schedule.batch_size,
                                       self.schedule.warmup_transitions)

    def _critic_input(self, obs_flat: np.ndarray, acts_flat: np.ndarray, j: int) -> np.ndarray:
        if self.schedule.critic_mode == "central":
            return np.concatenate([obs_flat, acts_flat], axis=1)
        cfg = self.cfg
        obs_j = obs_flat[:, j * cfg.obs_dim:(j + 1) * cfg.obs_dim]
        act_j = acts_flat[:, j * self.act_dim:(j + 1) * self.act_dim]
        return np.concatenate([obs_j, act_j], axis=1)

    def _target_joint_actions(self, next_obs: np.ndarray, world: FrameWorld) -> np.ndarray:
        """Joint next action matrix (B, k_max*act_dim) from the target actors."""
        cfg = self.cfg
        B = next_obs.shape[0]
        acts = np.zeros((B, cfg.k_max * self.act_dim))
        for m in world.active_idx:
            obs_m = next_obs[:, m * cfg.obs_dim:(m + 1) * cfg.obs_dim]
            raw = self.actor_targets[m].forward(obs_m)
            acts[:, m * self.act_dim:(m + 1) * self.act_dim] = squash_raw_actions(
                raw, world.mask[m])
        return acts

    def update(self, world: FrameWorld, rng: np.random.Generator) -> dict[int, tuple[float, float]]:
        """One gradient step per active agent. Returns {agent: (critic, actor) loss}."""
        if not self.ready():
            return {}
        cfg = self.cfg
        sch = self.schedule
        losses = {}
        for j in world.active_idx:
            batch = self.buffer.sample(sch.batch_size, rng)
            obs, acts = batch["obs"], batch["act"]
            next_obs, done = batch["next_obs"], batch["done"][:, 0]
            r_j = batch["rew"][:, j]
            B = obs.shape[0]

            # Critic: squared TD error against the frozen targets.
            next_acts = self._target_joint_actions(next_obs, world)
            q_next = self.critic_targets[j].forward(
                self._critic_input(next_obs, next_acts, j))[:, 0]
            y = r_j + sch.gamma * (1.0 - done) * q_next
            q, cache = self.critics[j].forward_cached(self._critic_input(obs, acts, j))
            td = q[:, 0] - y
            grad, _ = self.critics[j].backward(cache, (2.0 * td / B)[:, None], input_grad=False)
            self.critic_opts[j].step(grad)
            critic_loss = float(np.mean(td ** 2))

            # Actor: ascend the critic with own action replaced, others sampled.
            obs_j = obs[:, j * cfg.obs_dim:(j + 1) * cfg.obs_dim]
            raw, actor_cache = self.actors[j].forward_cached(obs_j)
            mask = world.mask[j]
            squashed = squash_raw_actions(raw, mask)
            acts_new = acts.copy()
            acts_new[:, j * self.act_dim:(j + 1) * self.act_dim] = squashed
            q_in = self._critic_input(obs, acts_new, j)
            q2, critic_cache = self.critics[j].forward_cached(q_in)
            _, grad_in = self.critics[j].backward(critic_cache, np.full((B, 1), -1.0 / B),
                                                  param_grads=False)
            if sch.critic_mode == "central":
                lo = cfg.k_max * cfg.obs_dim + j * self.act_dim
            else:
                lo = cfg.obs_dim
            grad_sq = grad_in[:, lo:lo + self.act_dim]
            grad_raw = squash_gradient(raw, squashed, grad_sq, mask)
            a_grad, _ = self.actors[j].backward(actor_cache, grad_raw, input_grad=False)
            self.actor_opts[j].step(a_grad)
            actor_loss = float(-np.mean(q2))

            soft_update(self.actor_targets[j], self.actors[j], sch.tau)
            soft_update(self.critic_targets[j], self.critics[j], sch.tau)
            losses[j] = (critic_loss, actor_loss)
        return losses


# ----- per-user DQNs -----

def zero_head_mlp(dims: list[int], rng: np.random.Generator) -> Mlp:
    """Mlp with a zeroed output layer; the layer's draws are still consumed.

    Q-nets start all-equal, so the +1 tie rule walks upward and the serve
    reward is discovered without relying on random-walk exploration. Actors
    start at exactly the uninformed allocation (mid altitude, uniform power)
    and critics start flat, so an actor only moves once its critic carries
    signal.
    """
    net = Mlp(dims, rng)
    net.weights[-1][...] = 0.0
    net.biases[-1][...] = 0.0
    return net


def td_error(q: np.ndarray, q_next: np.ndarray, batch: dict[str, np.ndarray],
             gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """TD errors of the taken actions and d(mean squared TD error)/dq.

    q and q_next are (..., B, 2), indexed flat over the leading axes;
    y = r + gamma * (1 - done) * max_a Q'(s', a).
    """
    y = batch["reward"][..., 0] + gamma * (1.0 - batch["done"][..., 0]) * q_next.max(axis=-1)
    taken = np.arange(y.size), batch["action"].ravel().astype(np.int64)
    td = q.reshape(y.size, -1)[taken].reshape(y.shape) - y
    grad_out = np.zeros((y.size, q.shape[-1]), q.dtype)
    grad_out[taken] = (2.0 * td / q.shape[-2]).ravel()
    return td, grad_out.reshape(q.shape)


class StackedQnets:
    """A family of same-architecture Q-nets: an Mlp over a (rows, P) stack.

    Row r of net.flat holds one net's parameters in the nn flat layout; the
    target is net's clone() and opt an Adam with one step count per row. An
    update gathers the requested rows into an Mlp, target and Adam of their
    own, runs the same dqn_update as a single Q-net over them as one
    (rows, B, ...) batch and scatters them back, so the math per row is that
    of an individual Mlp (the tests assert bit equality), just not paid for
    thirty times per timestep.
    """

    def __init__(self, rows: int, dims: list[int], lr: float, dtype=np.float64):
        self.net = Mlp(dims, flat=np.zeros((rows, param_count(dims)), dtype))
        self.target = self.net.clone()
        self.opt = Adam(self.net.flat, lr, t=np.zeros(rows, dtype=np.int64))
        self.initialized = np.zeros(rows, dtype=bool)

    def init_row(self, row: int, rng: np.random.Generator):
        """Uniform fan-in init with a zeroed output layer (see zero_head_mlp)."""
        if self.initialized[row]:
            return
        self.net.flat[row] = self.target.flat[row] = zero_head_mlp(self.net.dims, rng).flat
        self.initialized[row] = True

    def q_values(self, idx: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Online Q-values for one state per row: states (m, din) -> (m, 2)."""
        return Mlp(self.net.dims, flat=self.net.flat[idx]).forward(states[:, None, :])[:, 0, :]

    def update(self, idx: np.ndarray, batch: dict[str, np.ndarray],
               schedule: TrainSchedule) -> float:
        """One dqn_update on rows idx from stacked minibatches (m, B, ...)."""
        net, target = (Mlp(s.dims, flat=s.flat[idx]) for s in (self.net, self.target))
        opt = Adam(net.flat, self.opt.lr, m=self.opt.m[idx], v=self.opt.v[idx],
                   t=self.opt.t[idx])
        loss = dqn_update(net, target, opt, batch, schedule)
        self.net.flat[idx], self.target.flat[idx] = net.flat, target.flat
        self.opt.m[idx], self.opt.v[idx], self.opt.t[idx] = opt.m, opt.v, opt.t
        return loss


class DqnPool:
    """One Q-net (plus target and optimizer) per (UAV, user slot), one replay ring per user.

    Nets live as rows j * slots + s of a StackedQnets and persist across
    frames. A user holds exactly one slot per frame, so replay rows are
    users, allocated once and cleared at frame boundaries.
    """

    def __init__(self, cfg: EnvConfig, schedule: TrainSchedule, init_rng: np.random.Generator):
        self.schedule = schedule
        self.init_rng = init_rng
        dims = [cfg.dqn_obs_dim] + list(schedule.hidden) + [2]
        # float32: the replay already quantizes there, and the Q-nets are
        # bandwidth-bound; the MADDPG lane stays float64.
        self.stack = StackedQnets(cfg.k_max * cfg.slots, dims, schedule.dqn_lr,
                                  dtype=np.float32)
        self.buffer = ReplayBuffer(schedule.replay_capacity, {
            "state": cfg.dqn_obs_dim, "action": 1, "reward": 1,
            "next_state": cfg.dqn_obs_dim, "done": 1,
        }, rows=cfg.n_ues)

    def select_many(self, rows: np.ndarray, states: np.ndarray,
                    epsilon: float, rng: np.random.Generator | None) -> np.ndarray:
        """Epsilon-greedy action indices for stack rows, initialized on first selection."""
        for row in rows[~self.stack.initialized[rows]].tolist():
            self.stack.init_row(row, self.init_rng)
        q = self.stack.q_values(rows, states)
        actions = np.argmax(q, axis=1)  # ties resolve to index 0, i.e. +1
        if epsilon > 0.0:
            explore = rng.random(len(rows)) < epsilon
            random_actions = rng.integers(2, size=len(rows))
            actions = np.where(explore, random_actions, actions)
        return actions

    def update_many(self, rows: np.ndarray, users: np.ndarray, rng: np.random.Generator):
        """One batched TD step over the stack rows whose users have enough replay."""
        ready = self.buffer._size[users] >= self.schedule.batch_size
        if not ready.any():
            return None
        batch = self.buffer.sample_rows(users[ready], self.schedule.batch_size, rng)
        return self.stack.update(rows[ready], batch, self.schedule)


def dqn_update(net: Mlp, target: Mlp, opt: Adam, batch: dict[str, np.ndarray],
               schedule: TrainSchedule) -> float:
    """One TD step: y = r + gamma * max_a Q'(s',a), squared error, soft update.

    A single Q-net is an Mlp with a clone() target and an Adam, like each
    MADDPG net; the steps are those of MaddpgLearner's critic update.
    """
    q_next = target.forward(batch["next_state"])
    q, cache = net.forward_cached(batch["state"])
    td, grad_out = td_error(q, q_next, batch, schedule.gamma)
    grad, _ = net.backward(cache, grad_out, input_grad=False)
    opt.step(grad)
    soft_update(target, net, schedule.tau)
    return float(np.mean(td ** 2))


# ----- per-frame training and evaluation loops -----

@dataclass
class EpisodeRecord:
    episode: int
    mean_reward: float          # served UEs per step, summed over agents
    mean_search_steps: float    # steps until served, averaged over users (flare)
    committed: int              # users served and locked by episode end


def train_frame(world: FrameWorld, maddpg: MaddpgLearner, dqns: DqnPool | None,
                schedule: TrainSchedule, expl_rng: np.random.Generator,
                step_offset: int, total_steps: int,
                metrics_sink=None) -> list[EpisodeRecord]:
    """Run the episode/timestep loops of one frame on its static snapshot.

    A non-finite actor output raises a ValueError naming the frame, episode
    and step it reached the world at.
    """
    cfg = world.cfg
    S = cfg.slots
    use_dqn = dqns is not None
    slot_rows = np.flatnonzero(world.mask)   # stack rows j * S + s of the assigned slots
    slot_users = world.slot_ues.ravel()[slot_rows]
    records = []
    for e in range(schedule.episodes):
        world.reset_episode(equal_blocks=not use_dqn)
        obs = world.maddpg_obs()
        search_steps = np.zeros_like(world.blocks)   # step of first service, 0 while unserved
        reward_sum = 0.0
        for t in range(schedule.steps_per_episode):
            gstep = step_offset + e * schedule.steps_per_episode + t
            sigma = schedule.sigma_at(gstep, total_steps)
            eps = schedule.eps_at(gstep, total_steps)

            joint_act = np.zeros((cfg.k_max, maddpg.act_dim))
            for j in world.active_idx:
                raw = maddpg_select_action(maddpg.actors[j], obs[j], sigma, expl_rng)
                joint_act[j] = squash_raw_actions(raw, world.mask[j])
            try:
                world.apply_maddpg_action(joint_act)
            except ValueError as err:
                raise ValueError(f"frame {world.frame}, episode {e}, step {t}: {err}") from err

            if use_dqn:
                js, ss = np.nonzero(world.mask & ~world.frozen)
                if js.size:
                    states = world.dqn_obs(world.maddpg_obs(), js, ss)
                    actions = dqns.select_many(js * S + ss, states, eps, expl_rng)
                    world.apply_block_action(js, ss, np.take(BLOCK_ACTIONS, actions))

            _, _, rewards, ue_rewards = world.evaluate(e, t)
            next_obs = world.maddpg_obs()
            last_step = t == schedule.steps_per_episode - 1

            if use_dqn and js.size:
                served_now = world.served[js, ss]
                search_steps[js[served_now], ss[served_now]] = t + 1
                users = world.slot_ues[js, ss]
                dqns.buffer.add_rows(users, state=states, action=actions,
                                     reward=ue_rewards[users],
                                     next_state=world.dqn_obs(next_obs, js, ss),
                                     done=served_now | last_step)
            maddpg.store(obs, joint_act, rewards, next_obs, last_step)

            if (t + 1) % schedule.update_interval == 0:
                maddpg.update(world, expl_rng)
            if use_dqn and (t + 1) % schedule.dqn_update_interval == 0 and maddpg.ready():
                dqns.update_many(slot_rows, slot_users, expl_rng)

            obs = next_obs
            reward_sum += float(rewards.sum())

        steps = np.where(search_steps > 0, search_steps, schedule.steps_per_episode)[world.mask]
        records.append(EpisodeRecord(
            episode=e,
            mean_reward=reward_sum / schedule.steps_per_episode,
            mean_search_steps=float(np.mean(steps)) if steps.size else 0.0,
            committed=world.committed_total(),
        ))
        if metrics_sink is not None:
            metrics_sink(world, e, schedule.steps_per_episode - 1)
    return records


def evaluate_frame_static(world: FrameWorld, schedule: TrainSchedule, eval_steps: int) -> int:
    """Committed coverage of the fixed equal allocation at mid altitude.

    The allocation never changes, so one held evaluation scores every step
    of the horizon at once; users latch as served when a step's fading lets
    their equal share meet the threshold. The horizon and fading lane mirror
    a learned method's last training episode, keeping the comparison paired
    draw for draw.
    """
    world.reset_episode(equal_blocks=True)
    world.evaluate(schedule.episodes - 1, np.arange(eval_steps))
    return world.committed_total()


# ----- checkpointing -----

def _collect_arrays(maddpg: MaddpgLearner, dqns: DqnPool | None) -> dict[str, np.ndarray]:
    """Every parameter and optimizer-moment array under a stable name."""
    arrays: dict[str, np.ndarray] = {}
    for i in range(len(maddpg.actors)):
        for tag, net in (("actor", maddpg.actors[i]), ("actor_t", maddpg.actor_targets[i]),
                         ("critic", maddpg.critics[i]), ("critic_t", maddpg.critic_targets[i])):
            for li, p in enumerate(net.params):
                arrays[f"maddpg/{i}/{tag}/p{li}"] = p
        for tag, net, opt in (("actor_opt", maddpg.actors[i], maddpg.actor_opts[i]),
                              ("critic_opt", maddpg.critics[i], maddpg.critic_opts[i])):
            for li, (m, v) in enumerate(zip(param_views(opt.m, net.dims),
                                            param_views(opt.v, net.dims))):
                arrays[f"maddpg/{i}/{tag}/m{li}"] = m
                arrays[f"maddpg/{i}/{tag}/v{li}"] = v
    if dqns is not None:
        stack = dqns.stack
        m, v = (param_views(a, stack.net.dims) for a in (stack.opt.m, stack.opt.v))
        for tag, store in (("w", stack.net.weights), ("b", stack.net.biases),
                           ("tw", stack.target.weights), ("tb", stack.target.biases),
                           ("m", m[0::2] + m[1::2]), ("v", v[0::2] + v[1::2])):
            for i, a in enumerate(store):
                arrays[f"dqn/{tag}{i}"] = a
        arrays["dqn/t"] = stack.opt.t
        arrays["dqn/initialized"] = stack.initialized
    return arrays


def save_checkpoint(path: str, maddpg: MaddpgLearner, dqns: DqnPool | None,
                    counters: dict[str, int] | None = None):
    """Versioned, byte-deterministic dump of parameters, moments and counters."""
    arrays = _collect_arrays(maddpg, dqns)
    counters = dict(counters or {})
    for i, opt in enumerate(maddpg.actor_opts):
        counters[f"maddpg/{i}/actor_opt/t"] = opt.t
    for i, opt in enumerate(maddpg.critic_opts):
        counters[f"maddpg/{i}/critic_opt/t"] = opt.t
    manifest = {"counters": counters, "arrays": []}
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        raw = arr.tobytes()
        manifest["arrays"].append({
            "name": name, "dtype": str(arr.dtype), "shape": list(arr.shape),
            "offset": offset, "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    head = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(head).to_bytes(8, "little"))
        fh.write(head)
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path: str, maddpg: MaddpgLearner, dqns: DqnPool | None) -> dict[str, int]:
    """Restore a checkpoint in place; returns the stored counters."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError("not a recognized checkpoint file")
        head_len = int.from_bytes(fh.read(8), "little")
        manifest = json.loads(fh.read(head_len).decode("utf-8"))
        payload = fh.read()
    arrays = _collect_arrays(maddpg, dqns)
    stored = {e["name"]: e for e in manifest["arrays"]}
    if set(stored) != set(arrays):
        raise ValueError("checkpoint does not match the learner architecture")
    for name, entry in stored.items():
        target = arrays[name]
        if list(target.shape) != entry["shape"] or str(target.dtype) != entry["dtype"]:
            raise ValueError(f"shape/dtype mismatch for {name}")
        raw = payload[entry["offset"]: entry["offset"] + entry["nbytes"]]
        target[...] = np.frombuffer(raw, dtype=target.dtype).reshape(target.shape)
    counters = manifest["counters"]
    for i, opt in enumerate(maddpg.actor_opts):
        opt.t = int(counters[f"maddpg/{i}/actor_opt/t"])
    for i, opt in enumerate(maddpg.critic_opts):
        opt.t = int(counters[f"maddpg/{i}/critic_opt/t"])
    return {k: v for k, v in counters.items() if not k.startswith("maddpg/")}
