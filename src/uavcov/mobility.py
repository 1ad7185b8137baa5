"""Grid mobility of the ground users.

Users live on an integer grid, one per cell, and each frame take one
4-neighbor move: with a fixed probability toward their nearest attraction
point, otherwise uniformly at random. Occupied destinations are resampled
among the remaining free neighbors; a fully enclosed user stays put, so a
frame always terminates collision-free.

Randomness is addressed per frame (see seeding), so frame t of a seed can be
regenerated without stepping through frames 0..t-1.
"""

from dataclasses import dataclass, field

import numpy as np

from . import seeding

# Candidate moves in tie-break order: +x, -x, +y, -y.
MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))

# Counter lanes of the mobility stream.
_LANE_INIT = 0
_LANE_ATTRACT = 1
_LANE_FRAME0 = 2  # frame t uses lane _LANE_FRAME0 + t


@dataclass
class GridWorld:
    width: int = 100
    height: int = 100
    cell_size_m: float = 300.0
    attraction_points: list[tuple[int, int]] = field(default_factory=list)
    attraction_prob: float = 0.4

    def __post_init__(self):
        if not 0.0 <= self.attraction_prob <= 1.0:
            raise ValueError("attraction_prob must be in [0, 1]")
        for ax, ay in self.attraction_points:
            if not (0 <= ax < self.width and 0 <= ay < self.height):
                raise ValueError(f"attraction point ({ax},{ay}) outside grid")

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height


@dataclass
class UeState:
    positions: np.ndarray  # (n, 2) int grid coordinates, pairwise distinct


def draw_attraction_points(master_seed: int, grid: GridWorld, count: int) -> list[tuple[int, int]]:
    """Fixed per-seed attraction points, uniform over the grid, distinct cells."""
    rng = seeding.counter_stream(master_seed, seeding.MOBILITY, (_LANE_ATTRACT,))
    idx = rng.choice(grid.width * grid.height, size=count, replace=False)
    return [(int(i % grid.width), int(i // grid.width)) for i in idx]


def init_positions(n: int, grid: GridWorld, master_seed: int) -> UeState:
    """n distinct cells sampled uniformly without replacement."""
    cells = grid.width * grid.height
    if n > cells:
        raise ValueError(f"cannot place {n} users on {cells} cells")
    rng = seeding.counter_stream(master_seed, seeding.MOBILITY, (_LANE_INIT,))
    idx = rng.choice(cells, size=n, replace=False)
    pos = np.stack([idx % grid.width, idx // grid.width], axis=1).astype(np.int64)
    return UeState(positions=pos)


def nearest_attraction(pos, grid: GridWorld) -> tuple[int, int]:
    """Closest attraction point in squared grid distance, ties to lowest index."""
    if not grid.attraction_points:
        raise ValueError("no attraction points configured")
    px, py = int(pos[0]), int(pos[1])
    best = None
    best_d2 = None
    for ax, ay in grid.attraction_points:
        d2 = (ax - px) ** 2 + (ay - py) ** 2
        if best_d2 is None or d2 < best_d2:
            best, best_d2 = (ax, ay), d2
    return best


def preferred_move(pos, target, grid: GridWorld) -> tuple[int, int]:
    """In-bounds unit move minimizing squared distance to target.

    Ties break by the fixed MOVES order; when target == pos every move is a
    tie, so the first in-bounds move wins.
    """
    px, py = int(pos[0]), int(pos[1])
    tx, ty = int(target[0]), int(target[1])
    best = None
    best_d2 = None
    for mx, my in MOVES:
        nx, ny = px + mx, py + my
        if not grid.in_bounds(nx, ny):
            continue
        d2 = (tx - nx) ** 2 + (ty - ny) ** 2
        if best_d2 is None or d2 < best_d2:
            best, best_d2 = (mx, my), d2
    return best


def step_frame(state: UeState, grid: GridWorld, master_seed: int, frame: int) -> UeState:
    """Advance every user one move, in index order, collision-free.

    The occupancy set a user checks against contains the new cells of users
    that already moved this frame and the current cells of users that have
    not moved yet; an occupied destination is resampled uniformly among the
    remaining free in-bounds neighbors, and a user with no free neighbor
    stays in place.
    """
    rng = seeding.counter_stream(master_seed, seeding.MOBILITY, (_LANE_FRAME0 + frame,))
    pos = state.positions.copy()
    occupied = {(int(x), int(y)) for x, y in pos}
    for i in range(pos.shape[0]):
        here = (int(pos[i, 0]), int(pos[i, 1]))
        occupied.discard(here)
        candidates = [(here[0] + mx, here[1] + my) for mx, my in MOVES
                      if grid.in_bounds(here[0] + mx, here[1] + my)]
        if rng.random() < grid.attraction_prob and grid.attraction_points:
            mx, my = preferred_move(here, nearest_attraction(here, grid), grid)
            dest = (here[0] + mx, here[1] + my)
        else:
            dest = candidates[rng.integers(len(candidates))]
        if dest in occupied:
            free = [c for c in candidates if c not in occupied]
            dest = free[rng.integers(len(free))] if free else here
        occupied.add(dest)
        pos[i, 0], pos[i, 1] = dest
    return UeState(positions=pos)


def to_physical(pos, cell_size_m: float) -> np.ndarray:
    """Grid coordinates to meters: componentwise scaling by the cell size."""
    return np.asarray(pos, dtype=float) * float(cell_size_m)
