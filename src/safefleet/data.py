"""Dataset construction.

Generates teleop-style robot trajectories (stepped by the simulator's
`world.kinematics_step_batch`) and random-waypoint pedestrian tracks, then
builds the three labeled training sets (static obstacle, dynamic obstacle,
robot-robot).  A labeled set is a pair of arrays: (N, context_dim) raw
contexts and N safe/unsafe/unlabeled labels.  `features_from_context` is the
one feature encoding of a context.

Trajectory arrays have shape (T, 8) with columns t, x, y, theta, v, omega,
u_v, u_omega at a fixed 0.1 s spacing.  Pedestrian arrays are (T, 3):
t, x, y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .world import (DT, VELOCITY_NOISE, PlatformParams, candidate_controls,
                    kinematics_step_batch, wrap_angle)

TASKS = ("static", "dynamic", "multirobot")
FEATURE_DIMS = {"static": 5, "dynamic": 9, "multirobot": 8}
# raw context layouts (enough to re-derive features and roll dynamics):
#   static:     [x, y, theta, v, omega, obs_x, obs_y]
#   dynamic:    [x, y, theta, v, omega, p-2x, p-2y, p-1x, p-1y, p0x, p0y]
#   multirobot: [xA, yA, thA, vA, omA, xB, yB, thB, vB, omB]
CONTEXT_DIMS = {"static": 7, "dynamic": 11, "multirobot": 10}

LABEL_SAFE = "safe"
LABEL_UNSAFE = "unsafe"
LABEL_UNLABELED = "unlabeled"

ARENA = (12.0, 12.0)       # m; the data generator's walled square
WALL_MARGIN = 1.8          # m; closer to a wall than this, robots steer back inward
CHUNK_SECONDS = 60.0       # length of one recorded robot trajectory
MAX_OBSTACLE_DIST = 3.0    # m; sampled static obstacles lie this close to the path


@dataclass(frozen=True)
class LabelingConfig:
    d: float          # unsafe distance, meters
    tau: int          # unlabeled horizon, steps

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("unsafe distance must be positive")
        if self.tau < 1:
            raise ValueError("unlabeled horizon must be >= 1")


# per-task labeling parameters; the multi-robot task reuses the dynamic row
TASK_LABELING = {
    "static": LabelingConfig(d=0.7, tau=5),
    "dynamic": LabelingConfig(d=0.7, tau=12),
    "multirobot": LabelingConfig(d=0.7, tau=12),
}


# ---------------------------------------------------------------------------
# feature encoding

def features_from_context(task: str, contexts: np.ndarray) -> np.ndarray:
    """Vectorized feature encoding from (N, context_dim) raw contexts."""
    C = np.atleast_2d(np.asarray(contexts, dtype=float))
    if C.shape[1] != CONTEXT_DIMS[task]:
        raise ValueError(f"bad context width {C.shape[1]} for task {task}")
    if task == "static":
        return np.column_stack([C[:, 5] - C[:, 0], C[:, 6] - C[:, 1], C[:, 2], C[:, 3], C[:, 4]])
    if task == "dynamic":
        rel = C[:, 5:11].reshape(-1, 3, 2) - C[:, None, 0:2]
        return np.column_stack([C[:, 2], C[:, 3], C[:, 4], rel.reshape(-1, 6)])
    return np.column_stack([C[:, 0] - C[:, 5], C[:, 1] - C[:, 6],
                            C[:, 2], C[:, 7], C[:, 3], C[:, 4], C[:, 8], C[:, 9]])


# ---------------------------------------------------------------------------
# trajectory generation

def _steer_inward(x, y, theta, candidates) -> np.ndarray:
    """Pick a gentle candidate turning the robot back toward the arena center."""
    cx, cy = ARENA[0] / 2.0, ARENA[1] / 2.0
    bearing = math.atan2(cy - y, cx - x)
    err = float(wrap_angle(bearing - theta))
    angulars = np.unique(candidates[:, 1])
    u_w = angulars.max() if err > 0 else angulars.min()
    return np.array([0.3, u_w])


def _near_wall_heading_out(x, y, theta) -> bool:
    hx, hy = math.cos(theta), math.sin(theta)
    if x < WALL_MARGIN and hx < 0:
        return True
    if x > ARENA[0] - WALL_MARGIN and hx > 0:
        return True
    if y < WALL_MARGIN and hy < 0:
        return True
    if y > ARENA[1] - WALL_MARGIN and hy > 0:
        return True
    return False


def generate_robot_trajectories(platform: PlatformParams, duration: float, seed: int):
    """Scripted pseudo-teleop: random dwell-switched candidate controls with
    wall-avoidance steering, stepped through the simulator's kinematics with
    its velocity noise.  Returns a list of (T, 8) trajectory arrays of at most
    CHUNK_SECONDS each."""
    if duration < 60:
        raise ValueError("duration must be at least 60 s")
    rng = np.random.default_rng(seed)
    candidates = candidate_controls(platform.max_speed)
    total_steps = int(round(duration / DT))
    chunk_steps = int(round(CHUNK_SECONDS / DT))
    trajectories = []
    state = np.array([[rng.uniform(2, ARENA[0] - 2), rng.uniform(2, ARENA[1] - 2),
                       rng.uniform(-math.pi, math.pi), 0.0, 0.0]])
    control = candidates[rng.integers(len(candidates))]
    dwell_left = 0
    done = 0
    while done < total_steps:
        n = min(chunk_steps, total_steps - done)
        rows = np.empty((n, 8))
        for i in range(n):
            if dwell_left <= 0:
                control = candidates[rng.integers(len(candidates))]
                dwell_left = int(rng.uniform(0.5, 3.0) / DT)
            cmd = control
            x, y, theta = state[0, :3].tolist()
            if _near_wall_heading_out(x, y, theta):
                cmd = _steer_inward(x, y, theta, candidates)
            rows[i, 0] = (done + i) * DT
            rows[i, 1:6] = state[0]
            rows[i, 6:8] = cmd
            residual = np.zeros((1, 4))
            residual[0, 2:] = rng.normal(0.0, VELOCITY_NOISE, 2)
            state = kinematics_step_batch(state, cmd[None, :], platform.m_v, platform.m_omega,
                                          platform.max_speed, residual)
            dwell_left -= 1
        rows[:, 0] -= rows[0, 0]  # each trajectory starts at t = 0
        trajectories.append(rows)
        done += n
    return trajectories


def generate_pedestrian_tracks(count: int, duration: float, speed_range, seed: int):
    """Random-waypoint walks sampled at 0.1 s.  Returns list of (T, 3) arrays."""
    lo, hi = speed_range
    if not (0 < lo <= hi <= 2.5):
        raise ValueError("speed range must lie within (0, 2.5]")
    rng = np.random.default_rng(seed)
    steps = int(round(duration / DT))
    tracks = []
    for _ in range(count):
        pos = np.array([rng.uniform(1, ARENA[0] - 1), rng.uniform(1, ARENA[1] - 1)])
        rows = np.empty((steps, 3))
        goal = pos
        speed = lo
        for i in range(steps):
            rows[i] = [i * DT, pos[0], pos[1]]
            while np.linalg.norm(goal - pos) < 0.2:
                goal = np.array([rng.uniform(1, ARENA[0] - 1), rng.uniform(1, ARENA[1] - 1)])
                if np.linalg.norm(goal - pos) >= 2.0:
                    speed = rng.uniform(lo, hi)
            step = goal - pos
            step = step / np.linalg.norm(step) * min(speed * DT, np.linalg.norm(step))
            pos = pos + step
        tracks.append(rows)
    return tracks


# ---------------------------------------------------------------------------
# labeling

def split_labels(separations: np.ndarray, cfg: LabelingConfig):
    """Apply the safe / unsafe / unlabeled / discarded rule to a separation series.

    Returns a label per entry ('safe'/'unsafe'/'unlabeled'/'discard').
    """
    sep = np.asarray(separations, dtype=float)
    labels = np.full(len(sep), LABEL_SAFE, dtype=object)
    unsafe = sep < cfg.d
    if not unsafe.any():
        return labels
    first = int(np.argmax(unsafe))
    labels[max(0, first - cfg.tau):first] = LABEL_UNLABELED
    after = np.arange(len(sep)) >= first
    labels[after & unsafe] = LABEL_UNSAFE
    labels[after & ~unsafe] = "discard"
    return labels


def _kept(contexts: np.ndarray, labels: np.ndarray):
    """(contexts, labels) without the discarded rows."""
    keep = labels != "discard"
    return contexts[keep], labels[keep]


def label_static(traj: np.ndarray, obstacle, cfg: LabelingConfig):
    """(contexts, labels) of a trajectory against one fixed obstacle."""
    traj = np.asarray(traj, dtype=float)
    obstacle = np.asarray(obstacle, dtype=float)
    sep = np.linalg.norm(traj[:, 1:3] - obstacle, axis=1)
    ctx = np.hstack([traj[:, 1:6], np.broadcast_to(obstacle, (len(traj), 2))])
    return _kept(ctx, split_labels(sep, cfg))


def _align_by_time(t_a: np.ndarray, t_b: np.ndarray):
    """Indices pairing entries of two 0.1 s series with matching timestamps."""
    ra = np.round(t_a / DT).astype(int)
    rb = np.round(t_b / DT).astype(int)
    common, ia, ib = np.intersect1d(ra, rb, return_indices=True)
    if len(common) == 0:
        raise ValueError("time ranges do not overlap")
    return ia, ib


def label_dynamic(traj: np.ndarray, ped: np.ndarray, cfg: LabelingConfig):
    """(contexts, labels) of a trajectory against a pedestrian track; the
    first two aligned steps lack a 3-step pedestrian history and are dropped."""
    traj = np.asarray(traj, dtype=float)
    ped = np.asarray(ped, dtype=float)
    ia, ib = _align_by_time(traj[:, 0], ped[:, 0])
    rxy = traj[ia, 1:3]
    pxy = ped[ib, 1:3]
    sep = np.linalg.norm(rxy - pxy, axis=1)
    labels = split_labels(sep, cfg)
    ctx = np.hstack([traj[ia[2:], 1:6], pxy[:-2], pxy[1:-1], pxy[2:]])
    return _kept(ctx, labels[2:])


def label_multirobot(robot_a: np.ndarray, robot_b: np.ndarray, cfg: LabelingConfig):
    """(contexts, labels) from robot A's perspective."""
    robot_a = np.asarray(robot_a, dtype=float)
    robot_b = np.asarray(robot_b, dtype=float)
    ia, ib = _align_by_time(robot_a[:, 0], robot_b[:, 0])
    sep = np.linalg.norm(robot_a[ia, 1:3] - robot_b[ib, 1:3], axis=1)
    ctx = np.hstack([robot_a[ia, 1:6], robot_b[ib, 1:6]])
    return _kept(ctx, split_labels(sep, cfg))


# ---------------------------------------------------------------------------
# dataset drivers

def _concat(task: str, parts):
    """One (contexts, labels) set from labeled parts, in generation order."""
    contexts = [np.empty((0, CONTEXT_DIMS[task]))] + [c for c, _ in parts]
    labels = [np.empty(0, dtype=object)] + [lab for _, lab in parts]
    return np.concatenate(contexts), np.concatenate(labels)


def _rebase(arr: np.ndarray, start: int, length: int) -> np.ndarray:
    """Window a 0.1 s series and rebase its time column to zero."""
    win = arr[start:start + length].copy()
    win[:, 0] -= win[0, 0]
    return win


def build_static_dataset(trajectories, cfg: LabelingConfig, seed: int,
                         clones_per_traj: int = 6):
    """Clone each trajectory with sampled obstacles lying within reach of it.

    Obstacles land in a disc around a random trajectory point so that
    near-collision interactions dominate the labeled set.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for traj in trajectories:
        xy = np.asarray(traj)[:, 1:3]
        for _ in range(clones_per_traj):
            for _ in range(200):
                anchor = xy[rng.integers(len(xy))]
                radius = rng.uniform(0.1, MAX_OBSTACLE_DIST)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                obs = anchor + radius * np.array([math.cos(angle), math.sin(angle)])
                if 0 <= obs[0] <= ARENA[0] and 0 <= obs[1] <= ARENA[1]:
                    break
            parts.append(label_static(traj, obs, cfg))
    return _concat("static", parts)


def build_dynamic_dataset(trajectories, ped_tracks, cfg: LabelingConfig, seed: int,
                          pairs_per_traj: int = 6):
    """Pair robot trajectories with pedestrian windows, translated so the
    pair actually interacts (features are relative, so shifting the
    pedestrian track preserves physical validity)."""
    rng = np.random.default_rng(seed)
    parts = []
    for traj in trajectories:
        traj = np.asarray(traj)
        n = len(traj)
        for _ in range(pairs_per_traj):
            track = ped_tracks[rng.integers(len(ped_tracks))]
            if len(track) < n:
                continue
            off = int(rng.integers(0, len(track) - n + 1))
            window = _rebase(track, off, n)
            k = int(rng.integers(n))
            radius = rng.uniform(0.1, 3.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            target = traj[k, 1:3] + radius * np.array([math.cos(angle), math.sin(angle)])
            window[:, 1:3] += target - window[k, 1:3]
            parts.append(label_dynamic(traj, window, cfg))
    return _concat("dynamic", parts)


def build_multirobot_dataset(trajectories, cfg: LabelingConfig, seed: int, pairs: int = 120):
    """Pair trajectories, translating the second so the two robots actually
    meet: the features only depend on relative position, so shifting one
    trajectory is a valid way to manufacture encounters in every approach
    geometry instead of waiting for two random walks to cross."""
    rng = np.random.default_rng(seed)
    parts = []
    for _ in range(pairs):
        i, j = rng.integers(len(trajectories), size=2)
        while j == i and len(trajectories) > 1:
            j = rng.integers(len(trajectories))
        a, b = np.asarray(trajectories[i]), np.asarray(trajectories[j]).copy()
        n = min(len(a), len(b))
        a, b = _rebase(a, 0, n), _rebase(b, 0, n)
        k = int(rng.integers(n))
        radius = rng.uniform(0.1, 3.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        target = a[k, 1:3] + radius * np.array([math.cos(angle), math.sin(angle)])
        b[:, 1:3] += target - b[k, 1:3]
        parts.append(label_multirobot(a, b, cfg))
    return _concat("multirobot", parts)


# ---------------------------------------------------------------------------
# file formats

def save_trajectories(path, trajectories):
    """One line per entry: the trajectory index, then the 8 trajectory columns."""
    with open(path, "w") as fh:
        for k, traj in enumerate(trajectories):
            for row in np.asarray(traj):
                fh.write(f"{k} " + " ".join(f"{v:.9g}" for v in row) + "\n")
