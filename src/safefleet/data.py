"""Dataset construction.

Generates teleop-style robot trajectories and random-waypoint pedestrian
tracks in simulation, then builds the three labeled training sets (static
obstacle, dynamic obstacle, robot-robot) with safe/unsafe/unlabeled splits
and the task-specific feature encodings.

Trajectory arrays have shape (T, 8) with columns t, x, y, theta, v, omega,
u_v, u_omega at a fixed 0.1 s spacing.  Pedestrian arrays are (T, 3):
t, x, y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .world import (DT, Control, PlatformParams, RobotState,
                    apply_ground_truth_dynamics, candidate_controls, wrap_angle)

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


@dataclass(frozen=True)
class LabeledSample:
    task: str
    features: np.ndarray
    label: str
    context: np.ndarray


# ---------------------------------------------------------------------------
# feature encodings

def features_static(state: RobotState, obstacle) -> np.ndarray:
    return np.array([obstacle[0] - state.x, obstacle[1] - state.y,
                     state.theta, state.v, state.omega])


def features_dynamic(state: RobotState, ped_history) -> np.ndarray:
    """ped_history: last 3 pedestrian positions, oldest first."""
    hist = np.asarray(ped_history, dtype=float)
    if hist.shape != (3, 2):
        raise ValueError("need exactly 3 pedestrian positions")
    rel = hist - np.array([state.x, state.y])
    return np.concatenate([[state.theta, state.v, state.omega], rel.ravel()])


def features_multirobot(state_a: RobotState, state_b: RobotState) -> np.ndarray:
    return np.array([state_a.x - state_b.x, state_a.y - state_b.y,
                     state_a.theta, state_b.theta,
                     state_a.v, state_a.omega, state_b.v, state_b.omega])


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

def _steer_inward(state: RobotState, arena, candidates) -> Control:
    """Pick a gentle candidate turning the robot back toward the arena center."""
    cx, cy = arena[0] / 2.0, arena[1] / 2.0
    bearing = math.atan2(cy - state.y, cx - state.x)
    err = float(wrap_angle(bearing - state.theta))
    angulars = np.unique(candidates[:, 1])
    u_w = angulars.max() if err > 0 else angulars.min()
    return Control(0.3, float(u_w))


def _near_wall_heading_out(state: RobotState, arena, margin=1.8) -> bool:
    hx, hy = math.cos(state.theta), math.sin(state.theta)
    if state.x < margin and hx < 0:
        return True
    if state.x > arena[0] - margin and hx > 0:
        return True
    if state.y < margin and hy < 0:
        return True
    if state.y > arena[1] - margin and hy > 0:
        return True
    return False


def generate_robot_trajectories(platform: PlatformParams, duration: float, seed: int,
                                arena=(12.0, 12.0), chunk_seconds: float = 60.0,
                                noise_sigma: float = 0.01):
    """Scripted pseudo-teleop: random dwell-switched candidate controls with
    wall-avoidance steering.  Returns a list of (T, 8) trajectory arrays."""
    if duration < 60:
        raise ValueError("duration must be at least 60 s")
    rng = np.random.default_rng(seed)
    candidates = candidate_controls(platform.max_speed)
    total_steps = int(round(duration / DT))
    chunk_steps = int(round(chunk_seconds / DT))
    trajectories = []
    state = RobotState(rng.uniform(2, arena[0] - 2), rng.uniform(2, arena[1] - 2),
                       rng.uniform(-math.pi, math.pi), 0.0, 0.0)
    control = Control(*candidates[rng.integers(len(candidates))])
    dwell_left = 0
    done = 0
    while done < total_steps:
        n = min(chunk_steps, total_steps - done)
        rows = np.empty((n, 8))
        for i in range(n):
            if dwell_left <= 0:
                control = Control(*candidates[rng.integers(len(candidates))])
                dwell_left = int(rng.uniform(0.5, 3.0) / DT)
            cmd = control
            if _near_wall_heading_out(state, arena):
                cmd = _steer_inward(state, arena, candidates)
            rows[i] = [(done + i) * DT, state.x, state.y, state.theta,
                       state.v, state.omega, cmd.u_v, cmd.u_omega]
            noise = tuple(rng.normal(0.0, noise_sigma, 2)) if noise_sigma > 0 else (0.0, 0.0)
            state = apply_ground_truth_dynamics(state, cmd, platform, DT, velocity_noise=noise)
            dwell_left -= 1
        rows[:, 0] -= rows[0, 0]  # each trajectory starts at t = 0
        trajectories.append(rows)
        done += n
    return trajectories


def generate_pedestrian_tracks(count: int, duration: float, speed_range, seed: int,
                               arena=(12.0, 12.0)):
    """Random-waypoint walks sampled at 0.1 s.  Returns list of (T, 3) arrays."""
    lo, hi = speed_range
    if not (0 < lo <= hi <= 2.5):
        raise ValueError("speed range must lie within (0, 2.5]")
    rng = np.random.default_rng(seed)
    steps = int(round(duration / DT))
    tracks = []
    for _ in range(count):
        pos = np.array([rng.uniform(1, arena[0] - 1), rng.uniform(1, arena[1] - 1)])
        rows = np.empty((steps, 3))
        goal = pos
        speed = lo
        for i in range(steps):
            rows[i] = [i * DT, pos[0], pos[1]]
            while np.linalg.norm(goal - pos) < 0.2:
                goal = np.array([rng.uniform(1, arena[0] - 1), rng.uniform(1, arena[1] - 1)])
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


def label_static(traj: np.ndarray, obstacle, cfg: LabelingConfig):
    traj = np.asarray(traj, dtype=float)
    obstacle = np.asarray(obstacle, dtype=float)
    sep = np.linalg.norm(traj[:, 1:3] - obstacle, axis=1)
    labels = split_labels(sep, cfg)
    samples = []
    for row, label in zip(traj, labels):
        if label == "discard":
            continue
        state = RobotState(*row[1:6])
        ctx = np.concatenate([row[1:6], obstacle])
        samples.append(LabeledSample("static", features_static(state, obstacle), label, ctx))
    return samples


def _align_by_time(t_a: np.ndarray, t_b: np.ndarray):
    """Indices pairing entries of two 0.1 s series with matching timestamps."""
    ra = np.round(t_a / DT).astype(int)
    rb = np.round(t_b / DT).astype(int)
    common, ia, ib = np.intersect1d(ra, rb, return_indices=True)
    if len(common) == 0:
        raise ValueError("time ranges do not overlap")
    return ia, ib


def label_dynamic(traj: np.ndarray, ped: np.ndarray, cfg: LabelingConfig):
    traj = np.asarray(traj, dtype=float)
    ped = np.asarray(ped, dtype=float)
    ia, ib = _align_by_time(traj[:, 0], ped[:, 0])
    rxy = traj[ia, 1:3]
    pxy = ped[ib, 1:3]
    sep = np.linalg.norm(rxy - pxy, axis=1)
    labels = split_labels(sep, cfg)
    samples = []
    for k in range(2, len(ia)):  # need 3 steps of pedestrian history
        label = labels[k]
        if label == "discard":
            continue
        row = traj[ia[k]]
        state = RobotState(*row[1:6])
        hist = pxy[k - 2:k + 1]
        ctx = np.concatenate([row[1:6], hist.ravel()])
        samples.append(LabeledSample("dynamic", features_dynamic(state, hist), label, ctx))
    return samples


def label_multirobot(robot_a: np.ndarray, robot_b: np.ndarray, cfg: LabelingConfig):
    """Labels from robot A's perspective."""
    robot_a = np.asarray(robot_a, dtype=float)
    robot_b = np.asarray(robot_b, dtype=float)
    ia, ib = _align_by_time(robot_a[:, 0], robot_b[:, 0])
    sep = np.linalg.norm(robot_a[ia, 1:3] - robot_b[ib, 1:3], axis=1)
    labels = split_labels(sep, cfg)
    samples = []
    for k in range(len(ia)):
        label = labels[k]
        if label == "discard":
            continue
        sa = RobotState(*robot_a[ia[k], 1:6])
        sb = RobotState(*robot_b[ib[k], 1:6])
        ctx = np.concatenate([robot_a[ia[k], 1:6], robot_b[ib[k], 1:6]])
        samples.append(LabeledSample("multirobot", features_multirobot(sa, sb), label, ctx))
    return samples


# ---------------------------------------------------------------------------
# dataset drivers

def _rebase(arr: np.ndarray, start: int, length: int) -> np.ndarray:
    """Window a 0.1 s series and rebase its time column to zero."""
    win = arr[start:start + length].copy()
    win[:, 0] -= win[0, 0]
    return win


def build_static_dataset(trajectories, cfg: LabelingConfig, seed: int,
                         clones_per_traj: int = 6, arena=(12.0, 12.0),
                         max_obstacle_dist: float = 3.0):
    """Clone each trajectory with sampled obstacles lying within reach of it.

    Obstacles land in a disc around a random trajectory point so that
    near-collision interactions dominate the labeled set.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for traj in trajectories:
        xy = np.asarray(traj)[:, 1:3]
        for _ in range(clones_per_traj):
            for _ in range(200):
                anchor = xy[rng.integers(len(xy))]
                radius = rng.uniform(0.1, max_obstacle_dist)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                obs = anchor + radius * np.array([math.cos(angle), math.sin(angle)])
                if 0 <= obs[0] <= arena[0] and 0 <= obs[1] <= arena[1]:
                    break
            samples.extend(label_static(traj, obs, cfg))
    return samples


def _interacting_window(xy_a, xy_b, threshold=3.0):
    return float(np.min(np.linalg.norm(xy_a - xy_b, axis=1))) <= threshold


def build_dynamic_dataset(trajectories, ped_tracks, cfg: LabelingConfig, seed: int,
                          pairs_per_traj: int = 6):
    """Pair robot trajectories with pedestrian windows, translated so the
    pair actually interacts (features are relative, so shifting the
    pedestrian track preserves physical validity)."""
    rng = np.random.default_rng(seed)
    samples = []
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
            samples.extend(label_dynamic(traj, window, cfg))
    return samples


def build_multirobot_dataset(trajectories, cfg: LabelingConfig, seed: int, pairs: int = 120):
    """Pair trajectories, translating the second so the two robots actually
    meet: the features only depend on relative position, so shifting one
    trajectory is a valid way to manufacture encounters in every approach
    geometry instead of waiting for two random walks to cross."""
    rng = np.random.default_rng(seed)
    samples = []
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
        samples.extend(label_multirobot(a, b, cfg))
    return samples


def stack_samples(samples, label):
    """(features, contexts) arrays for the samples carrying the given label."""
    chosen = [s for s in samples if s.label == label]
    if not chosen:
        task = samples[0].task if samples else "static"
        return (np.empty((0, FEATURE_DIMS[task])), np.empty((0, CONTEXT_DIMS[task])))
    return (np.stack([s.features for s in chosen]),
            np.stack([s.context for s in chosen]))


# ---------------------------------------------------------------------------
# file formats

def save_trajectories(path, trajectories):
    """One line per entry: the trajectory index, then the 8 trajectory columns."""
    with open(path, "w") as fh:
        for k, traj in enumerate(trajectories):
            for row in np.asarray(traj):
                fh.write(f"{k} " + " ".join(f"{v:.9g}" for v in row) + "\n")


def load_trajectories(path):
    raw = np.loadtxt(path)
    raw = np.atleast_2d(raw)
    return [raw[raw[:, 0] == k][:, 1:] for k in np.unique(raw[:, 0])]


def save_samples(path, samples):
    """One line per sample: task label features... | context..."""
    with open(path, "w") as fh:
        for s in samples:
            feats = " ".join(f"{v:.9g}" for v in s.features)
            ctx = " ".join(f"{v:.9g}" for v in s.context)
            fh.write(f"{s.task} {s.label} {feats} | {ctx}\n")


def load_samples(path):
    samples = []
    with open(path) as fh:
        for line in fh:
            head, ctx = line.split("|")
            parts = head.split()
            task, label = parts[0], parts[1]
            feats = np.array([float(v) for v in parts[2:]])
            context = np.array([float(v) for v in ctx.split()])
            samples.append(LabeledSample(task, feats, label, context))
    return samples
