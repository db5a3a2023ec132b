"""Decentralized sampling-based safe controller.

Each tick the robot classifies its surrounding agents from 3-step position
tracks (another robot's track also carries its coasted states, which the
caller predicts once per tick for the whole fleet), rolls the dynamics model
through the already-queued (delayed) controls to find the state where a new
command will actually bite, unrolls every discrete candidate over a short
horizon, vetoes candidates whose predicted states violate any per-agent
barrier, and picks the survivor with the best goal-driven score.  The
dynamics roll all candidates forward step by step, then each nearby agent's
barrier is evaluated once on the whole horizon x candidates block of
predicted states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import features_from_context
from .dynamics import DynamicsModel, predict_next_batch
from .world import DT, coast_step_batch

HORIZON = 15                   # unroll depth, steps
STATIC_SPEED_THRESHOLD = 0.05  # m/s; slower agents count as static obstacles
INTERACTION_RADIUS = 5.0       # m; agents farther than this are ignored


class MissingBarrierError(RuntimeError):
    """No barrier model is loaded for an encountered agent kind."""


@dataclass(frozen=True)
class AgentTrack:
    id: str
    positions: np.ndarray                 # (3, 2), oldest first, DT spacing
    states: np.ndarray | None = None      # (K+1, 5) coasted states, robots only; row 0 is now

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        if self.positions.shape != (3, 2):
            raise ValueError("track needs exactly 3 positions")


@dataclass
class ControllerConfig:
    candidates: np.ndarray                # (C, 2) canonical candidate set
    desired_speed: float = 1.0

    def __post_init__(self):
        self.candidates = np.asarray(self.candidates, dtype=float)


def classify_agent(track: AgentTrack) -> str:
    """'robot' for tracks that carry coasted states, else mean-speed thresholding."""
    if track.states is not None:
        return "robot"
    steps = np.diff(track.positions, axis=0)
    mean_speed = float(np.linalg.norm(steps, axis=1).mean()) / DT
    return "static" if mean_speed < STATIC_SPEED_THRESHOLD else "pedestrian"


def plan_start_state(current: np.ndarray, queue: np.ndarray, dyn: DynamicsModel) -> np.ndarray:
    """Roll the (5,) current state through the (k, 2) not-yet-executed control queue."""
    state = current[None, :]
    for u in queue:
        state = predict_next_batch(dyn, state, u[None, :])
    return state[0]


def coast_rollout(states: np.ndarray, n_steps: int) -> np.ndarray:
    """(n_steps + 1, R, 5) constant-velocity coast of the (R, 5) `states`;
    row 0 is `states`.  The step is elementwise, so each robot's rows equal
    its own one-row coast bit for bit."""
    out = np.empty((n_steps + 1,) + states.shape)
    out[0] = states
    for k in range(n_steps):
        out[k + 1] = coast_step_batch(out[k])
    return out


def _predicted_agent(track: AgentTrack, steps: np.ndarray):
    """Barrier task of one agent, with its context columns (S, k) and positions
    (S, 2) extrapolated to each of the ascending `steps` (>= 1)."""
    kind = classify_agent(track)
    if kind == "static":
        cols = np.tile(track.positions[-1], (len(steps), 1))
        return "static", cols, cols
    if kind == "pedestrian":
        vel = (track.positions[2] - track.positions[0]) / (2.0 * DT)
        # constant velocity; the history window of step s is steps s-2, s-1, s
        ks = steps[:, None] + np.arange(-2, 1)
        windows = track.positions[2] + ks[..., None] * DT * vel
        return "dynamic", windows.reshape(len(steps), 6), windows[:, 2]
    if steps[-1] >= len(track.states):
        raise ValueError(f"track {track.id!r} is coasted {len(track.states) - 1} steps, "
                         f"{steps[-1]} needed")
    return "multirobot", track.states[steps], track.states[steps, 0:2]


def filter_candidates(start: np.ndarray, agents, barriers: dict,
                      dyn: DynamicsModel, cfg: ControllerConfig,
                      time_offset_steps: int = 0):
    """Unroll every candidate `HORIZON` steps and veto any whose predicted
    states put some agent's barrier below zero.

    Two phases: the dynamics roll the candidates forward step by step into an
    (H, C, 5) trajectory, then each nearby agent's barrier is evaluated in one
    call on all H*C contexts and minimised over the horizon per candidate.

    `time_offset_steps` shifts the agent extrapolations forward so that when
    the start state is the delay-compensated (future) robot state, the agents
    are predicted at the same wall-clock times.

    Returns (surviving candidate indices, terminal (C, 5) unrolled states,
    per-candidate worst barrier value over all steps and agents, and the
    per-candidate worst predicted clearance to any agent).  The clearance
    lets the caller pick a recovery control when every candidate is vetoed:
    below the barrier's zero level its magnitudes carry no calibrated
    meaning, so raw predicted distance is the honest ranking there.
    """
    cands = cfg.candidates
    n_cand = len(cands)
    traj = np.empty((HORIZON, n_cand, 5))
    states = np.tile(start, (n_cand, 1))
    for k in range(HORIZON):
        states = traj[k] = predict_next_batch(dyn, states, cands)
    flat = traj.reshape(-1, 5)              # row k*C + c: candidate c at step k+1
    steps = np.arange(1, HORIZON + 1) + time_offset_steps
    worst_b = np.full(n_cand, np.inf)
    worst_d = np.full(n_cand, np.inf)
    for track in agents:
        if np.linalg.norm(track.positions[-1] - start[0:2]) > INTERACTION_RADIUS:
            continue
        task, cols, pos = _predicted_agent(track, steps)
        if task not in barriers:
            raise MissingBarrierError(f"no barrier model for agent kind {task!r}")
        ctx = np.hstack([flat, np.repeat(cols, n_cand, axis=0)])
        b = barriers[task].value(features_from_context(task, ctx)).reshape(HORIZON, n_cand)
        worst_b = np.minimum(worst_b, b.min(axis=0))
        d = np.linalg.norm(traj[:, :, 0:2] - pos[:, None, :], axis=2)
        worst_d = np.minimum(worst_d, d.min(axis=0))
    return np.where(worst_b >= 0.0)[0], states, worst_b, worst_d


RECOVERY_CLEARANCE_CAP = 0.7    # the labeled safety distance d


def recovery_control(cfg: ControllerConfig, worst_b: np.ndarray,
                     worst_d: np.ndarray) -> np.ndarray:
    """Least-bad candidate when every candidate is vetoed.

    Below the barrier's zero level its magnitudes carry no calibrated
    meaning, so candidates are ranked by worst-case predicted clearance,
    capped at the safety distance: gaining clearance beyond d buys nothing,
    and past that point the barrier value breaks the tie.
    """
    capped = np.minimum(worst_d, RECOVERY_CLEARANCE_CAP)
    best = np.lexsort((worst_b, capped))[-1]
    return cfg.candidates[int(best)]


def goal_score(terminal: np.ndarray, goal, cfg: ControllerConfig) -> np.ndarray:
    """Velocity-tracking plus goal-reaching score of each (N, 5) terminal
    state row, the two terms weighted equally; 0 is the maximum."""
    dist = np.linalg.norm(terminal[:, 0:2] - np.asarray(goal, dtype=float), axis=1)
    return -np.abs(terminal[:, 3] - cfg.desired_speed) - dist


def select_control(current: np.ndarray, queue: np.ndarray, agents, goal, barriers: dict,
                   dyn: DynamicsModel, cfg: ControllerConfig,
                   compensate_delay: bool = True) -> np.ndarray:
    """Full pipeline: delay compensation, candidate filtering, goal-score argmax.
    Returns the (2,) candidate row to command.

    When every candidate is vetoed there is no certified-safe option left, so
    the controller degrades to damage limitation via `recovery_control`,
    which actively steers away from the threat instead of freezing in its
    path.

    Raises ValueError when the current state, a queued control or the goal
    is non-finite: such a plan would veto every candidate without saying why.
    """
    for name, value in (("state", current), ("queued control", queue), ("goal", goal)):
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"non-finite {name}: {value!r}")
    if compensate_delay:
        start = plan_start_state(current, queue, dyn)
        offset = len(queue)
    else:
        start, offset = current, 0
    survivors, terminal, worst_b, worst_d = filter_candidates(
        start, agents, barriers, dyn, cfg, time_offset_steps=offset)
    if len(survivors) == 0:
        return recovery_control(cfg, worst_b, worst_d)
    best = survivors[int(np.argmax(goal_score(terminal[survivors], goal, cfg)))]
    return cfg.candidates[best]
