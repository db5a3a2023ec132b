"""Deterministic discrete-time planar world.

Differential-drive robots with per-platform acceleration limits and a FIFO
control-delay queue, plus scripted waypoint pedestrians.  Collision is a
distance predicate only; there is no contact resolution.

`kinematics_step_batch` is the one differential-drive step: `step_world`
moves every robot with one call per tick, the data generator steps its
trajectories through it, and the dynamics model predicts with it, passing
a learned refinement as its residual where one shipped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DT = 0.1  # global tick, seconds
MAX_OMEGA = 1.5        # angular speed cap of every platform, rad/s
VELOCITY_NOISE = 0.01  # std of the simulated robots' per-tick velocity noise

# Discrete control candidates per max-speed setting.  The full candidate set
# is the Cartesian product of the linear and angular rows (15 / 28 / 35).
LINEAR_CANDIDATES = {
    0.5: (0.0, 0.3, 0.5),
    1.0: (0.0, 0.3, 0.5, 1.0),
    1.5: (0.0, 0.3, 0.5, 1.0, 1.5),
}
ANGULAR_CANDIDATES = {
    0.5: (-0.8, -0.4, 0.0, 0.4, 0.8),
    1.0: (-1.2, -0.8, -0.4, 0.0, 0.4, 0.8, 1.2),
    1.5: (-1.2, -0.8, -0.4, 0.0, 0.4, 0.8, 1.2),
}


def candidate_controls(max_speed: float) -> np.ndarray:
    """Canonical (C, 2) candidate array: linear-major, angular ascending."""
    if max_speed not in LINEAR_CANDIDATES:
        raise ValueError(f"no candidate set for max speed {max_speed}")
    lin = LINEAR_CANDIDATES[max_speed]
    ang = ANGULAR_CANDIDATES[max_speed]
    return np.array([(v, w) for v in lin for w in ang], dtype=float)


def wrap_angle(theta):
    """Wrap angle(s) to (-pi, pi]."""
    return -((-np.asarray(theta) + math.pi) % (2.0 * math.pi) - math.pi)


@dataclass(frozen=True)
class RobotState:
    x: float
    y: float
    theta: float
    v: float
    omega: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta, self.v, self.omega])

    @staticmethod
    def from_array(a) -> "RobotState":
        return RobotState(float(a[0]), float(a[1]), float(a[2]), float(a[3]), float(a[4]))

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class Control:
    u_v: float
    u_omega: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u_v, self.u_omega])


@dataclass(frozen=True)
class PlatformParams:
    name: str
    m_v: float          # max linear acceleration, m/s^2
    m_omega: float      # max angular acceleration, rad/s^2
    delay_h: float      # control delay, seconds (integer multiple of DT)
    max_speed: float    # commanded linear speed cap, m/s

    def __post_init__(self):
        if self.m_v <= 0 or self.m_omega <= 0:
            raise ValueError("acceleration limits must be positive")
        k = self.delay_h / DT
        if abs(k - round(k)) > 1e-9:
            raise ValueError("delay_h must be an integer multiple of DT")

    @property
    def delay_steps(self) -> int:
        return int(round(self.delay_h / DT))


# Measured platform characteristics (acceleration limits and control delay).
_PLATFORM_SPECS = {
    "freight": dict(m_v=2.15, m_omega=2.4, delay_h=0.1),
    "jackal": dict(m_v=2.15, m_omega=2.4, delay_h=0.1),
    "megarover": dict(m_v=0.6, m_omega=2.4, delay_h=0.2),
}


def platform_base(name: str) -> str:
    """Platform of a robot name: freight#2 style duplicate ids share freight's."""
    return name.split("#")[0]


def make_platform(name: str, max_speed: float, delay_h: float | None = None) -> PlatformParams:
    base = platform_base(name)
    if base not in _PLATFORM_SPECS:
        raise ValueError(f"unknown platform {name!r}")
    spec = dict(_PLATFORM_SPECS[base])
    if delay_h is not None:
        spec["delay_h"] = delay_h
    return PlatformParams(name=name, max_speed=max_speed, **spec)


def kinematics_step_batch(states: np.ndarray, controls: np.ndarray, m_v, m_omega, max_speed,
                          residual: np.ndarray | None = None) -> np.ndarray:
    """Differential-drive step on (N, 5) states under (N, 2) target-velocity controls.

    This is the one motion model: the simulator, the data generator and the
    dynamics model all step through it.  Velocity change per step is
    clamped symmetrically to +-accel*DT; speeds are clamped to the platform
    caps afterwards.  The limits are scalars or per-row arrays.  The optional
    (N, 4) residual adds to the effective v and omega of the pose update and
    to the two velocity updates before the caps (simulator noise, learned
    refinement).
    """
    x, y, th, v, om = states.T
    uv, uw = controls.T
    v_eff, om_eff = v, om
    dv_max, dw_max = m_v * DT, m_omega * DT
    # np.minimum/np.maximum give np.clip's bits at about half its per-call cost
    v_new = v + np.minimum(np.maximum(uv - v, -dv_max), dv_max)
    om_new = om + np.minimum(np.maximum(uw - om, -dw_max), dw_max)
    if residual is not None:
        v_eff = v + residual[:, 0]
        om_eff = om + residual[:, 1]
        v_new = v_new + residual[:, 2]
        om_new = om_new + residual[:, 3]
    nxt = np.empty_like(states, dtype=float)
    nxt[:, 0] = x + np.cos(th) * v_eff * DT
    nxt[:, 1] = y + np.sin(th) * v_eff * DT
    nxt[:, 2] = wrap_angle(th + om_eff * DT)
    nxt[:, 3] = np.minimum(np.maximum(v_new, -max_speed), max_speed)
    nxt[:, 4] = np.minimum(np.maximum(om_new, -MAX_OMEGA), MAX_OMEGA)
    return nxt


def coast_step_batch(states: np.ndarray) -> np.ndarray:
    """Advance (N, 5) states holding v and omega constant (uncontrolled agent)."""
    x, y, th, v, om = states.T
    nxt = states.copy()
    nxt[:, 0] = x + np.cos(th) * v * DT
    nxt[:, 1] = y + np.sin(th) * v * DT
    nxt[:, 2] = wrap_angle(th + om * DT)
    return nxt


@dataclass(frozen=True)
class PedestrianTrack:
    waypoints: tuple          # ((x, y), ...) at least 2, consecutive distinct
    speeds: tuple             # m/s per segment, positive

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("track needs at least two waypoints")
        if len(self.speeds) != len(self.waypoints) - 1:
            raise ValueError("need one speed per segment")
        for (a, b) in zip(self.waypoints[:-1], self.waypoints[1:]):
            if math.dist(a, b) < 1e-9:
                raise ValueError("consecutive waypoints must be distinct")
        if any(s <= 0 for s in self.speeds):
            raise ValueError("segment speeds must be positive")


@dataclass(frozen=True)
class PedestrianWalker:
    """Position along a track; ping-pongs between the track ends."""
    track: PedestrianTrack
    segment: int = 0
    progress: float = 0.0     # meters along current segment
    forward: bool = True

    def position(self) -> np.ndarray:
        a = np.array(self.track.waypoints[self.segment], dtype=float)
        b = np.array(self.track.waypoints[self.segment + 1], dtype=float)
        if not self.forward:
            a, b = b, a
        length = float(np.linalg.norm(b - a))
        return a + (b - a) * (self.progress / length)

    def advanced(self) -> "PedestrianWalker":
        """The walker one tick later."""
        seg, prog, fwd = self.segment, self.progress, self.forward
        remaining = self.track.speeds[seg] * DT
        while remaining > 0:
            a = self.track.waypoints[seg]
            b = self.track.waypoints[seg + 1]
            length = math.dist(a, b)
            room = length - prog
            if remaining < room:
                prog += remaining
                remaining = 0.0
            else:
                remaining -= room
                prog = 0.0
                if fwd:
                    if seg + 1 < len(self.track.waypoints) - 1:
                        seg += 1
                    else:
                        fwd = False
                else:
                    if seg > 0:
                        seg -= 1
                    else:
                        fwd = True
        return PedestrianWalker(self.track, seg, prog, fwd)


@dataclass(frozen=True)
class RobotAgent:
    state: RobotState
    params: PlatformParams
    queue: tuple              # pending controls, oldest first; len == delay_steps


@dataclass
class WorldState:
    time: float
    robots: dict              # id -> RobotAgent
    pedestrians: dict         # id -> PedestrianWalker
    obstacles: list           # [(x, y), ...]
    noise_sigma: float = 0.0
    rng: np.random.Generator = None

    def robot_state(self, robot_id) -> RobotState:
        return self.robots[robot_id].state


def make_world(robots: dict, pedestrians: dict | None = None,
               obstacles: list | None = None, noise_sigma: float = 0.0,
               seed: int = 0) -> WorldState:
    """robots: id -> (RobotState, PlatformParams).  Delay queues start with stop controls."""
    agents = {}
    for rid, (state, params) in robots.items():
        if not np.all(np.isfinite(state.as_array())):
            raise ValueError(f"non-finite initial state for robot {rid!r}: {state}")
        queue = tuple(Control(0.0, 0.0) for _ in range(params.delay_steps))
        agents[rid] = RobotAgent(state, params, queue)
    return WorldState(time=0.0, robots=agents, pedestrians=dict(pedestrians or {}),
                      obstacles=list(obstacles or []), noise_sigma=noise_sigma,
                      rng=np.random.default_rng(seed))


def step_world(world: WorldState, commands: dict) -> WorldState:
    """Advance one tick: queue new commands, apply each queue's oldest entry.

    All robots, in sorted id order, take one `kinematics_step_batch` step;
    velocity noise is one (R, 2) draw placed in the residual's velocity columns.
    """
    unknown = set(commands) - set(world.robots)
    if unknown:
        raise KeyError(f"unknown robot ids: {sorted(unknown)}")
    ids = sorted(world.robots)
    agents = [world.robots[rid] for rid in ids]
    queues, applied = [], []
    for rid, agent in zip(ids, agents):
        cmd = commands.get(rid, Control(0.0, 0.0))
        if not (math.isfinite(cmd.u_v) and math.isfinite(cmd.u_omega)):
            raise ValueError(f"non-finite command for robot {rid!r}: {cmd}")
        queue = agent.queue + (cmd,)
        applied.append((queue[0].u_v, queue[0].u_omega))
        queues.append(queue[1:])
    robots = {}
    if ids:
        limits = np.array([(a.params.m_v, a.params.m_omega, a.params.max_speed)
                           for a in agents], dtype=float)
        residual = None
        if world.noise_sigma > 0:
            residual = np.zeros((len(ids), 4))
            residual[:, 2:] = world.rng.normal(0.0, world.noise_sigma, (len(ids), 2))
        states = kinematics_step_batch(
            np.array([[a.state.x, a.state.y, a.state.theta, a.state.v, a.state.omega]
                      for a in agents], dtype=float),
            np.array(applied, dtype=float), *limits.T, residual)
        for rid, agent, queue, row in zip(ids, agents, queues, states.tolist()):
            robots[rid] = RobotAgent(RobotState(*row), agent.params, queue)
    peds = {pid: w.advanced() for pid, w in world.pedestrians.items()}
    return WorldState(time=world.time + DT, robots=robots, pedestrians=peds,
                      obstacles=world.obstacles, noise_sigma=world.noise_sigma, rng=world.rng)
