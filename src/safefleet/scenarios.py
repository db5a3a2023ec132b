"""Scenario definition, seeded execution and metric computation.

A scenario is a seeded, repeatable experiment: unit tasks (each robot drives
to a fixed goal among obstacles/pedestrians) or fleet pick-and-place runs.
Rollouts are logged line-per-tick and reduced to the mean-velocity /
min-distance / path-length statistics used in the result tables.
"""
from __future__ import annotations

import io
import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
import yaml

from .controller import AgentTrack, ControllerConfig, select_control
from .dynamics import DynamicsModel
from .fleet import GOAL_TOLERANCE, Orchestrator, Task, WarehouseMap
from .world import (DT, VELOCITY_NOISE, PedestrianTrack, PedestrianWalker, PlatformParams,
                    candidate_controls, make_platform, make_world, platform_base, step_world)

STATIONARY_DISPLACEMENT = 0.005   # m per tick; slower ticks do not count as moving
COLLISION_DISTANCE = 0.5          # m; separation below this counts as a collision tick


@dataclass
class ScenarioConfig:
    name: str
    mode: str                      # "unit_task" | "pick_and_place"
    max_speed: float
    robots: list                   # {id, platform, start [x,y,theta], goal [x,y]}
    obstacles: list = field(default_factory=list)
    pedestrians: list = field(default_factory=list)  # {waypoints, speed, phase_jitter}
    tasks: list = field(default_factory=list)        # pick_and_place: {id, pickup, dropoff}
    map: dict | None = None        # pick_and_place: waypoints/edges/zones
    homes: dict = field(default_factory=dict)        # robot id -> charging waypoint id
    repetitions: int = 1
    seed: int = 0
    time_budget: float = 120.0
    delay_override: float | None = None
    compensate_delay: bool = True
    obstacle_jitter: float = 0.0
    start_jitter: float = 0.0

    def __post_init__(self):
        if self.mode not in ("unit_task", "pick_and_place"):
            raise ValueError(f"unknown scenario mode {self.mode!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.max_speed not in (0.5, 1.0, 1.5):
            raise ValueError("max speed must select a candidate-set row")
        ids = set()
        for i, spec in enumerate(self.robots):
            rid = spec.get("id", f"#{i}")
            missing = {"id", "platform", "start"} - set(spec)
            if missing:
                raise ValueError(f"robot {rid!r} lacks {sorted(missing)}")
            if rid in ids:
                raise ValueError(f"duplicate robot id {rid!r}")
            ids.add(rid)
            if not _is_point(spec["start"], 3):
                raise ValueError(f"robot {rid!r} start must be 3 finite numbers: {spec['start']!r}")
            if self.mode == "unit_task" and spec.get("goal") is None:
                raise ValueError(f"unit_task robot {rid!r} has no goal")
            if spec.get("goal") is not None and not _is_point(spec["goal"], 2):
                raise ValueError(f"robot {rid!r} goal must be 2 finite numbers: {spec['goal']!r}")
            if self.mode == "pick_and_place" and rid not in self.homes:
                raise ValueError(f"pick_and_place robot {rid!r} has no home")
        for i, obs in enumerate(self.obstacles):
            if not _is_point(obs, 2):
                raise ValueError(f"obstacle {i} must be 2 finite numbers: {obs!r}")

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioConfig":
        unknown = set(raw) - {f.name for f in fields(ScenarioConfig)}
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        missing = {f.name for f in fields(ScenarioConfig)
                   if f.default is MISSING and f.default_factory is MISSING} - set(raw)
        if missing:
            raise ValueError(f"missing scenario keys: {sorted(missing)}")
        return ScenarioConfig(**raw)


def _is_point(value, n: int) -> bool:
    """Whether `value` is a sequence of `n` finite numbers."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return False
    return a.shape == (n,) and bool(np.all(np.isfinite(a)))


def load_scenario(path) -> ScenarioConfig:
    with open(path) as fh:
        return ScenarioConfig.from_dict(yaml.safe_load(fh))


@dataclass
class ModelBundle:
    dynamics: dict                 # platform base name -> DynamicsModel with a learned net
    barriers: dict                 # task -> BarrierModel
    rejections: dict = field(default_factory=dict)

    def dynamics_for(self, params: PlatformParams) -> DynamicsModel:
        """The robot's own platform limits, with the platform's refinement net
        if one shipped (plain kinematics otherwise)."""
        learned = self.dynamics.get(platform_base(params.name))
        return DynamicsModel(params, learned.net if learned is not None else None)


@dataclass
class Metrics:
    mean_velocity: float
    min_distance: float
    path_length: float
    collision_count: int


@dataclass
class RepResult:
    seed: int
    log: list                      # (t, id, kind, x, y, theta, v, omega) rows
    metrics: dict                  # robot id -> Metrics
    success: bool
    events: list = field(default_factory=list)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    reps: list


# ---------------------------------------------------------------------------
# execution

def _build_walker(spec: dict, rng) -> PedestrianWalker:
    waypoints = tuple(tuple(w) for w in spec["waypoints"])
    speeds = tuple([float(spec["speed"])] * (len(waypoints) - 1))
    walker = PedestrianWalker(PedestrianTrack(waypoints, speeds))
    jitter = float(spec.get("phase_jitter", 0.0))
    if jitter > 0:
        for _ in range(int(rng.uniform(0.0, jitter) / DT)):
            walker = walker.advanced()
    return walker


def run_single(cfg: ScenarioConfig, models: ModelBundle, seed: int) -> RepResult:
    rng = np.random.default_rng(seed)
    robots = {}
    platforms = {}
    goals = {}
    for spec in cfg.robots:
        rid = spec["id"]
        params = make_platform(spec["platform"], cfg.max_speed, cfg.delay_override)
        sx, sy, sth = spec["start"]
        if cfg.start_jitter > 0:
            sy += rng.uniform(-cfg.start_jitter, cfg.start_jitter)
        robots[rid] = (np.array([sx, sy, sth, 0.0, 0.0]), params)
        platforms[rid] = params
        if spec.get("goal") is not None:
            goals[rid] = np.asarray(spec["goal"], dtype=float)

    obstacles = [tuple(np.asarray(o, dtype=float)
                       + (rng.uniform(-cfg.obstacle_jitter, cfg.obstacle_jitter, 2)
                          if cfg.obstacle_jitter > 0 else 0.0))
                 for o in cfg.obstacles]
    pedestrians = {f"p{i}": _build_walker(spec, rng)
                   for i, spec in enumerate(cfg.pedestrians)}
    world = make_world(robots, pedestrians, obstacles,
                       noise_sigma=VELOCITY_NOISE, seed=seed + 7919)

    orchestrator = None
    if cfg.mode == "pick_and_place":
        tasks = [Task(t["id"], t["pickup"], t["dropoff"]) for t in cfg.tasks]
        orchestrator = Orchestrator(WarehouseMap.from_dict(cfg.map), tasks, cfg.homes)

    candidates = candidate_controls(cfg.max_speed)
    ctrl_cfgs = {rid: ControllerConfig(candidates=candidates, desired_speed=cfg.max_speed)
                 for rid in robots}

    ids = world.ids
    histories = {rid: [row[0:2]] * 3 for rid, row in zip(ids, world.states)}
    for pid, walker in pedestrians.items():
        histories[pid] = [walker.position()] * 3

    log = []
    reached = set()
    steps = int(round(cfg.time_budget / DT))
    for _ in range(steps):
        if orchestrator is not None:
            directives = orchestrator.step(world.time, dict(zip(ids, world.states[:, 0:2])))
            for rid, (goal, hold) in directives.items():
                goals[rid] = np.asarray(goal, dtype=float)
                ctrl_cfgs[rid].desired_speed = 0.0 if (hold or rid not in orchestrator.active) \
                    else cfg.max_speed

        commands = np.empty((len(ids), 2))
        for i, rid in enumerate(ids):
            state = world.states[i]
            cc = ctrl_cfgs[rid]
            if cfg.mode == "unit_task":
                cc.desired_speed = 0.0 if rid in reached else cfg.max_speed
            # approach slowdown: tracking full speed right at the goal makes a
            # full-speed orbit score better than landing inside the tolerance
            goal_dist = float(np.linalg.norm(goals[rid] - state[0:2]))
            cc.desired_speed = min(cc.desired_speed, max(0.3, goal_dist))
            agents = _surrounding_tracks(world, histories, i)
            commands[i] = select_control(state, world.queues[i], agents, goals[rid],
                                         models.barriers, models.dynamics_for(platforms[rid]),
                                         cc, compensate_delay=cfg.compensate_delay)

        _log_tick(log, world)
        world = step_world(world, commands)
        for rid, row in zip(ids, world.states):
            histories[rid] = histories[rid][1:] + [row[0:2]]
        for pid in pedestrians:
            histories[pid] = histories[pid][1:] + [world.pedestrians[pid].position()]

        if cfg.mode == "unit_task":
            for rid, row in zip(ids, world.states):
                if rid not in reached and np.linalg.norm(row[0:2] - goals[rid]) <= GOAL_TOLERANCE:
                    reached.add(rid)
            if len(reached) == len(robots):
                _log_tick(log, world)
                break
        elif orchestrator.all_done():
            _log_tick(log, world)
            break

    if cfg.mode == "unit_task":
        success = len(reached) == len(robots)
    else:
        success = orchestrator.all_done()

    metrics = {rid: compute_metrics(log, rid) for rid in robots}
    events = orchestrator.events if orchestrator is not None else []
    return RepResult(seed=seed, log=log, metrics=metrics, success=success, events=events)


def _surrounding_tracks(world, histories, i):
    """Tracks of every agent but robot i: the other robots with their states,
    then pedestrians, then obstacles."""
    tracks = []
    for j, oid in enumerate(world.ids):
        if j != i:
            tracks.append(AgentTrack(id=oid, positions=np.stack(histories[oid]),
                                     state=world.states[j]))
    for pid in sorted(world.pedestrians):
        tracks.append(AgentTrack(id=pid, positions=np.stack(histories[pid])))
    for k, obs in enumerate(world.obstacles):
        pos = np.asarray(obs, dtype=float)
        tracks.append(AgentTrack(id=f"o{k}", positions=np.stack([pos, pos, pos])))
    return tracks


def _log_tick(log, world):
    for rid, (x, y, th, v, om) in zip(world.ids, world.states.tolist()):
        log.append((world.time, rid, "robot", x, y, th, v, om))
    for pid in sorted(world.pedestrians):
        p = world.pedestrians[pid].position()
        log.append((world.time, pid, "pedestrian", float(p[0]), float(p[1]), 0.0, 0.0, 0.0))
    for i, obs in enumerate(world.obstacles):
        log.append((world.time, f"o{i}", "obstacle", float(obs[0]), float(obs[1]), 0.0, 0.0, 0.0))


def run_scenario(cfg: ScenarioConfig, models: ModelBundle) -> ScenarioResult:
    reps = [run_single(cfg, models, cfg.seed + 1000 * r) for r in range(cfg.repetitions)]
    return ScenarioResult(config=cfg, reps=reps)


# ---------------------------------------------------------------------------
# metrics and reports

def compute_metrics(log, robot_id) -> Metrics:
    """Path length, moving-only mean velocity and min separation from a tick log."""
    if not log:
        raise ValueError("empty tick log")
    by_time = {}
    own = []
    for row in log:
        t = row[0]
        if row[1] == robot_id:
            own.append(row)
        else:
            by_time.setdefault(t, []).append(row)
    if not own:
        raise ValueError(f"robot {robot_id!r} not in log")
    own.sort(key=lambda r: r[0])
    xy = np.array([(r[3], r[4]) for r in own])
    steps = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    moving = steps >= STATIONARY_DISPLACEMENT
    path = float(steps[moving].sum())   # sub-threshold jitter is not travel
    moving_time = float(moving.sum()) * DT
    mean_v = path / moving_time if moving_time > 0 else 0.0

    min_dist = math.inf
    collisions = 0
    for row in own:
        others = by_time.get(row[0], [])
        if not others:
            continue
        dists = [math.dist((row[3], row[4]), (o[3], o[4])) for o in others]
        d = min(dists)
        min_dist = min(min_dist, d)
        if d < COLLISION_DISTANCE:
            collisions += 1
    return Metrics(mean_velocity=mean_v, min_distance=min_dist, path_length=path,
                   collision_count=collisions)


def serialize_log(log) -> str:
    buf = io.StringIO()
    for t, aid, kind, x, y, th, v, om in log:
        buf.write(f"{t:.1f},{aid},{kind},{x:.6f},{y:.6f},{th:.6f},{v:.6f},{om:.6f}\n")
    return buf.getvalue()


def summarize(result: ScenarioResult) -> dict:
    """The scenario's report row: what it ran, then rep-averaged statistics
    (each rep's value averaged over its robots)."""
    cfg = result.config
    if cfg.mode == "pick_and_place":
        kind = "pick_and_place"
    elif cfg.pedestrians:
        kind = "dynamic"
    elif cfg.obstacles:
        kind = "static"
    else:
        kind = "multirobot"
    vels, dists, paths, succ = [], [], [], []
    for rep in result.reps:
        ms = list(rep.metrics.values())
        vels.append(np.mean([m.mean_velocity for m in ms]))
        dists.append(np.mean([m.min_distance for m in ms]))
        paths.append(np.mean([m.path_length for m in ms]))
        succ.append(rep.success)
    return {
        "scenario": cfg.name,
        "seed": cfg.seed,
        "type": kind,
        "n_obstacles": len(cfg.obstacles) + len(cfg.pedestrians),
        "max_speed": float(cfg.max_speed),
        "n_robots": len(cfg.robots),
        "mean_velocity": float(np.mean(vels)),
        "mean_velocity_std": float(np.std(vels)),
        "distance": float(np.mean(dists)),
        "distance_std": float(np.std(dists)),
        "path_length": float(np.mean(paths)),
        "success_rate": float(np.mean(succ)),
    }


# ---------------------------------------------------------------------------
# canonical scenario builders (desk-scale analogues of the result tables)

LANES = {1: [6.0], 2: [4.5, 7.5], 3: [3.0, 6.0, 9.0]}
PLATFORM_ORDER = ["freight", "jackal", "megarover"]


def _robot_specs(n_robots):
    specs = []
    for i, lane in enumerate(LANES[n_robots]):
        specs.append({"id": f"r{i}", "platform": PLATFORM_ORDER[i],
                      "start": [1.5, lane, 0.0], "goal": [10.5, lane]})
    return specs


def unit_task_config(task_type: str, n_robots: int, max_speed: float,
                     n_pedestrians: int = 0, seed: int = 0,
                     repetitions: int = 10) -> ScenarioConfig:
    """Static (2 obstacles) or dynamic (1-2 crossing pedestrians) unit tasks."""
    robots = _robot_specs(n_robots)
    obstacles, peds = [], []
    if task_type == "static":
        obstacles = [[4.5, 5.3], [7.5, 6.7]]
        name = f"static_{n_robots}r_{max_speed:g}"
    elif task_type == "dynamic":
        ped_speed = round(0.5 * max_speed, 3)
        all_peds = [
            {"waypoints": [[5.0, 10.5], [5.0, 1.5]], "speed": ped_speed, "phase_jitter": 8.0},
            {"waypoints": [[7.5, 1.5], [7.5, 10.5]], "speed": ped_speed, "phase_jitter": 8.0},
        ]
        peds = all_peds[:n_pedestrians]
        name = f"dynamic{n_pedestrians}_{n_robots}r_{max_speed:g}"
    else:
        raise ValueError(f"unknown unit task type {task_type!r}")
    return ScenarioConfig(name=name, mode="unit_task", max_speed=max_speed,
                          robots=robots, obstacles=obstacles, pedestrians=peds,
                          repetitions=repetitions, seed=seed,
                          obstacle_jitter=0.15, start_jitter=0.1)


def head_to_head_config(max_speed: float = 1.0, seed: int = 0,
                        repetitions: int = 10) -> ScenarioConfig:
    robots = [
        {"id": "r0", "platform": "freight", "start": [1.5, 6.0, 0.0], "goal": [10.5, 6.0]},
        {"id": "r1", "platform": "jackal", "start": [10.5, 6.0, math.pi], "goal": [1.5, 6.0]},
    ]
    return ScenarioConfig(name=f"head_to_head_{max_speed:g}", mode="unit_task",
                          max_speed=max_speed, robots=robots,
                          repetitions=repetitions, seed=seed, start_jitter=0.1)


def default_warehouse_map() -> dict:
    waypoints = {
        "c0": (1.2, 2.2), "c1": (1.2, 4.8), "c2": (1.2, 7.4), "c3": (1.2, 10.0),
        "p0": (10.8, 10.2), "p1": (10.8, 8.0), "p2": (10.8, 5.8), "p3": (10.8, 3.6),
        "d0": (3.5, 1.0), "d1": (5.5, 1.0), "d2": (7.5, 1.0), "d3": (9.5, 1.0),
        "j0": (6.0, 6.0),
    }
    ids = list(waypoints)
    edges = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    zones = {**{f"c{i}": "charging" for i in range(4)},
             **{f"p{i}": "pickup" for i in range(4)},
             **{f"d{i}": "dropoff" for i in range(4)},
             "j0": "junction"}
    return {"waypoints": {k: list(v) for k, v in waypoints.items()},
            "edges": [list(e) for e in edges], "zones": zones}


def pick_and_place_config(n_pedestrians: int = 0, max_speed: float = 1.0,
                          seed: int = 0, repetitions: int = 5) -> ScenarioConfig:
    wmap = default_warehouse_map()
    platforms = ["freight", "jackal", "megarover", "megarover#2"]
    robots, homes = [], {}
    for i in range(4):
        wx, wy = wmap["waypoints"][f"c{i}"]
        robots.append({"id": f"r{i}", "platform": platforms[i],
                       "start": [wx, wy, 0.0], "goal": None})
        homes[f"r{i}"] = f"c{i}"
    tasks = [{"id": f"t{i}", "pickup": f"p{i}", "dropoff": f"d{i}"} for i in range(4)]
    ped_speed = round(0.5 * max_speed, 3)
    all_peds = [
        {"waypoints": [[4.0, 9.5], [8.0, 3.0]], "speed": ped_speed, "phase_jitter": 10.0},
        {"waypoints": [[8.5, 9.0], [3.5, 3.5]], "speed": ped_speed, "phase_jitter": 10.0},
    ]
    return ScenarioConfig(name=f"pickplace_{n_pedestrians}p_{max_speed:g}",
                          mode="pick_and_place", max_speed=max_speed, robots=robots,
                          pedestrians=all_peds[:n_pedestrians], tasks=tasks,
                          map=wmap, homes=homes, repetitions=repetitions, seed=seed,
                          time_budget=600.0)
