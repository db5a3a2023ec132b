"""RMF-lite fleet layer.

Waypoint map with zone annotations, nearest-idle pick-and-place task
allocation, per-robot goal dispatch and FIFO junction gating.  Only goal
positions (plus a desired-speed override while held) ever reach the
low-level controller; every avoidance decision stays local to the robots.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

ZONES = ("charging", "pickup", "dropoff", "junction", "plain")
TASK_CHAIN = ("pending", "to_pickup", "to_dropoff", "returning", "done")
GOAL_TOLERANCE = 0.3    # m; a robot this close to its goal has reached it
JUNCTION_RADIUS = 1.0   # m; a robot this close to a junction occupies or waits for it


@dataclass
class WarehouseMap:
    waypoints: dict            # id -> (x, y)
    edges: list                # (id, id) advisory lanes
    zones: dict                # id -> zone name

    def __post_init__(self):
        for wid, zone in self.zones.items():
            if wid not in self.waypoints:
                raise ValueError(f"zone waypoint {wid!r} not in map")
            if zone not in ZONES:
                raise ValueError(f"unknown zone {zone!r}")
        for a, b in self.edges:
            if a not in self.waypoints or b not in self.waypoints:
                raise ValueError(f"edge ({a}, {b}) references unknown waypoint")
        if len(self.waypoints) > 1 and not self._connected():
            raise ValueError("waypoint graph is not connected")

    @staticmethod
    def from_dict(raw: dict) -> "WarehouseMap":
        """The map of a `{waypoints, edges, zones}` dict, as a scenario config holds it."""
        return WarehouseMap(waypoints={k: tuple(v) for k, v in raw["waypoints"].items()},
                            edges=[tuple(e) for e in raw.get("edges", [])],
                            zones=dict(raw.get("zones", {})))

    def _connected(self) -> bool:
        adj = {w: set() for w in self.waypoints}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = set()
        queue = deque([next(iter(self.waypoints))])
        while queue:
            w = queue.popleft()
            if w in seen:
                continue
            seen.add(w)
            queue.extend(adj[w] - seen)
        return seen == set(self.waypoints)

    def of_zone(self, zone: str):
        return [w for w, z in self.zones.items() if z == zone]

    def position(self, wid):
        return self.waypoints[wid]


@dataclass
class Task:
    id: str
    pickup: str
    dropoff: str
    state: str = "pending"
    robot: str | None = None

    def advance(self):
        i = TASK_CHAIN.index(self.state)
        if i + 1 >= len(TASK_CHAIN):
            raise ValueError(f"task {self.id} already done")
        self.state = TASK_CHAIN[i + 1]


def assign_task(fleet_snapshot: dict, task: Task, wmap: WarehouseMap):
    """fleet_snapshot: robot id -> (position, idle bool).  Nearest idle robot
    by straight-line distance to the pickup; ties go to the lowest id.
    Returns the robot id or None (task stays pending)."""
    px, py = wmap.position(task.pickup)
    best = None
    for rid in sorted(fleet_snapshot):
        pos, idle = fleet_snapshot[rid]
        if not idle:
            continue
        dist = math.dist(pos, (px, py))
        if best is None or dist < best[0]:
            best = (dist, rid)
    if best is None:
        return None
    task.robot = best[1]
    task.advance()  # pending -> to_pickup
    return best[1]


def next_goal(robot_id, task: Task, wmap: WarehouseMap, home: str):
    """Waypoint position the robot should head for, or None when done."""
    if task.robot != robot_id:
        raise ValueError(f"task {task.id} is not assigned to {robot_id}")
    if task.state == "to_pickup":
        return wmap.position(task.pickup)
    if task.state == "to_dropoff":
        return wmap.position(task.dropoff)
    if task.state == "returning":
        return wmap.position(home)
    if task.state == "done":
        return None
    raise ValueError(f"task {task.id} in state {task.state} has no goal")


def goal_reached(position, goal) -> bool:
    return math.dist(tuple(position), tuple(goal)) <= GOAL_TOLERANCE


class JunctionRegistry:
    """Mutual exclusion per junction with FIFO hand-over among waiters."""

    def __init__(self):
        self._occupant = {}       # junction id -> robot id
        self._queue = {}          # junction id -> deque of waiting robot ids

    def request(self, robot_id, junction_id) -> str:
        """'proceed' iff the robot holds (or can take) the junction, else 'hold'."""
        occ = self._occupant.get(junction_id)
        if occ == robot_id:
            return "proceed"
        queue = self._queue.setdefault(junction_id, deque())
        if occ is None:
            if not queue or queue[0] == robot_id:
                if queue and queue[0] == robot_id:
                    queue.popleft()
                self._occupant[junction_id] = robot_id
                return "proceed"
        if robot_id not in queue:
            queue.append(robot_id)
        return "hold"

    def update(self, junction_positions: dict, robot_positions: dict):
        """Release occupants that left the junction radius; drop stale waiters."""
        for jid, occ in list(self._occupant.items()):
            if occ not in robot_positions or \
                    math.dist(robot_positions[occ], junction_positions[jid]) > JUNCTION_RADIUS:
                del self._occupant[jid]
        for jid, queue in self._queue.items():
            self._queue[jid] = deque(
                r for r in queue
                if r in robot_positions
                and math.dist(robot_positions[r], junction_positions[jid]) <= JUNCTION_RADIUS)


class Orchestrator:
    """Single authority per scenario: dispatches goals, advances task states,
    gates junctions.  Holding a robot reuses its own position as the goal with
    desired speed zero so the local safety layer stays active."""

    def __init__(self, wmap: WarehouseMap, tasks, homes: dict):
        self.map = wmap
        self.tasks = list(tasks)
        self.homes = dict(homes)          # robot id -> charging waypoint id
        self.registry = JunctionRegistry()
        self.active = {}                  # robot id -> Task
        self.events = []                  # (time, text) lines

    def all_done(self) -> bool:
        return all(t.state == "done" for t in self.tasks)

    def step(self, time: float, robot_positions: dict):
        """Returns robot id -> (goal position, hold flag)."""
        # task allocation for idle robots
        busy = {t.robot for t in self.tasks if t.robot and t.state != "done"}
        snapshot = {rid: (pos, rid not in busy) for rid, pos in robot_positions.items()}
        for task in self.tasks:
            if task.state == "pending":
                rid = assign_task(snapshot, task, self.map)
                if rid is not None:
                    self.active[rid] = task
                    snapshot[rid] = (snapshot[rid][0], False)
                    self.events.append((time, f"task {task.id} -> {rid} (to_pickup)"))

        # task-state advance on goal arrival
        for rid, task in list(self.active.items()):
            goal = next_goal(rid, task, self.map, self.homes[rid])
            if goal is not None and goal_reached(robot_positions[rid], goal):
                task.advance()
                self.events.append((time, f"task {task.id} {rid} -> {task.state}"))
                if task.state == "done":
                    del self.active[rid]

        # junction gating
        junctions = {j: self.map.position(j) for j in self.map.of_zone("junction")}
        self.registry.update(junctions, robot_positions)
        held = set()
        for jid, jpos in sorted(junctions.items()):
            for rid in sorted(robot_positions):
                if math.dist(robot_positions[rid], jpos) <= JUNCTION_RADIUS:
                    if self.registry.request(rid, jid) == "hold":
                        held.add(rid)
                        self.events.append((time, f"junction {jid} holds {rid}"))

        out = {}
        for rid, pos in robot_positions.items():
            task = self.active.get(rid)
            if rid in held:
                out[rid] = (tuple(pos), True)
            elif task is not None:
                out[rid] = (next_goal(rid, task, self.map, self.homes[rid]), False)
            else:
                out[rid] = (self.map.position(self.homes[rid]), False)
        return out
