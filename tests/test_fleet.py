import copy

import pytest

from safefleet.fleet import (JunctionRegistry, Orchestrator, Task, WarehouseMap,
                             assign_task, goal_reached, next_goal)


def small_map():
    return WarehouseMap(
        waypoints={"c0": (0.0, 0.0), "p0": (10.0, 0.0), "d0": (5.0, 5.0),
                   "j0": (5.0, 0.0)},
        edges=[("c0", "j0"), ("j0", "p0"), ("j0", "d0")],
        zones={"c0": "charging", "p0": "pickup", "d0": "dropoff", "j0": "junction"})


class TestWarehouseMap:
    def test_zone_lookup(self):
        m = small_map()
        assert m.of_zone("pickup") == ["p0"]
        assert m.position("d0") == (5.0, 5.0)

    def test_unknown_zone_name_rejected(self):
        with pytest.raises(ValueError):
            WarehouseMap({"a": (0, 0)}, [], {"a": "lounge"})

    def test_zone_waypoint_must_exist(self):
        with pytest.raises(ValueError):
            WarehouseMap({"a": (0, 0)}, [], {"ghost": "pickup"})

    def test_edge_endpoints_must_exist(self):
        with pytest.raises(ValueError):
            WarehouseMap({"a": (0, 0), "b": (1, 0)}, [("a", "ghost")], {})

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValueError):
            WarehouseMap({"a": (0, 0), "b": (9, 9)}, [], {})


class TestTask:
    def test_state_chain(self):
        t = Task("t", "p0", "d0")
        seen = [t.state]
        for _ in range(4):
            t.advance()
            seen.append(t.state)
        assert seen == ["pending", "to_pickup", "to_dropoff", "returning", "done"]

    def test_advance_past_done_rejected(self):
        t = Task("t", "p0", "d0", state="done")
        with pytest.raises(ValueError):
            t.advance()


class TestAssignTask:
    def test_single_idle_robot(self):
        m = small_map()
        t = Task("t", "p0", "d0")
        rid = assign_task({"r0": ((0, 0), True)}, t, m)
        assert rid == "r0" and t.robot == "r0" and t.state == "to_pickup"

    def test_nearest_idle_wins(self):
        m = small_map()
        t = Task("t", "p0", "d0")
        snapshot = {"r0": ((5.0, 0.0), True), "r1": ((8.0, 0.0), True)}
        assert assign_task(snapshot, t, m) == "r1"

    def test_tie_goes_to_lowest_id(self):
        m = small_map()
        t = Task("t", "p0", "d0")
        snapshot = {"r1": ((6.0, 0.0), True), "r0": ((6.0, 0.0), True)}
        assert assign_task(snapshot, t, m) == "r0"

    def test_no_idle_robot_stays_pending(self):
        m = small_map()
        t = Task("t", "p0", "d0")
        assert assign_task({"r0": ((0, 0), False)}, t, m) is None
        assert t.state == "pending"


class TestNextGoal:
    def test_goal_follows_task_state(self):
        m = small_map()
        t = Task("t", "p0", "d0", state="to_pickup", robot="r0")
        assert next_goal("r0", t, m, home="c0") == (10.0, 0.0)
        t.state = "to_dropoff"
        assert next_goal("r0", t, m, home="c0") == (5.0, 5.0)
        t.state = "returning"
        assert next_goal("r0", t, m, home="c0") == (0.0, 0.0)
        t.state = "done"
        assert next_goal("r0", t, m, home="c0") is None

    def test_unassigned_robot_rejected(self):
        m = small_map()
        t = Task("t", "p0", "d0", state="to_pickup", robot="r0")
        with pytest.raises(ValueError):
            next_goal("r1", t, m, home="c0")


class TestGoalReached:
    def test_thresholds(self):
        assert goal_reached((0, 0.1), (0, 0)) is True
        assert goal_reached((0, 0.3), (0, 0)) is True   # closed threshold
        assert goal_reached((0, 0.31), (0, 0)) is False


def assert_occupant(reg, jid, rid, others):
    """rid holds jid: its request proceeds and changes no registry state,
    and every robot in `others` is held."""
    before = copy.deepcopy(vars(reg))
    assert reg.request(rid, jid) == "proceed"
    assert vars(reg) == before
    for other in others:
        assert reg.request(other, jid) == "hold"


class TestJunctionRegistry:
    def test_empty_junction_proceeds(self):
        reg = JunctionRegistry()
        assert reg.request("r0", "j0") == "proceed"
        assert_occupant(reg, "j0", "r0", others=["r1"])

    def test_occupied_junction_holds(self):
        reg = JunctionRegistry()
        reg.request("r0", "j0")
        assert reg.request("r1", "j0") == "hold"

    def test_fifo_release_order(self):
        reg = JunctionRegistry()
        jpos = {"j0": (0.0, 0.0)}
        assert reg.request("r0", "j0") == "proceed"
        assert reg.request("r1", "j0") == "hold"
        assert reg.request("r2", "j0") == "hold"
        # r0 leaves; r1 (first waiter) must get it before r2
        reg.update(jpos, {"r0": (5.0, 0.0), "r1": (0.5, 0.0), "r2": (0.4, 0.0)})
        assert reg.request("r2", "j0") == "hold"
        assert reg.request("r1", "j0") == "proceed"
        assert_occupant(reg, "j0", "r1", others=["r2"])

    def test_mutual_exclusion(self):
        reg = JunctionRegistry()
        reg.request("r0", "j0")
        for rid in ("r1", "r2", "r3"):
            assert reg.request(rid, "j0") == "hold"
        assert_occupant(reg, "j0", "r0", others=["r1", "r2", "r3"])


class TestOrchestrator:
    def test_dispatch_and_completion(self):
        m = small_map()
        tasks = [Task("t", "p0", "d0")]
        orch = Orchestrator(m, tasks, homes={"r0": "c0"})
        # idle at charger: task assigned, goal = pickup
        out = orch.step(0.0, {"r0": (0.0, 0.0)})
        assert out["r0"] == ((10.0, 0.0), False)
        # at pickup: advance to dropoff
        out = orch.step(1.0, {"r0": (10.0, 0.0)})
        assert out["r0"] == ((5.0, 5.0), False)
        # at dropoff: heading home
        out = orch.step(2.0, {"r0": (5.0, 5.0)})
        assert out["r0"] == ((0.0, 0.0), False)
        # back home: done
        orch.step(3.0, {"r0": (0.0, 0.0)})
        assert orch.all_done()
        states = [text for _, text in orch.events]
        assert any("to_pickup" in s for s in states)
        assert any("done" in s for s in states)

    def test_held_robot_gets_own_position_and_hold_flag(self):
        m = small_map()
        tasks = [Task("a", "p0", "d0"), Task("b", "p0", "d0")]
        orch = Orchestrator(m, tasks, homes={"r0": "c0", "r1": "c0"})
        positions = {"r0": (5.0, 0.3), "r1": (5.0, -0.3)}  # both inside j0 radius
        out = orch.step(0.0, positions)
        holds = [rid for rid, (_, hold) in out.items() if hold]
        assert len(holds) == 1  # exactly one held, one proceeds
        held = holds[0]
        assert out[held][0] == positions[held]

    def test_idle_robot_sent_home(self):
        m = small_map()
        orch = Orchestrator(m, [], homes={"r0": "c0"})
        out = orch.step(0.0, {"r0": (3.0, 3.0)})
        assert out["r0"] == ((0.0, 0.0), False)
