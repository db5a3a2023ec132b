#!/usr/bin/env python3
"""safefleet benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload solo --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one process, one thread; BLAS is held to one thread):
  solo   the operation is one rep of each one-robot unit-task cell
         (static_1r_*, dynamic2_1r_* at max speeds 0.5, 1.0, 1.5)
  fleet  the operation is one pick_and_place rep (4 robots, 2 pedestrians,
         1.0 m/s)
  train  the operation is one pipeline.build_models at a reduced
         PipelineConfig, then an untimed save_bundle/load_bundle round trip

The seed only generates the scenario configs, rep seeds and pipeline seed;
the program sees nothing but those inputs.  After set-up and an untimed
warm-up, the operation is repeated on fresh inputs while another repeat fits
in --seconds; times are scaled to a reference machine speed measured by
`Probe`, and each metric is the median over repeats.
Informational lines (machine record, determinism fingerprint) come first;
the last line of stdout is the result JSON.  --trace 1 runs the operation
untraced and then traced, wrapping every layer's public functions (see
tracer.py), and reports per-layer metrics instead of end-to-end ones.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import weakref

# One BLAS thread, set before numpy loads.  With OpenBLAS's default of one
# thread per CPU, the 35-candidate matmuls of the 1.5 m/s cells and the
# training batches are split over both CPUs of the 2-CPU machine this was
# built on; whenever the other CPU was busy, those select_control calls took
# 130-490 ms instead of 5-9 ms, so the run-to-run spread measured the
# neighbours rather than the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import yaml  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUNDLE_DIR = os.path.join(ROOT, "tests", ".cache", "bundle")
WORK_DIR = os.path.join(HERE, ".work")
OUT_DIR = os.path.join(HERE, "out")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

WORKLOADS = ("solo", "fleet", "train")
SAFETY_FLOOR = 0.65        # m; acceptance floor on every robot's min distance
COLLISION_DISTANCE = 0.5   # m; any tick closer than this is a collision
SETUP_REPEATS = 11
WARMUP_BUDGET = 5.0        # s of simulated time in the scenario warm-up rep
PROBE_EVERY = 40           # timed calls between two speed-probe samples
PROBE_LOOPS = 200          # iterations in one speed-probe sample
PROBE_REF_S = 0.004        # probe sample time that defines the reference speed
SOLO_CELLS = [(task, peds, speed) for task, peds in (("static", 0), ("dynamic", 2))
              for speed in (0.5, 1.0, 1.5)]

# Reduced training budget: fewer epochs and less data than the full pipeline;
# network widths and the candidate set are the pipeline's own.  dynamic_pairs
# stays at the pipeline's 8: at 4, one pipeline seed in 40 drew no unsafe
# dynamic sample and build_models raised ValueError.
TRAIN_SIZES = dict(robot_data_seconds=120.0, ped_data_seconds=300.0,
                   dynamics_epochs=3, ood_epochs=5, cbf_epochs=8,
                   max_safe=2000, max_unsafe=2000, max_unlabeled=800,
                   static_clones=4, dynamic_pairs=8, multirobot_pairs=80)
WARMUP_SIZES = {**TRAIN_SIZES, "dynamics_epochs": 1, "ood_epochs": 1, "cbf_epochs": 1}


class Program:
    """The safefleet modules of this checkout, imported fresh."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "safefleet" or m.startswith("safefleet.")]:
            del sys.modules[name]
        self.pipeline = importlib.import_module("safefleet.pipeline")
        self.scenarios = importlib.import_module("safefleet.scenarios")
        self.nn = importlib.import_module("safefleet.nn")
        if not os.path.abspath(self.pipeline.__file__).startswith(SRC + os.sep):
            raise RuntimeError(f"safefleet imported from {self.pipeline.__file__}, not {SRC}")


def derive(seed, *path):
    """A child seed for one input, fixed by the run seed and the input's path."""
    digest = hashlib.sha256(repr((seed,) + path).encode()).digest()
    return int.from_bytes(digest[:4], "little") % 1_000_000


class Probe:
    """Times a fixed piece of numpy and Python work that runs no safefleet code.

    On the shared 2-CPU machine this was built on, other tenants slowed
    identical work by up to 1.8x, for stretches from under a second to
    minutes, and slowed this probe by about the same factor.  Samples are
    taken before each repeat and every PROBE_EVERY timed calls.  A time
    measured after a sample is scaled by `factor`, PROBE_REF_S / (that
    sample's duration), so it reads as the time at the reference speed, at
    which one sample takes PROBE_REF_S.  Scaling each stretch of
    PROBE_EVERY calls by its own sample halved the run-to-run spread of a
    fleet rep's call_ms_p50 and call_ms_p90 (coefficient of variation over
    ten runs of one input 5.7 % and 4.5 % with one factor per rep, 2.4 %
    and 2.7 % with one per stretch).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((28, 8))
        self.w = [0.3 * rng.standard_normal((8, 64)), 0.1 * rng.standard_normal((64, 64)),
                  rng.standard_normal((64, 1))]
        self.b = [rng.standard_normal(64), rng.standard_normal(64)]
        self.times = []
        self.calls = 0
        self.factor = 1.0
        self._scaled = 0.0              # s at the reference speed since resume()
        self._mark = 0.0

    def sample(self):
        """Takes one sample and sets `factor` from it; returns its duration in s."""
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            h = np.tanh(self.x @ self.w[0] + self.b[0])
            h = np.tanh(h @ self.w[1] + self.b[1])
            acc += float((h @ self.w[2])[i % 28, 0])
            for j in range(20):
                acc = 0.999 * acc + j
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.factor = PROBE_REF_S / dt
        return dt

    def resume(self):
        """Starts a scaled clock: wall time, each stretch scaled by its factor."""
        self._scaled = 0.0
        self._mark = time.perf_counter()

    def pause(self):
        """Reads the scaled clock: s at the reference speed since resume(),
        less the time spent sampling."""
        return self._scaled + (time.perf_counter() - self._mark) * self.factor

    def tick(self):
        """Counts one timed call; every PROBE_EVERY calls takes a sample,
        which the scaled clock leaves out.  Callers take the time of a call
        before ticking and scale it by `factor`."""
        self.calls += 1
        if self.calls % PROBE_EVERY == 0:
            self._scaled = self.pause()
            self.sample()
            self._mark = time.perf_counter()


# ---------------------------------------------------------------------------
# workloads

class ScenarioWorkload:
    """solo and fleet: closed-loop run_single reps on the committed bundle."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.prog = None
        self.bundle = None

    def setup(self):
        self.prog = Program()
        self.bundle = self.prog.pipeline.load_bundle(BUNDLE_DIR)

    def configs(self, tag):
        sc = self.prog.scenarios
        if self.name == "solo":
            return [sc.unit_task_config(task, 1, speed, n_pedestrians=peds,
                                        seed=derive(self.seed, tag, task, speed),
                                        repetitions=1)
                    for task, peds, speed in SOLO_CELLS]
        return [sc.pick_and_place_config(n_pedestrians=2, max_speed=1.0,
                                         seed=derive(self.seed, tag, "fleet"),
                                         repetitions=1)]

    def warmup(self):
        cfg = self.configs("warmup")[0]
        cfg.time_budget = WARMUP_BUDGET
        self.prog.scenarios.run_single(cfg, self.bundle, cfg.seed)

    def run_op(self, probe=None, k=0):
        """Runs the operation once, on the inputs of repeat k.

        Returns (s per rep, work units, call latencies in s, outcomes,
        fingerprint text); a unit is one simulated tick, in which every robot
        decided once.  Latencies are only taken, and the probe sampled, when
        a probe is given; then all times are at the probe's reference speed,
        else they are wall times.
        """
        sc = self.prog.scenarios
        original = sc.select_control
        samples = []
        clock = time.perf_counter

        def timed_select(*args, **kwargs):
            t0 = clock()
            out = original(*args, **kwargs)
            samples.append((clock() - t0) * probe.factor)
            probe.tick()
            return out

        if probe is not None:
            probe.sample()
        walls, ticks, checks, logs = [], 0, [], []
        for cfg in self.configs(op_tag(k)):
            if probe is not None:
                sc.select_control = timed_select
                probe.resume()
            try:
                t0 = clock()
                rep = sc.run_single(cfg, self.bundle, cfg.seed)
                walls.append(probe.pause() if probe is not None else clock() - t0)
            finally:
                sc.select_control = original
            ticks += self.tick_count(rep)
            checks.append((cfg.name, *self.check(rep)))
            logs.append(cfg.name + "\n" + sc.serialize_log(rep.log))
        return walls, ticks, samples, checks, "".join(logs)

    @staticmethod
    def tick_count(rep):
        """Simulated ticks of a rep, counted in its log: run_single logs the
        state before every tick, and once more at the end if the rep
        succeeded."""
        return len({row[0] for row in rep.log}) - (1 if rep.success else 0)

    @staticmethod
    def check(rep):
        """(acceptance misses, wrong outputs) of one rep.

        A miss is a rep that did not reach its goals or came closer than the
        acceptance thresholds: the operation failed.  A wrong output is a
        reported min distance or collision count that disagrees with the
        rep's own tick log, recomputed here.
        """
        missed, wrong = [], []
        if not rep.success:
            missed.append("goals not reached")
        ticks = {}
        for t, aid, _kind, x, y, *_ in rep.log:
            ticks.setdefault(t, {})[aid] = (x, y)
        for rid, m in sorted(rep.metrics.items()):
            if m.min_distance < SAFETY_FLOOR:
                missed.append(f"{rid} min distance {m.min_distance:.3f} m < {SAFETY_FLOOR}")
            if m.collision_count > 0:
                missed.append(f"{rid} has {m.collision_count} ticks closer than "
                              f"{COLLISION_DISTANCE} m")
            seps = [min((math.dist(pos[rid], p) for aid, p in pos.items() if aid != rid),
                        default=math.inf)
                    for pos in ticks.values() if rid in pos]
            if not seps or abs(min(seps) - m.min_distance) > 1e-9:
                wrong.append(f"{rid} min distance {m.min_distance!r} disagrees with its log")
            if sum(d < COLLISION_DISTANCE for d in seps) != m.collision_count:
                wrong.append(f"{rid} collision count {m.collision_count} disagrees with its log")
        return missed, wrong

    def bundle_digest(self):
        with open(os.path.join(BUNDLE_DIR, "manifest.yaml"), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


class TrainWorkload:
    """train: build_models at reduced sizes, then a bundle round trip."""

    def __init__(self, seed):
        self.name, self.seed = "train", seed
        self.prog = None

    def setup(self):
        """Imports the program and builds the first repeat's config."""
        self.prog = Program()
        self.config(0)

    def config(self, k):
        """The PipelineConfig of repeat k."""
        return self.prog.pipeline.PipelineConfig(seed=derive(self.seed, "train", op_tag(k)),
                                                 **TRAIN_SIZES)

    def warmup(self):
        cfg = self.prog.pipeline.PipelineConfig(seed=derive(self.seed, "warmup"),
                                                **WARMUP_SIZES)
        self.prog.pipeline.build_models(cfg)

    def run_op(self, probe=None, k=0):
        """Runs the operation once; returns the same tuple as ScenarioWorkload.run_op.

        The unit is one build; the call latencies are the intervals between
        successive steps of one optimizer, less any probe sample between them.
        """
        pipeline, nn = self.prog.pipeline, self.prog.nn
        original = nn.Adam.step
        last = weakref.WeakKeyDictionary()
        samples = []
        clock = time.perf_counter

        def timed_step(opt, params, grads):
            out = original(opt, params, grads)
            now = clock()
            prev = last.get(opt)
            if prev is not None:
                samples.append((now - prev) * probe.factor)
            probe.tick()
            last[opt] = clock()
            return out

        if probe is not None:
            probe.sample()
            nn.Adam.step = timed_step
            probe.resume()
        try:
            t0 = clock()
            bundle, report = pipeline.build_models(self.config(k))
            wall = probe.pause() if probe is not None else clock() - t0
        finally:
            nn.Adam.step = original
        problems, digest = self.round_trip(bundle, report)
        return [wall], 1, samples, [("build", problems, problems)], digest

    def round_trip(self, bundle, report):
        """save_bundle then load_bundle (hash-checked); weights must match exactly."""
        pipeline = self.prog.pipeline
        out = os.path.join(WORK_DIR, f"bundle_{os.getpid()}")
        problems = []
        try:
            pipeline.save_bundle(bundle, out, report=report)
            loaded = pipeline.load_bundle(out)
            pairs = [(f"dynamics:{k}", v.net, loaded.dynamics[k].net)
                     for k, v in bundle.dynamics.items()]
            pairs += [(f"barrier:{k}", v.net, loaded.barriers[k].net)
                      for k, v in bundle.barriers.items()]
            pairs += [(f"rejection:{k}", v.net, loaded.rejections[k].net)
                      for k, v in bundle.rejections.items()]
            for role, a, b in pairs:
                same = all((x == y).all() for x, y in zip(a.weights + a.biases,
                                                          b.weights + b.biases))
                if not same:
                    problems.append(f"{role} weights changed in the round trip")
            with open(os.path.join(out, "manifest.yaml")) as fh:
                models = yaml.safe_load(fh)["models"]
            digest = json.dumps(models, sort_keys=True)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return problems, digest


def op_tag(k):
    """Names the inputs of repeat k of the operation."""
    return f"op{k}"


def make_workload(name, seed):
    return TrainWorkload(seed) if name == "train" else ScenarioWorkload(name, seed)


# ---------------------------------------------------------------------------
# measurement

def measure_setup(work):
    """Sets up SETUP_REPEATS times; returns (wall times, times at the reference speed).

    A probe sample precedes each set-up and scales it, as for the calls of
    the operation."""
    probe, times, scaled = Probe(), [], []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = time.perf_counter()
        work.setup()
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * probe.factor)
    return times, scaled


def machine_record(work):
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    rec = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if isinstance(work, ScenarioWorkload):
        rec["bundle_manifest_sha256"] = work.bundle_digest()
    return rec


def fingerprint_verdict(workload, seed, digest):
    try:
        with open(FINGERPRINTS) as fh:
            recorded = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        recorded = None
    if recorded is None:
        return "unrecorded"
    return "yes" if recorded == digest else "no"


class Tally:
    """Outcomes of a run: attempted outcomes, failed ones, wrong outputs.

    An outcome is a rep (scenarios) or a build (train).  It fails when it
    misses an acceptance threshold, raises, or produces a wrong output; a
    wrong output or an exception also makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []          # (outcome name, reasons)
        self.wrong = []

    def run(self, work, probe=None, k=0):
        """The operation once; (walls, units, latencies, fingerprint text), or None if it raised."""
        try:
            walls, units, samples, outcomes, text = work.run_op(probe, k)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failures.append(("operation", ["raised"]))
            self.wrong.append("operation raised")
            return None
        self.attempted += len(outcomes)
        for name, missed, bad in outcomes:
            if missed or bad:
                self.failures.append((name, list(dict.fromkeys(missed + bad))))
            if bad:
                self.wrong.append(name)
        return walls, units, samples, text


def fits(t0, deadline):
    """Whether another repeat as long as the one begun at t0 ends by the deadline."""
    now = time.perf_counter()
    return now + (now - t0) <= deadline


def untraced(work, seconds):
    """Runs the operation on fresh inputs while time is left.

    Repeat k runs the operation on the inputs of repeat k, so a run averages
    over more inputs than one.  Times are at the probe's reference speed;
    each metric is the median over repeats of that repeat's figure.
    """
    tally, repeats, text0 = Tally(), [], None
    probe = Probe()
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        first = len(probe.times)
        rec = tally.run(work, probe, len(repeats))
        if rec is None:
            break
        walls, units, calls, text = rec
        if not calls or not units:
            tally.wrong.append(f"repeat {len(repeats)} timed {len(calls)} calls over "
                               f"{units} units: nothing to measure")
            break
        if text0 is None:
            text0 = text
        speed = PROBE_REF_S / statistics.median(probe.times[first:])
        pct = statistics.quantiles(calls, n=100, method="inclusive")
        repeats.append({"speed": speed, "calls": len(calls),
                        "call_ms_p50": 1e3 * pct[49],
                        "call_ms_p90": 1e3 * pct[89],
                        "call_ms_p99": 1e3 * pct[98],
                        "unit_ms": 1e3 * sum(walls) / units})
        if not fits(t0, deadline):
            break
    metrics, extra = None, {"repeats": len(repeats)}
    if repeats:
        med = {k: statistics.median(r[k] for r in repeats) for k in repeats[0]}
        metrics = {k: (med[k], "ms") for k in ("call_ms_p50", "call_ms_p90", "unit_ms")}
        extra.update(call_ms_p99=med["call_ms_p99"], calls_per_repeat=med["calls"],
                     speeds=[round(r["speed"], 4) for r in repeats])
    return tally, metrics, text0, extra


def traced(work, seconds):
    """The operation untraced then traced, on the inputs of repeat 0, while time is left.

    Every pass must log exactly what the first untraced pass logged.  Counts
    come from the first traced pass (they repeat exactly); times are medians
    over the passes.
    """
    from tracer import Tracer
    tally, passes, text0 = Tally(), [], None
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        rec_u = tally.run(work)
        tracer = Tracer()
        tracer.rep = len(passes)
        with tracer:
            if isinstance(work, ScenarioWorkload):
                work.bundle = work.prog.pipeline.load_bundle(BUNDLE_DIR)
            rec_t = tally.run(work)
        if rec_u is None or rec_t is None:
            break
        text0 = text0 or rec_u[3]
        if rec_u[3] != text0 or rec_t[3] != text0:
            tally.wrong.append(f"pass {len(passes)} logged other than the first untraced pass")
        ticks = rec_t[1] if isinstance(work, ScenarioWorkload) else 0
        passes.append((tracer, sum(rec_u[0]), sum(rec_t[0]), ticks))
        if not fits(t0, deadline):
            break
    metrics = None
    if passes:
        metrics = layer_metrics(passes)
        os.makedirs(OUT_DIR, exist_ok=True)
        passes[0][0].save_spans(os.path.join(OUT_DIR, f"spans_{work.name}.npz"))
    return tally, metrics, text0, passes


def per_layer_specs():
    """(name, unit) of every per-layer metric BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def layer_metrics(passes):
    """Per-layer metrics of the traced passes, for the names in BENCHMARK.json.

    A name `<span>.<field>` reads the tracer's statistics of that span; the
    names in `derived` below are computed from several spans.  Counts and
    ratios come from the first pass; times are medians over the passes.
    """
    specs = per_layer_specs()
    fields = {"calls": lambda s: s.calls, "rows": lambda s: s.rows,
              "busy_s": lambda s: s.busy, "self_s": lambda s: s.self_time,
              "rows_per_s": lambda s: s.rows / s.self_time if s.self_time else 0.0}

    def one(tr, wall_u, wall_t, ticks):
        st = tr.stat
        selects = st("controller.select_control")
        run, build, cbf = st("scenarios.run_single"), st("pipeline.build_models"), \
            st("barrier.train_cbf")
        derived = {
            "controller.survivor_ratio": tr.survivors / tr.candidates if tr.candidates else 0.0,
            "controller.recovery_rate": (st("controller.recovery_control").calls / selects.calls
                                         if selects.calls else 0.0),
            "barrier.train_cbf.epoch_s": (cbf.busy / (cbf.calls * TRAIN_SIZES["cbf_epochs"])
                                          if cbf.calls else 0.0),
            "ood.is_in_distribution_batch.decide_calls": tr.ancestor_count(
                "ood.is_in_distribution_batch", "controller.select_control"),
            "fleet.events": tr.events,
            "scenarios.ticks": ticks,
            "scenarios.decide_share": selects.busy / run.busy if run.busy else 0.0,
            "pipeline.train_cbf_share": cbf.busy / build.busy if build.busy else 0.0,
            "trace.spans": len(tr.span_start),
            "trace.overhead_s": wall_t - wall_u,
            "trace.overhead_share": (wall_t - wall_u) / wall_u,
        }
        m = {}
        for name, _unit in specs:
            if name in derived:
                m[name] = derived[name]
            else:
                span, field = name.rsplit(".", 1)
                m[name] = fields[field](st(span))
        return m

    per_pass = [one(*p) for p in passes]
    out = {}
    for name, unit in specs:
        if unit in ("count", "ratio") and not name.startswith("trace.overhead"):
            out[name] = (per_pass[0][name], unit)
        else:
            out[name] = (statistics.median(p[name] for p in per_pass), unit)
    return out


def print_table(passes):
    tr = passes[0][0]
    print(f"{'span':44s} {'calls':>9s} {'rows':>10s} {'busy_s':>9s} {'self_s':>9s}")
    for name, calls, rows, busy, self_s in tr.table():
        print(f"{name:44s} {calls:9d} {rows:10d} {busy:9.4f} {self_s:9.4f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "safefleet", "__init__.py")):
        print(f"error: no safefleet sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "train" and not os.path.isfile(os.path.join(BUNDLE_DIR, "manifest.yaml")):
        print(f"error: no model bundle at {BUNDLE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(WORK_DIR, exist_ok=True)

    work = make_workload(args.workload, args.seed)
    setup_times, setup_scaled = measure_setup(work)
    work.warmup()
    if args.trace:
        tally, metrics, text0, passes = traced(work, args.seconds)
    else:
        tally, metrics, text0, extra = untraced(work, args.seconds)

    digest = hashlib.sha256(text0.encode()).hexdigest() if text0 is not None else None
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "fingerprint": digest,
            "byte_identical": fingerprint_verdict(args.workload, args.seed, digest),
            "setup_runs_s": [round(t, 6) for t in setup_times],
            "setup_scaled_s": [round(t, 6) for t in setup_scaled],
            "machine": machine_record(work)}
    if args.trace:
        info["passes"] = len(passes)
        if passes:
            print_table(passes)
    else:
        info.update(extra)
    for name, why in tally.failures:
        print(f"FAILED {name}: {'; '.join(why)}", file=sys.stderr)
    for why in tally.wrong:
        print(f"INCORRECT: {why}", file=sys.stderr)
    print("info: " + json.dumps(info, sort_keys=True))

    correct = not tally.wrong and metrics is not None
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_scaled), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
