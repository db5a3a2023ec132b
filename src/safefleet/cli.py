"""Command-line entry points for the full pipeline."""
from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import yaml

from . import data, pipeline, scenarios
from .world import make_platform


def _cmd_generate_data(args):
    os.makedirs(args.out, exist_ok=True)
    platform = make_platform(args.platform, args.max_speed)
    trajs = data.generate_robot_trajectories(platform, args.duration, seed=args.seed)
    robot_path = os.path.join(args.out, f"trajectories_{args.platform}.txt")
    data.save_trajectories(robot_path, trajs)
    tracks = data.generate_pedestrian_tracks(2, args.ped_duration, (0.3, 1.2),
                                             seed=args.seed + 1)
    ped_path = os.path.join(args.out, "pedestrians.txt")
    data.save_trajectories(ped_path, tracks)
    print(f"wrote {robot_path} ({sum(len(t) for t in trajs)} entries) and {ped_path}")


def _cmd_train(args):
    cfg = pipeline.PipelineConfig(seed=args.seed)
    if args.fast:
        cfg.robot_data_seconds = 240.0
        cfg.ped_data_seconds = 600.0
        cfg.cbf_epochs = 30
        cfg.ood_epochs = 20
    bundle, report = pipeline.build_models(cfg, progress=lambda m: print(f"[train] {m}"))
    manifest = pipeline.save_bundle(bundle, args.out, report=report)
    print(f"bundle written; manifest at {manifest}")
    print(json.dumps(report, indent=2, default=float))


def _cmd_run_scenario(args):
    models = pipeline.load_bundle(args.models)
    if args.config:
        cfg = scenarios.load_scenario(args.config)
    elif args.task == "static":
        cfg = scenarios.unit_task_config("static", args.robots, args.max_speed,
                                         seed=args.seed, repetitions=args.repetitions)
    elif args.task == "dynamic":
        cfg = scenarios.unit_task_config("dynamic", args.robots, args.max_speed,
                                         n_pedestrians=args.pedestrians or 1,
                                         seed=args.seed, repetitions=args.repetitions)
    elif args.task == "multirobot":
        cfg = scenarios.head_to_head_config(args.max_speed, args.seed, args.repetitions)
    else:
        cfg = scenarios.pick_and_place_config(n_pedestrians=args.pedestrians or 0,
                                              max_speed=args.max_speed, seed=args.seed,
                                              repetitions=args.repetitions)
    result = scenarios.run_scenario(cfg, models)
    os.makedirs(args.out, exist_ok=True)
    for k, rep in enumerate(result.reps):
        with open(os.path.join(args.out, f"log_{cfg.name}_rep{k}.csv"), "w") as fh:
            fh.write(scenarios.serialize_log(rep.log))
    summary = yaml.safe_dump(scenarios.summarize(result), sort_keys=False)
    with open(os.path.join(args.out, f"summary_{cfg.name}.yaml"), "w") as fh:
        fh.write(summary)
    print(summary)
    print(f"logs and summary under {args.out}")


def _cmd_report(args):
    """One table.csv from the summary_*.yaml files of run-scenario; the columns
    are the first summary's keys, in `scenarios.summarize`'s order."""
    paths = sorted(glob.glob(os.path.join(args.results, "summary_*.yaml")))
    if not paths:
        raise SystemExit(f"no summary_*.yaml files under {args.results}")
    rows = []
    for path in paths:
        with open(path) as fh:
            rows.append(yaml.safe_load(fh))
    cols = list(rows[0])
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(f"{row[c]:.4f}" if isinstance(row[c], float) else str(row[c])
                              for c in cols))
    text = "\n".join(lines) + "\n"
    os.makedirs(args.out, exist_ok=True)
    table = os.path.join(args.out, "table.csv")
    with open(table, "w") as fh:
        fh.write(text)
    print(text)
    print(f"aggregated {len(rows)} scenario summaries into {table}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="safefleet",
                                     description="Learned-barrier safe navigation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="simulated teleop + pedestrian data")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--platform", default="freight")
    p.add_argument("--max-speed", type=float, default=1.5)
    p.add_argument("--duration", type=float, default=600.0)
    p.add_argument("--ped-duration", type=float, default=1800.0)
    p.set_defaults(func=_cmd_generate_data)

    p = sub.add_parser("train", help="train dynamics, rejection and barrier models")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fast", action="store_true", help="reduced data/epochs for smoke runs")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("run-scenario", help="run a seeded scenario suite")
    p.add_argument("--models", required=True, help="bundle directory from 'train'")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="scenario YAML; otherwise built from flags")
    p.add_argument("--task", choices=["static", "dynamic", "multirobot", "pick_and_place"],
                   default="static",
                   help="multirobot: two robots swap ends head to head (--robots and "
                        "--pedestrians do not apply)")
    p.add_argument("--robots", type=int, default=1)
    p.add_argument("--pedestrians", type=int, default=None)
    p.add_argument("--max-speed", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repetitions", type=int, default=10)
    p.set_defaults(func=_cmd_run_scenario)

    p = sub.add_parser("report", help="aggregate run-scenario summaries into one table")
    p.add_argument("--results", required=True, help="directory holding summary_*.yaml files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
