"""Command-line interface: scenario runs, scene validation, route dumps.

Exit codes: 0 success, 2 configuration error, 3 routing infeasibility.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import ExperimentConfig, routes_payload, run_scenario, worker_count
from .geometry import ConfigError, _read_config, build_scene, load_scene
from .routing import Infeasible, NoFeasiblePath
from .scenarios import packaged_scene_path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

_SCENARIOS = ("fig6", "fig7", "fig8", "fig9", "fig11", "fig13", "custom")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irsim",
                                     description="multi-surface reflective link simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write a CSV result table")
    run.add_argument("--scenario", required=True)
    run.add_argument("--config", help="scene JSON (required for the custom scenario)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trials", type=int, default=100)
    run.add_argument("--out", help="CSV output path (default: stdout)")

    val = sub.add_parser("validate", help="validate a scene JSON file")
    val.add_argument("--config", required=True)

    routes = sub.add_parser("routes", help="optimal per-user routes of a scene")
    routes.add_argument("--config", help="scene JSON (default: the shipped indoor hall)")
    routes.add_argument("--out", help="JSON output path (default: stdout)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            if args.scenario not in _SCENARIOS:
                print(f"unknown scenario {args.scenario!r}; choose from {', '.join(_SCENARIOS)}",
                      file=sys.stderr)
                return EXIT_CONFIG
            scene_config = _read_config(args.config) if args.config else None
            if args.scenario == "custom" and scene_config is None:
                print("the custom scenario requires --config", file=sys.stderr)
                return EXIT_CONFIG
            if scene_config is not None:
                build_scene(scene_config)            # validate eagerly
            if args.trials < 1:
                raise ConfigError(f"--trials must be at least 1, got {args.trials}")
            worker_count()                           # validate IRS_SIM_THREADS eagerly
            table = run_scenario(ExperimentConfig(
                scenario=args.scenario, seed=args.seed, trials=args.trials,
                scene_config=scene_config, out_path=args.out))
            if not args.out:
                sys.stdout.write(table.to_csv())
        elif args.command == "validate":
            scene = load_scene(args.config)
            print(f"ok: {scene.n_irs} surfaces, {scene.n_users} users, "
                  f"{len(scene.obstacles)} obstacles")
        elif args.command == "routes":
            if args.config:
                scene = load_scene(args.config)
            else:
                scene = load_scene(packaged_scene_path("indoor_hall"))
            payload = routes_payload(scene)
            text = json.dumps(payload, indent=1, sort_keys=True)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
    except (ConfigError, FileNotFoundError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoFeasiblePath, Infeasible) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
