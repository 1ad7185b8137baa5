"""Command-line entry point.

Subcommands: simulate (mobility + clustering only), train (one method),
evaluate (all three methods, paired seeds, comparison summary), oracle
(minimum-block table over distance).
"""

import argparse
import math
import os
import sys

from .config import ConfigError, build_config, parse_config_text
from . import experiment


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="PATH", help="key = value config file")
    p.add_argument("--seed", type=int, action="append", metavar="N",
                   help="seed (repeatable; overrides config seeds)")
    p.add_argument("--method", choices=("flare", "maddpg_only", "static"))
    p.add_argument("--rate-threshold", type=float, metavar="BPS",
                   help="service rate threshold in bits/s")
    p.add_argument("--frames", type=int, metavar="N")
    p.add_argument("--episodes", type=int, metavar="N")
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument("--profile", choices=("desk", "full"),
                   help="training budget preset (default desk)")
    p.add_argument("--checkpoint", action="store_true",
                   help="write learner checkpoints into the run directories")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavcov",
        description="Multi-UAV coverage simulator with hybrid MADDPG+DQN resource allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run mobility and clustering only, dumping trajectory/cluster CSVs"),
        ("train", "train the selected method over the configured frames and seeds"),
        ("evaluate", "run flare, maddpg_only and static on paired seeds and compare"),
        ("oracle", "print the minimum-block oracle over a distance grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
    return parser


# flag attribute -> the config key it overrides; an absent or empty flag is ignored
_FLAG_KEYS = {
    "profile": "profile",
    "seed": "seeds",
    "method": "method",
    "rate_threshold": "r_th",
    "frames": "frames",
    "episodes": "episodes",
    "out": "out_dir",
}


def _config_from_args(args) -> "experiment.ExperimentConfig":
    overrides = {}
    if args.config and args.config != "default":
        with open(args.config, encoding="utf-8") as fh:
            overrides.update(parse_config_text(fh.read()))
    for attr, key in _FLAG_KEYS.items():
        value = getattr(args, attr)
        if value not in (None, ""):
            overrides[key] = value
    return build_config(overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "simulate":
        for seed in cfg.seeds:
            out = os.path.join(cfg.out_dir, f"simulate_seed{seed}")
            experiment.run_simulation(cfg, seed, out)
            print(f"[simulate seed={seed}] wrote {out}")
        return 0

    if args.command == "train":
        experiment.run_experiment(cfg, methods=[cfg.method], checkpoint=args.checkpoint)
        return 0

    if args.command == "evaluate":
        comparison = experiment.run_experiment(
            cfg, methods=["flare", "maddpg_only", "static"], checkpoint=args.checkpoint)
        for method, stats in comparison["methods"].items():
            print(f"{method}: mean served {stats['mean_served']:.2f}")
        ratio = comparison["flare_over_maddpg_ratio"]
        print("flare / maddpg_only ratio: " + ("undefined" if ratio is None else f"{ratio:.3f}"))
        return 0

    if args.command == "oracle":
        out_path = None
        if args.out:
            os.makedirs(cfg.out_dir, exist_ok=True)
            out_path = os.path.join(cfg.out_dir, "oracle.csv")
        rows = experiment.oracle_table(cfg, out_path)
        print("distance_m  altitude_m  p_tx_w  blocks  within_budget")
        for r in rows:
            blocks = "inf" if not math.isfinite(r["blocks"]) else str(int(r["blocks"]))
            print(f"{r['distance_m']:>9.0f}  {r['altitude_m']:>9.0f}  "
                  f"{r['p_tx_w']:>6.3f}  {blocks:>6}  {str(r['within_budget']):>5}")
        if out_path:
            print(f"wrote {out_path}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
