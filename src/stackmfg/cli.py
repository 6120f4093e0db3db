"""Command-line interface: solve, validate, oracle, export.

Exit codes: 0 success, 2 usage (argparse), 3 validation failure,
4 no stage equilibrium, 5 stationary non-convergence, 6 oracle enumeration
too large.  The commands (``run``, ``cmd_validate``, ``cmd_oracle``,
``cmd_export``) raise; ``main`` alone turns a failure into its exit code
from ``EXIT_CODES`` and one ``error:`` line.  A command may label the phase
it is in with ``_failing``, which heads that line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import export
from .errors import (EnumerationTooLarge, NoEquilibriumError, NonConvergenceError,
                     OffSimplexError, StackMFGError)
from .game import spec_hash, validate
from .gamefile import load_game_dict, load_game_file
from .grids import JointGrid, build_grid, project_to_simplex
from .oracle import TinyGame, config_initial_points, oracle_report
from .solver import backward_pass, forward_pass, solve_stationary
from .stage import SolverConfig

# The exit code of each failure ``main`` reports; the first class that matches wins.
EXIT_CODES = {NoEquilibriumError: 4, NonConvergenceError: 5, EnumerationTooLarge: 6,
              StackMFGError: 3, OSError: 3, ValueError: 3}


class _failing:
    """``with _failing(kind, label):`` a ``kind`` failure inside it goes on
    to ``main`` with ``label``, or ``label(exc)``, heading its error line."""

    def __init__(self, kind, label):
        self.kind, self.label = kind, label

    def __enter__(self):
        return self

    def __exit__(self, _type, exc, _traceback):
        if isinstance(exc, self.kind):
            exc.cli_label = self.label(exc) if callable(self.label) else self.label


def _writing(path: Path) -> _failing:
    """Label an I/O failure while writing ``path``: it names the file under
    ``path`` that failed, or else ``path``."""
    def label(exc):
        failed = Path(exc.filename) if exc.filename else path
        return f"cannot write {failed if failed.is_relative_to(path) else path}"
    return _failing(OSError, label)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(br_tol=args.br_tol, bayes_eps=args.bayes_eps)


def _parse_param(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def build_spec(args):
    """Construct the GameSpec selected by the parsed command line."""
    if args.game_file:
        spec = load_game_file(args.game_file)
        if args.horizon is not None and spec.horizon != args.horizon:
            # Rebuild from a config that records the override, so the
            # manifest and state.npz describe the game that is solved.
            cfg = spec.metadata["config"]
            if "builtin" in cfg:
                cfg = dict(cfg, params=dict(cfg.get("params", {}), horizon=args.horizon))
            else:
                cfg = dict(cfg, horizon=args.horizon)
            spec = load_game_dict(cfg)
    elif args.game:
        params = dict(args.params)
        if args.action_resolution is not None:
            key = "subsidy_points" if args.game == "infection" else "price_points"
            params.setdefault(key, args.action_resolution)
        if args.horizon is not None:
            params.setdefault("horizon", args.horizon)
        cfg = {"builtin": args.game, "params": params}
        spec = load_game_dict(cfg)
    else:
        raise ValueError("select a game with --game or --game-file")
    if args.infinite and spec.horizon is not None:
        raise ValueError("--infinite conflicts with a finite-horizon game definition")
    if not args.infinite and args.horizon is None and spec.horizon is None:
        args.infinite = True      # stationary by default for infinite specs
    return spec


def _grids(spec, args) -> JointGrid:
    z_res = args.z_resolution
    if z_res is None:
        z_res = 50 if spec.n_follower_states == 2 else 10
    pi_res = args.pi_resolution if spec.n_leader_states > 1 else 1
    return JointGrid(pi_grid=build_grid(spec.n_leader_states, pi_res),
                     z_grid=build_grid(spec.n_follower_states, z_res))


def _check_starts(spec, args):
    """Raise on a ``--z0`` or ``--pi0`` that is not a start of ``spec``."""
    for flag, vec, dim, what in (("--z0", args.z0, spec.n_follower_states, "follower"),
                                 ("--pi0", args.pi0, spec.n_leader_states, "leader")):
        if vec is not None:
            with _failing(OffSimplexError,
                          f"{flag} {vec} is not a {what}-state distribution of length {dim}"):
                project_to_simplex(vec, dim, tol=1e-9)


def _roll_forward(spec, generator, args, solver_config: SolverConfig):
    """(steps, trajectory) from the configured start.

    ``--steps`` defaults to 200 for a stationary solve and to the horizon of
    a finite one, and is clamped to that horizon.
    """
    pi0 = np.asarray(args.pi0, dtype=np.float64) if args.pi0 else spec.initial_leader_belief
    z0 = np.asarray(args.z0, dtype=np.float64) if args.z0 else spec.initial_mean_field
    steps = args.steps
    if generator.stationary:
        steps = 200 if steps is None else steps
    else:
        steps = generator.n_stages if steps is None else min(steps, generator.n_stages)
    with _failing(NoEquilibriumError, "no stage equilibrium in the forward pass"):
        trajectory = forward_pass(spec, generator, pi0, z0, steps=steps,
                                  mode=args.mode, seed=args.seed,
                                  offgrid=args.offgrid, config=solver_config)
    return steps, trajectory


def _print_reuse(trajectory):
    print(f"forward branch-steps: {trajectory.computed_steps} computed, "
          f"{trajectory.reused_steps} reused")


def _validated(spec, args) -> JointGrid:
    """The grids of ``spec``, once it passes ``validate`` at their mean-field
    resolution, capped at 25."""
    joint = _grids(spec, args)
    report = validate(spec, grid_resolution=min(joint.z_grid.resolution, 25))
    if not report.ok:
        raise ValueError(f"game definition failed validation:\n{report}")
    return joint


def run(args) -> int:
    """Solve a game, roll the equilibrium forward, write all artifacts."""
    spec = build_spec(args)
    _check_starts(spec, args)
    joint = _validated(spec, args)

    solver_config = _solver_config(args)
    convergence = None
    with _failing(NoEquilibriumError, "no stage equilibrium"):
        if spec.infinite_horizon:
            generator, _, convergence = solve_stationary(
                spec, joint, tol=args.tol, max_iter=args.max_iter,
                config=solver_config)
        else:
            generator, _ = backward_pass(spec, joint, config=solver_config)
    steps, trajectory = _roll_forward(spec, generator, args, solver_config)

    digest = spec_hash(spec)
    outdir = Path(args.out) if args.out else Path("out") / digest

    game_config = spec.metadata["config"]
    final_z = trajectory.steps[-1].mean_field()
    manifest = {
        "game": {"name": spec.name, "config": export.Exact(game_config)},
        "spec_hash": digest,
        "grids": {"z_resolution": joint.z_grid.resolution,
                  "pi_resolution": joint.pi_grid.resolution},
        "tolerances": {"value_iteration": args.tol, "br_tol": args.br_tol,
                       "bayes_eps": args.bayes_eps},
        "horizon": "infinite" if spec.infinite_horizon else spec.horizon,
        "seed": args.seed,
        "mode": args.mode,
        "offgrid": args.offgrid,
        "steps": steps,
        "convergence": convergence.to_dict() if convergence else None,
        "trajectory": {
            "leader_discounted": trajectory.leader_discounted,
            "follower_discounted": list(trajectory.follower_discounted),
            "final_mean_field": list(final_z),
            "lost_weight": trajectory.lost_weight,
            "offgrid_lookups": trajectory.offgrid_lookups,
        },
    }
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        export.write_json(outdir / "manifest.json", manifest)
        export.values_csv(outdir / "values.csv", generator, spec)
        export.policy_csv(outdir / "policy.csv", generator, spec)
        export.trajectory_csv(outdir / "trajectory.csv", trajectory, spec)
        export.diagnostics_jsonl(outdir / "diagnostics.jsonl", generator)
        export.write_state(outdir / "state.npz", generator, game_config, solver_config)

    print(f"spec hash: {digest}")
    if convergence is not None:
        print(f"stationary solve converged in {convergence.iterations} sweeps "
              f"(last delta {export.fmt(convergence.deltas[-1])})")
    print("stage engine: {} distinct next states for {} pair slots".format(
        *generator.next_states))
    print(f"forward steps: {steps}  final mean field: "
          + "[" + ", ".join(export.fmt(v) for v in final_z) + "]")
    print(f"leader discounted reward: {export.fmt(trajectory.leader_discounted)}")
    _print_reuse(trajectory)
    print(f"artifacts: {outdir}")
    return 0


def cmd_validate(args) -> int:
    report = validate(build_spec(args))
    print(str(report))
    return 0 if report.ok else 3


def cmd_oracle(args) -> int:
    spec = build_spec(args)
    joint = _validated(spec, args)
    game = TinyGame(spec, initial_points=config_initial_points(spec))
    generator = None
    if args.check_solver:
        with _failing(StackMFGError, "solver failed"):
            generator, _ = backward_pass(spec, joint, config=_solver_config(args))
    with _failing(NoEquilibriumError, "no stage equilibrium in the oracle"):
        report = oracle_report(game, generator=generator)

    if args.out:
        target = Path(args.out) / "oracle_report.json"
        with _writing(target):
            target.parent.mkdir(parents=True, exist_ok=True)
            export.write_json(target, report)
        print(f"oracle report: {target}")
    else:
        print(json.dumps(export.json_ready(report), sort_keys=True, indent=1))
    for entry in report["initial_points"]:
        line = f"initial point {entry['initial_mean_field']}: {entry['n_smfe']} SMFE"
        if "solver_profile_in_smfe_set" in entry:
            line += f"; solver profile in set: {entry['solver_profile_in_smfe_set']}"
        print(line)
    return 0


def cmd_export(args) -> int:
    path = Path(args.run_dir)
    game_config, generator, solver_config = export.read_state(path / "state.npz")
    with _failing(ValueError, f"the game saved in {path / 'state.npz'} no longer loads"):
        spec = load_game_dict(game_config)
    _check_starts(spec, args)
    _, trajectory = _roll_forward(spec, generator, args, solver_config)
    target = Path(args.out_file) if args.out_file else path / "trajectory_export.csv"
    with _writing(target):
        target.parent.mkdir(parents=True, exist_ok=True)
        export.trajectory_csv(target, trajectory, spec)
    _print_reuse(trajectory)
    print(f"trajectory: {target}")
    return 0


def _at_least(kind, low, strict: bool = False):
    """argparse type: a finite ``kind`` at least ``low``, or above it if ``strict``."""
    def parse(text: str):
        value = kind(text)
        if not (np.isfinite(value) and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'above' if strict else 'at least'} {low}, got {text}")
        return value
    parse.__name__ = kind.__name__      # argparse names the type in its errors
    return parse


def _add_game(p: argparse.ArgumentParser):
    p.add_argument("--game", help="built-in game name (infection, tech)")
    p.add_argument("--game-file", help="path to a JSON game definition")
    p.add_argument("--param", action="append", type=_parse_param, default=[],
                   dest="params", metavar="KEY=VALUE",
                   help="built-in game parameter override")
    p.add_argument("--horizon", type=int, help="finite horizon length")
    p.add_argument("--infinite", action="store_true",
                   help="stationary discounted solve")
    p.add_argument("--action-res", type=int, dest="action_resolution",
                   help="leader action grid density for built-in games")


def _add_grid(p: argparse.ArgumentParser):
    p.add_argument("--z-res", type=_at_least(int, 1), dest="z_resolution",
                   help="mean-field grid resolution (default 50 for 2 types)")
    p.add_argument("--pi-res", type=_at_least(int, 1), dest="pi_resolution", default=10,
                   help="belief grid resolution (default 10)")
    p.add_argument("--br-tol", type=_at_least(float, 0), default=1e-9,
                   help="best-response fixed-point tolerance, finite and at least 0")
    p.add_argument("--bayes-eps", type=_at_least(float, 0), default=1e-12,
                   help="leader-action probability at or below which no Bayes update "
                        "is made, finite and at least 0")
    p.add_argument("--out", help="output directory (solve: default out/<spec-hash>)")


def _add_forward(p: argparse.ArgumentParser):
    p.add_argument("--steps", type=_at_least(int, 1),
                   help="forward steps, at least 1 (default 200 stationary)")
    p.add_argument("--mode", choices=["expected", "sampled"], default="expected")
    p.add_argument("--seed", type=_at_least(int, 0), default=0,
                   help="seed of the sampled mode, at least 0")
    p.add_argument("--offgrid", choices=["resolve", "nearest"], default="resolve",
                   help="prescription lookup at off-grid public states")
    p.add_argument("--z0", type=float, nargs="+", help="initial mean field override")
    p.add_argument("--pi0", type=float, nargs="+", help="initial belief override")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="stackmfg",
        description="Equilibrium solver for leader/followers mean-field games")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a game and export artifacts")
    _add_game(p_solve)
    _add_grid(p_solve)
    p_solve.add_argument("--tol", type=_at_least(float, 0, strict=True), default=1e-6,
                         help="value-iteration stopping tolerance, finite and above 0")
    p_solve.add_argument("--max-iter", type=_at_least(int, 1), default=2000,
                         help="stationary sweeps before giving up, at least 1")
    _add_forward(p_solve)

    p_val = sub.add_parser("validate", help="check a game definition")
    _add_game(p_val)

    p_oracle = sub.add_parser("oracle", help="brute-force a tiny game")
    _add_game(p_oracle)
    _add_grid(p_oracle)
    p_oracle.add_argument("--check-solver", action="store_true",
                          help="also run the solver and report membership")

    p_export = sub.add_parser("export", help="re-export a trajectory from a run",
                              allow_abbrev=False)
    _add_forward(p_export)
    p_export.add_argument("--run-dir", required=True)
    p_export.add_argument("--out-file")
    return parser


def main(argv=None) -> int:
    """Run one command; the one place where a failure becomes an exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "game_file", None) and (args.game or args.params
                                             or args.action_resolution is not None):
        parser.error("--game-file takes no --game, --param or --action-res")
    if "params" in args:
        args.params = dict(args.params)
    commands = {"solve": run, "validate": cmd_validate, "oracle": cmd_oracle,
                "export": cmd_export}
    try:
        return commands[args.command](args)
    except tuple(EXIT_CODES) as exc:
        label = getattr(exc, "cli_label", None)
        print(f"error: {label}: {exc}" if label else f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
