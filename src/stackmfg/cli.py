"""Command-line interface: solve, validate, oracle, export.

Exit codes: 0 success, 2 usage (argparse), 3 validation failure,
4 no stage equilibrium, 5 stationary non-convergence, 6 oracle enumeration
too large.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from zipfile import BadZipFile

import numpy as np

from . import export
from .errors import (EnumerationTooLarge, NoEquilibriumError, NonConvergenceError,
                     NonFiniteValues, OffSimplexError, UncheckableProfile)
from .game import spec_hash, validate
from .gamefile import load_game_dict, load_game_file
from .grids import JointGrid, build_grid, project_to_simplex
from .oracle import TinyGame, oracle_report
from .solver import backward_pass, forward_pass, solve_stationary
from .stage import SolverConfig

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_NO_EQUILIBRIUM = 4
EXIT_NONCONVERGENCE = 5
EXIT_ENUMERATION = 6


def _solver_config(args) -> SolverConfig:
    return SolverConfig(br_tol=args.br_tol, bayes_eps=args.bayes_eps)


def _err(msg: str):
    print(f"error: {msg}", file=sys.stderr)


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


def _bad_start(spec, args) -> bool:
    """Report a ``--z0`` or ``--pi0`` that is not a start of ``spec``."""
    for flag, vec, dim, what in (("--z0", args.z0, spec.n_follower_states, "follower"),
                                 ("--pi0", args.pi0, spec.n_leader_states, "leader")):
        if vec is None:
            continue
        try:
            project_to_simplex(vec, dim, tol=1e-9)
        except OffSimplexError as exc:
            _err(f"{flag} {vec} is not a {what}-state distribution of length {dim}: {exc}")
            return True
    return False


def _no_equilibrium(exc: NoEquilibriumError, where: str) -> int:
    _err(f"no stage equilibrium{where}: {exc} at t={exc.t}, pi={exc.pi}, z={exc.z}")
    return EXIT_NO_EQUILIBRIUM


def _cannot_write(path, exc: OSError) -> int:
    _err(f"cannot write {path}: {exc}")
    return EXIT_VALIDATION


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
    trajectory = forward_pass(spec, generator, pi0, z0, steps=steps,
                              mode=args.mode, seed=args.seed,
                              offgrid=args.offgrid, config=solver_config)
    return steps, trajectory


def _print_reuse(trajectory):
    print(f"forward branch-steps: {trajectory.computed_steps} computed, "
          f"{trajectory.reused_steps} reused")


def run(args) -> int:
    """Solve a game, roll the equilibrium forward, write all artifacts."""
    try:
        spec = build_spec(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        _err(str(exc))
        return EXIT_VALIDATION
    if _bad_start(spec, args):
        return EXIT_VALIDATION

    joint = _grids(spec, args)
    report = validate(spec, grid_resolution=min(joint.z_grid.resolution, 25))
    if not report.ok:
        _err("game definition failed validation:")
        print(str(report), file=sys.stderr)
        return EXIT_VALIDATION

    solver_config = _solver_config(args)
    convergence = None
    try:
        if spec.infinite_horizon:
            generator, _, convergence = solve_stationary(
                spec, joint, tol=args.tol, max_iter=args.max_iter,
                config=solver_config)
        else:
            generator, _ = backward_pass(spec, joint, config=solver_config)
    except NoEquilibriumError as exc:
        return _no_equilibrium(exc, "")
    except NonFiniteValues as exc:
        _err(str(exc))
        return EXIT_VALIDATION
    except NonConvergenceError as exc:
        _err(f"{exc}")
        return EXIT_NONCONVERGENCE
    try:
        steps, trajectory = _roll_forward(spec, generator, args, solver_config)
    except NoEquilibriumError as exc:
        return _no_equilibrium(exc, " in the forward pass")

    digest = spec_hash(spec)
    outdir = Path(args.out) if args.out else Path("out") / digest

    game_config = spec.metadata["config"]
    final_z = trajectory.mean_field_path()[-1]
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
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        export.write_json(outdir / "manifest.json", manifest)
        export.values_csv(outdir / "values.csv", generator, spec)
        export.policy_csv(outdir / "policy.csv", generator, spec)
        export.trajectory_csv(outdir / "trajectory.csv", trajectory, spec)
        export.diagnostics_jsonl(outdir / "diagnostics.jsonl", generator)
        export.write_state(outdir / "state.npz", generator, game_config, solver_config)
    except OSError as exc:
        return _cannot_write(exc.filename or outdir, exc)

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
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        spec = build_spec(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        _err(str(exc))
        return EXIT_VALIDATION
    report = validate(spec)
    print(str(report))
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_oracle(args) -> int:
    try:
        spec = build_spec(args)
        game = TinyGame(spec, initial_points=[
            (p["pi"], p["z"]) for p in spec.metadata["config"].get("initial_points") or []])
    except (ValueError, FileNotFoundError, KeyError) as exc:
        _err(str(exc))
        return EXIT_VALIDATION

    generator = None
    if args.check_solver:
        joint = _grids(spec, args)
        try:
            generator, _ = backward_pass(spec, joint, config=_solver_config(args))
        except NoEquilibriumError as exc:
            _err(f"solver failed: {exc}")
            return EXIT_NO_EQUILIBRIUM
        except NonFiniteValues as exc:
            _err(f"solver failed: {exc}")
            return EXIT_VALIDATION
    try:
        report = oracle_report(game, generator=generator)
    except EnumerationTooLarge as exc:
        _err(str(exc))
        return EXIT_ENUMERATION
    except UncheckableProfile as exc:
        _err(str(exc))
        return EXIT_VALIDATION
    except NoEquilibriumError as exc:
        return _no_equilibrium(exc, " in the oracle")

    if args.out:
        target = Path(args.out) / "oracle_report.json"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            export.write_json(target, report)
        except OSError as exc:
            return _cannot_write(target, exc)
        print(f"oracle report: {target}")
    else:
        print(json.dumps(export.json_ready(report), sort_keys=True, indent=1))
    for entry in report["initial_points"]:
        line = f"initial point {entry['initial_mean_field']}: {entry['n_smfe']} SMFE"
        if "solver_profile_in_smfe_set" in entry:
            line += f"; solver profile in set: {entry['solver_profile_in_smfe_set']}"
        print(line)
    return EXIT_OK


def cmd_export(args) -> int:
    path = Path(args.run_dir)
    try:
        game_config, generator, solver_config = export.read_state(path / "state.npz")
    except (OSError, KeyError, EOFError, ValueError, BadZipFile):
        _err(f"no complete state.npz under {args.run_dir}; re-run `stackmfg solve` to write it")
        return EXIT_VALIDATION
    spec = load_game_dict(game_config)
    if _bad_start(spec, args):
        return EXIT_VALIDATION
    try:
        _, trajectory = _roll_forward(spec, generator, args, solver_config)
    except NoEquilibriumError as exc:
        return _no_equilibrium(exc, " in the forward pass")
    target = Path(args.out_file) if args.out_file else path / "trajectory_export.csv"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        export.trajectory_csv(target, trajectory, spec)
    except OSError as exc:
        return _cannot_write(target, exc)
    _print_reuse(trajectory)
    print(f"trajectory: {target}")
    return EXIT_OK


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
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "game_file", None) and (args.game or args.params
                                             or args.action_resolution is not None):
        parser.error("--game-file takes no --game, --param or --action-res")
    if "params" in args:
        args.params = dict(args.params)
    commands = {"solve": run, "validate": cmd_validate, "oracle": cmd_oracle,
                "export": cmd_export}
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
