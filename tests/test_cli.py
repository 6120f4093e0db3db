"""Command-line interface: subcommands, exit codes, artifact determinism."""

import ast
import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stackmfg import StackMFGError, cli, export, oracle, solver, spec_hash, stage
from stackmfg.cli import main
from stackmfg.gamefile import load_game_dict
from conftest import no_equilibrium_at
from test_gamefile import TINY_CONFIG

SMALL = ["--z-res", "10", "--action-res", "5", "--tol", "1e-5",
         "--steps", "25", "--seed", "7"]
ARTIFACTS = ("manifest.json", "values.csv", "policy.csv", "trajectory.csv",
             "diagnostics.jsonl", "state.npz")
SAMPLE_GAME = Path(__file__).resolve().parent.parent / "sample_games" / "tiny.json"


def run_cli(args):
    return main(args)


def test_validate_ok(capsys):
    assert run_cli(["validate", "--game", "infection"]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_bad_game_exits_3():
    assert run_cli(["validate", "--game", "nope"]) == 3


def test_validate_catches_bad_discount():
    # infinite horizon with discount 1.0 must be reported, not solved
    assert run_cli(["validate", "--game", "infection",
                    "--param", "delta=1.0"]) == 3


def test_solve_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["solve", "--game", "infection", "--infinite",
                    *SMALL, "--out", str(out)]) == 0
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["convergence"]["converged"] is True
    assert manifest["horizon"] == "infinite"


def test_solve_prints_engine_next_states_and_walks_the_path_once(tmp_path, capsys,
                                                                monkeypatch):
    """``solve`` reports its engine's distinct next states on stdout only, and
    averages the trajectory's mean fields once for manifest and summary."""
    calls = []
    path = solver.Trajectory.mean_field_path
    monkeypatch.setattr(solver.Trajectory, "mean_field_path",
                        lambda self: (calls.append(1), path(self))[1])
    out = tmp_path / "run"
    assert run_cli(["solve", "--game-file", str(SAMPLE_GAME), "--horizon", "3",
                    "--out", str(out)]) == 0
    assert len(calls) == 1
    spec = load_game_dict(dict(json.loads(SAMPLE_GAME.read_text()), horizon=3))
    engine = stage.StageEngine(spec, cli._grids(
        spec, cli.argparse.Namespace(z_resolution=None, pi_resolution=10)))
    distinct, slots = engine.next_states
    assert 0 < distinct < slots == engine.pairs.inv.size
    assert (f"stage engine: {distinct} distinct next states for {slots} pair slots"
            in capsys.readouterr().out.splitlines())
    assert not any(b"distinct" in path.read_bytes() for path in out.iterdir())


def test_finite_horizon_artifact_count(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["solve", "--game", "tech", "--horizon", "4",
                    "--z-res", "8", "--action-res", "5", "--out", str(out)]) == 0
    policy = (out / "policy.csv").read_text().strip().split("\n")[1:]
    stages = {row.split(",")[0] for row in policy}
    assert stages == {"1", "2", "3", "4"}
    traj = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
    assert {row.split(",")[0] for row in traj} == {"1", "2", "3", "4"}


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["solve", "--game", "infection", "--infinite", *SMALL]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    for name in ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_spec_hash_tracks_parameters(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["solve", "--game", "infection", "--infinite", *SMALL,
             "--out", str(a)])
    run_cli(["solve", "--game", "infection", "--infinite", *SMALL,
             "--param", "k=0.25", "--out", str(b)])
    ha = json.loads((a / "manifest.json").read_text())["spec_hash"]
    hb = json.loads((b / "manifest.json").read_text())["spec_hash"]
    assert ha != hb


def test_oracle_subcommand(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = tmp_path / "oracle"
    code = run_cli(["oracle", "--game-file", str(cfg), "--check-solver",
                    "--z-res", "4", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "oracle_report.json").read_text())
    entry = report["initial_points"][0]
    assert entry["n_smfe"] >= 1
    assert entry["solver_profile_in_smfe_set"] is True


ANTI_COORDINATION = {
    "name": "anti-coordination", "follower_states": ["a", "b"], "leader_states": ["L"],
    "follower_actions": ["to_a", "to_b"], "leader_actions": ["x"],
    "discount": 1.0, "horizon": 2,
    "initial_leader_belief": [1.0], "initial_mean_field": [0.25, 0.75],
    # each action moves to its own state; a state's crowd is its cost
    "follower_kernel": [[[[[1, 0], [0, 1]]], [[[1, 0], [0, 1]]]]],
    "leader_kernel": [[[1]]],
    "follower_reward": [[[[{"z": [-1, 0]}, {"z": [-1, 0]}]],
                         [[{"z": [0, -1]}, {"z": [0, -1]}]]]],
    "leader_reward": [[0]],
}


@pytest.mark.parametrize("case", ["mixed", "off-grid"])
def test_oracle_rejects_a_solver_profile_it_cannot_check(tmp_path, capsys, case):
    """A mixed solver prescription, or a start off the solver's grid, exits 3
    naming the public state instead of raising."""
    config = ANTI_COORDINATION if case == "mixed" else json.loads(SAMPLE_GAME.read_text())
    if case == "off-grid":
        config["initial_points"] = [{"pi": [1.0], "z": [0.3, 0.7]}]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "oracle"
    assert run_cli(["oracle", "--game-file", str(path), "--check-solver", "--z-res", "4",
                    "--out", str(out)]) == 3
    err = capsys.readouterr().err
    what = "not pure" if case == "mixed" else "off-grid"
    assert what in err and "t=1" in err and "pure on-grid profiles only" in err, err
    assert ("z=[0.25 0.75]" if case == "mixed" else "z=[0.3 0.7]") in err, err
    assert not out.exists()


def test_oracle_without_stage_equilibrium_exits_4(tmp_path, capsys, monkeypatch):
    """A public state where pricing a leader deviation finds no pure stage
    equilibrium exits 4 with its stage and public state."""
    stage_table = oracle._stage_table

    def without_valid_pairs_at_t2(game, t, pi, z, tol):
        table = stage_table(game, t, pi, z, tol)
        return table._replace(valid=np.zeros_like(table.valid)) if t == 2 else table

    monkeypatch.setattr(oracle, "_stage_table", without_valid_pairs_at_t2)
    out = tmp_path / "oracle"
    assert run_cli(["oracle", "--game-file", str(SAMPLE_GAME), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "no stage equilibrium in the oracle" in err and "t=2" in err and "z=[" in err, err
    assert not out.exists()


@pytest.mark.parametrize("field, path, value, issue", [
    ("leader_reward", (0, 0), float("nan"), "leader reward (x^l=0, a^l=0) at probe 0 is nan"),
    ("follower_kernel", (0, 0, 0, 0), [1.0, 0.4], "row sums to 1.4")])
def test_oracle_validates_the_game_first(tmp_path, capsys, field, path, value, issue):
    """``oracle`` runs ``solve``'s validation: a NaN leader reward or a kernel
    row summing to 1.4 exits 3 with one ``error:`` line and writes no report."""
    game = json.loads(SAMPLE_GAME.read_text())
    entry = game[field]
    for index in path[:-1]:
        entry = entry[index]
    entry[path[-1]] = value
    target = tmp_path / "game.json"
    target.write_text(json.dumps(game))
    out = tmp_path / "oracle"
    assert run_cli(["oracle", "--game-file", str(target), "--z-res", "4",
                    "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: game definition failed validation:"], err
    assert issue in err, err
    assert not out.exists()


def test_export_reruns_trajectory(tmp_path):
    out = tmp_path / "run"
    run_cli(["solve", "--game", "infection", "--infinite", *SMALL,
             "--out", str(out)])
    target = tmp_path / "retraj.csv"
    code = run_cli(["export", "--run-dir", str(out), "--z0", "0.9", "0.1",
                    "--steps", "8", "--out-file", str(target)])
    assert code == 0
    rows = target.read_text().strip().split("\n")
    assert len(rows) == 9
    assert rows[1].split(",")[4] == "0.9"     # z_healthy at t=1


def test_missing_game_is_an_error():
    assert run_cli(["solve"]) == 3


def test_sampled_mode_runs(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["solve", "--game", "infection", "--infinite", *SMALL,
                    "--mode", "sampled", "--out", str(out)]) == 0


def test_nonconvergence_exit_code(tmp_path):
    # the 5-point price grid makes the adoption game's value iteration cycle;
    # the CLI must surface that as its own exit code, not crash
    out = tmp_path / "run"
    assert run_cli(["solve", "--game", "tech", "--infinite", "--z-res", "10",
                    "--action-res", "5", "--tol", "1e-6", "--max-iter", "60",
                    "--out", str(out)]) == 5


def signal_game(seed=5):
    """Finite JSON game with two leader types, stochastic kernels and
    full-precision floats, so reloading it from rounded text would drift."""
    rng = np.random.default_rng(seed)
    shape = (2, 2, 2, 2)                       # (x_l, x_f, a_l, a_f)
    return {
        "name": "signal-roundtrip",
        "follower_states": ["lo", "hi"], "leader_states": ["weak", "strong"],
        "follower_actions": ["stay", "move"], "leader_actions": ["low", "high"],
        "discount": 0.9, "horizon": 3,
        "initial_leader_belief": [0.4, 0.6], "initial_mean_field": [0.7, 0.3],
        "follower_kernel": rng.dirichlet(np.ones(2), size=shape).tolist(),
        "leader_kernel": rng.dirichlet(np.ones(2), size=(2, 2)).tolist(),
        "follower_reward": rng.normal(size=shape).tolist(),
        "leader_reward": [[{"const": float(c), "z": [0.0, float(w)]}
                           for c, w in zip(row_c, row_w)]
                          for row_c, row_w in zip(rng.normal(size=(2, 2)),
                                                  rng.normal(size=(2, 2)))],
    }


ROUNDTRIP_CASES = {
    # (solve arguments, forward arguments that export repeats)
    "infection": (["--game", "infection", "--infinite", *SMALL],
                  ["--steps", "25", "--seed", "7"]),
    "rounded-param": (["--game", "infection", "--infinite", *SMALL, "--mode", "sampled",
                       "--param", "k=0.1234567890123456"],
                      ["--steps", "25", "--seed", "7", "--mode", "sampled"]),
    "two-leader-types": (["--game-file", "{tmp}/signal.json", "--pi-res", "2",
                          "--z-res", "4"], []),
    "horizon-override": (["--game-file", str(SAMPLE_GAME), "--horizon", "3",
                          "--z-res", "8"], []),
    "builtin-file-horizon": (["--game-file", "{tmp}/tech.json", "--horizon", "2",
                              "--z-res", "6"], []),
}


@pytest.mark.parametrize("case", sorted(ROUNDTRIP_CASES))
def test_export_reloads_exact_run_state(tmp_path, monkeypatch, case):
    """export rolls forward the solved game with the exact solved tables."""
    (tmp_path / "signal.json").write_text(json.dumps(signal_game()))
    (tmp_path / "tech.json").write_text(json.dumps(
        {"builtin": "tech", "params": {"price_points": 5}}))
    solve_args, forward_args = ROUNDTRIP_CASES[case]
    solve_args = [a.format(tmp=tmp_path) for a in solve_args]
    seen = []
    original = cli.forward_pass

    def record(spec, generator, *args, **kwargs):
        seen.append((spec, generator))
        return original(spec, generator, *args, **kwargs)

    monkeypatch.setattr(cli, "forward_pass", record)
    out, target = tmp_path / "run", tmp_path / "again.csv"
    assert run_cli(["solve", *solve_args, "--out", str(out)]) == 0
    assert run_cli(["export", "--run-dir", str(out), *forward_args,
                    "--out-file", str(target)]) == 0
    (_, solved), (spec, loaded) = seen

    assert loaded.stationary == solved.stationary
    assert len(loaded.stages) == len(solved.stages)
    for t in range(len(solved.stages) + (not solved.stationary)):
        (vf1, vl1), (vf2, vl2) = solved.continuation_for(t), loaded.continuation_for(t)
        assert np.array_equal(vf1.values, vf2.values)
        assert np.array_equal(vl1.values, vl2.values)
    for p1, p2 in zip(solved.stages, loaded.stages):
        assert len(p1.solutions) == len(p2.solutions)
        for s1, s2 in zip(p1.solutions, p2.solutions):
            assert np.array_equal(s1.prescription.leader, s2.prescription.leader)
            assert np.array_equal(s1.prescription.follower, s2.prescription.follower)
    manifest = json.loads((out / "manifest.json").read_text())
    assert spec_hash(spec) == manifest["spec_hash"]
    assert target.read_bytes() == (out / "trajectory.csv").read_bytes()


def test_export_clamps_steps_to_horizon(tmp_path):
    out, target = tmp_path / "run", tmp_path / "long.csv"
    assert run_cli(["solve", "--game", "tech", "--horizon", "4", "--z-res", "8",
                    "--action-res", "5", "--out", str(out)]) == 0
    assert run_cli(["export", "--run-dir", str(out), "--steps", "10",
                    "--out-file", str(target)]) == 0
    rows = target.read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]


def test_export_without_state_exits_3(tmp_path, capsys):
    assert run_cli(["export", "--run-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "re-run" in err


def test_export_rejects_solve_flags(tmp_path):
    """export replays the saved run; a game, grid or solver flag would be
    ignored, so it is a usage error."""
    out = tmp_path / "run"
    assert run_cli(["solve", "--game", "tech", "--horizon", "4", "--z-res", "8",
                    "--action-res", "5", "--out", str(out)]) == 0
    for flag in (["--game", "infection"], ["--game-file", "x.json"], ["--param", "k=0.3"],
                 ["--horizon", "10"], ["--infinite"], ["--z-res", "3"], ["--pi-res", "3"],
                 ["--action-res", "3"], ["--tol", "1e-3"], ["--max-iter", "5"],
                 ["--br-tol", "1e-3"], ["--bayes-eps", "1e-3"],
                 ["--out", str(tmp_path / "elsewhere")]):
        with pytest.raises(SystemExit) as exc:
            run_cli(["export", "--run-dir", str(out), *flag])
        assert exc.value.code == 2, flag
    assert not (out / "trajectory_export.csv").exists()
    assert not (tmp_path / "elsewhere").exists()


def test_solve_rejects_steps_below_one(tmp_path):
    """A forward pass of no steps has no final mean field to report, so
    ``--steps`` below 1 is a usage error before anything is solved."""
    out = tmp_path / "run"
    for extra in (["--steps", "0"], ["--steps", "-1", "--horizon", "2"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--game", "infection", "--z-res", "5", "--action-res", "3",
                     *extra, "--out", str(out)])
        assert exc.value.code == 2, extra
    assert not out.exists()


def test_export_rejects_steps_below_one(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["solve", "--game", "tech", "--horizon", "4", "--z-res", "8",
                    "--action-res", "5", "--out", str(out)]) == 0
    for steps in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["export", "--run-dir", str(out), "--steps", steps])
        assert exc.value.code == 2, steps
    assert not (out / "trajectory_export.csv").exists()


def test_solve_and_oracle_reject_counts_below_one(tmp_path):
    """A grid resolution or stationary sweep budget below 1 is a usage error,
    not a traceback from inside the solver."""
    out = tmp_path / "run"
    solve = ["solve", "--game", "infection", "--z-res", "5", "--action-res", "3"]
    oracle = ["oracle", "--game-file", str(SAMPLE_GAME)]
    for args in ([*solve, "--max-iter", "0"], [*solve, "--max-iter", "-1"],
                 ["solve", "--game", "infection", "--z-res", "0"],
                 ["solve", "--game-file", str(SAMPLE_GAME), "--pi-res", "0"],
                 [*oracle, "--z-res", "0"], [*oracle, "--pi-res", "0"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--out", str(out)])
        assert exc.value.code == 2, args
    assert not out.exists()


def test_solve_and_oracle_reject_bad_tolerances(tmp_path, capsys):
    """A stopping tolerance that is not finite and above 0, or a best-response
    or Bayes tolerance that is not finite and at least 0, is a usage error,
    not a misleading failure later in the solve or the oracle."""
    out = tmp_path / "run"
    solve = ["solve", "--game", "infection", "--z-res", "3", "--action-res", "3"]
    oracle = ["oracle", "--game-file", str(SAMPLE_GAME), "--check-solver", "--z-res", "4"]
    cases = [[*solve, "--tol", value] for value in ("0", "-1e-6", "nan", "inf")]
    cases += [[*base, flag, value] for base in (solve, oracle)
              for flag in ("--br-tol", "--bayes-eps") for value in ("-1", "nan", "inf", "-inf")]
    for args in cases:
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--out", str(out)])
        assert exc.value.code == 2, args
        assert f"argument {args[-2]}" in capsys.readouterr().err, args
    assert not out.exists()


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "stackmfg", "validate", "--game", "infection"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


FORWARD_FLAGS = (["--steps", "3"], ["--mode", "sampled"], ["--seed", "1"],
                 ["--offgrid", "nearest"], ["--z0", "5", "5"], ["--pi0", "3"])
SOLVE_FLAGS = (["--tol", "5"], ["--max-iter", "-3"])


def test_validate_takes_only_game_flags(tmp_path):
    """validate reads only the flags that select the game; a grid, solver,
    forward-pass or output flag would be ignored, so it is a usage error."""
    base = ["validate", "--game", "infection"]
    assert run_cli(base + ["--horizon", "3", "--action-res", "4", "--param", "k=0.3"]) == 0
    assert run_cli(base + ["--infinite"]) == 0
    assert run_cli(["validate", "--game-file", str(SAMPLE_GAME)]) == 0
    for flag in (*FORWARD_FLAGS, *SOLVE_FLAGS, ["--z-res", "5"], ["--pi-res", "3"],
                 ["--br-tol", "1e-3"], ["--bayes-eps", "1e-3"], ["--check-solver"],
                 ["--out", str(tmp_path / "x")]):
        with pytest.raises(SystemExit) as exc:
            run_cli(base + flag)
        assert exc.value.code == 2, flag
    assert not (tmp_path / "x").exists()


def test_oracle_takes_only_game_grid_and_output_flags(tmp_path):
    base = ["oracle", "--game-file", str(SAMPLE_GAME)]
    out = tmp_path / "report"
    assert run_cli(base + ["--horizon", "2", "--z-res", "4", "--pi-res", "2", "--br-tol", "1e-9",
                           "--bayes-eps", "1e-12", "--check-solver", "--out", str(out)]) == 0
    assert (out / "oracle_report.json").exists()
    for flag in (*FORWARD_FLAGS, *SOLVE_FLAGS):
        with pytest.raises(SystemExit) as exc:
            run_cli(base + ["--out", str(tmp_path / "x")] + flag)
        assert exc.value.code == 2, flag
    assert not (tmp_path / "x").exists()


def test_export_resolves_with_solved_tolerances(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run_cli(["solve", "--game", "infection", "--infinite", *SMALL,
                    "--br-tol", "1e-7", "--bayes-eps", "1e-10", "--out", str(out)]) == 0
    _, _, config = export.read_state(out / "state.npz")
    assert (config.br_tol, config.bayes_eps) == (1e-7, 1e-10)
    seen = []
    original = cli.forward_pass

    def record(*args, **kwargs):
        seen.append(kwargs["config"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "forward_pass", record)
    assert run_cli(["export", "--run-dir", str(out), "--z0", "0.9", "0.1",
                    "--steps", "3"]) == 0
    assert (seen[0].br_tol, seen[0].bayes_eps) == (1e-7, 1e-10)


def test_manifest_game_config_is_exact(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["solve", "--game", "infection", "--infinite", *SMALL,
                    "--param", "k=0.1234567890123456", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["game"]["config"]["params"]["k"] == 0.1234567890123456
    assert spec_hash(load_game_dict(manifest["game"]["config"])) == manifest["spec_hash"]


@pytest.fixture(scope="module")
def tech_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tech") / "run"
    assert run_cli(["solve", "--game", "tech", "--horizon", "4", "--z-res", "8",
                    "--action-res", "5", "--out", str(out)]) == 0
    return out


def assert_start_rejected(tmp_path, capsys, run_dir, flag, values, reason):
    """Both solve and export exit 3 on the start, naming the flag and vector,
    and neither writes anything."""
    target, out = tmp_path / "query.csv", tmp_path / "never"
    for args in (["export", "--run-dir", str(run_dir), "--out-file", str(target)],
                 ["solve", "--game-file", str(SAMPLE_GAME), "--out", str(out)]):
        assert run_cli([*args, flag, *values]) == 3, args[0]
        err = capsys.readouterr().err
        assert f"{flag} [{', '.join(values)}]" in err and reason in err, err
    assert not target.exists() and not out.exists()


def test_start_off_the_simplex_exits_3(tmp_path, capsys, tech_run):
    assert_start_rejected(tmp_path, capsys, tech_run, "--z0", ["0.5", "0.6"], "sum to 1.1")


def test_start_with_negative_entry_exits_3(tmp_path, capsys, tech_run):
    assert_start_rejected(tmp_path, capsys, tech_run, "--z0", ["1.2", "-0.2"],
                          "negative component")


def test_start_of_wrong_length_exits_3(tmp_path, capsys, tech_run):
    assert_start_rejected(tmp_path, capsys, tech_run, "--z0", ["0.3", "0.3", "0.4"],
                          "length 2")
    assert_start_rejected(tmp_path, capsys, tech_run, "--pi0", ["0.5", "0.5"], "length 1")


def test_start_within_tolerance_is_accepted(tmp_path, tech_run):
    target = tmp_path / "query.csv"
    assert run_cli(["export", "--run-dir", str(tech_run), "--z0", "0.4", "0.6000000001",
                    "--out-file", str(target)]) == 0
    assert target.read_text().split("\n")[1].split(",")[4] == "0.4"


def test_forward_pass_without_equilibrium_exits_4(tmp_path, capsys, monkeypatch, tech_run):
    """An off-grid re-solve that finds no equilibrium surfaces as exit 4 with
    its stage and public state, from solve and from export."""
    start = ["--z0", "0.37", "0.63"]         # off both lattices
    out, target = tmp_path / "run", tmp_path / "query.csv"
    # The t=1 re-solve is the first sweep after the solve's 2 backward sweeps.
    for args, sweep in (
            (["solve", "--game-file", str(SAMPLE_GAME), "--z-res", "4", "--out", str(out)], 3),
            (["export", "--run-dir", str(tech_run), "--out-file", str(target)], 1)):
        with monkeypatch.context() as patch:
            no_equilibrium_at(patch, 0, sweep=sweep)
            assert run_cli([*args, *start]) == 4, args[0]
        err = capsys.readouterr().err
        assert "forward pass" in err and "t=1" in err and "z=[0.37 0.63]" in err, err
    assert not out.exists() and not target.exists()


def test_backward_pass_without_equilibrium_exits_4(tmp_path, capsys, monkeypatch):
    """A grid point without an equilibrium in the backward pass exits 4 with
    its stage and public state, and writes nothing."""
    no_equilibrium_at(monkeypatch, 2, sweep=2)      # stage 2 of 3, z = (0.5, 0.5)
    out = tmp_path / "run"
    assert run_cli(["solve", "--game-file", str(SAMPLE_GAME), "--horizon", "3",
                    "--z-res", "4", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "no stage equilibrium" in err and "t=2, pi=[1.], z=[0.5 0.5]" in err, err
    assert not out.exists()


def test_stationary_sweep_without_equilibrium_exits_4(tmp_path, capsys, monkeypatch):
    """A grid point without an equilibrium in a stationary solve exits 4,
    naming the sweep in place of a stage, and writes nothing."""
    no_equilibrium_at(monkeypatch, 2, sweep=3)
    out = tmp_path / "run"
    assert run_cli(["solve", "--game", "infection", "--infinite", "--z-res", "5",
                    "--action-res", "3", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "at stationary sweep 3, pi=[1.], z=[0.4 0.6]" in err, err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_values_exit_3(tmp_path, capsys):
    """With every follower reward 1e308, two stages' values overflow: solve
    and oracle --check-solver exit 3 naming the stage and the first grid
    point, and solve writes nothing."""
    game = json.loads(SAMPLE_GAME.read_text())
    game["follower_reward"] = np.full(np.shape(game["follower_reward"]), 1e308).tolist()
    out = tmp_path / "run"
    for args, horizon, t in ((["solve", "--out", str(out)], 3, 2),
                             (["oracle", "--check-solver"], 2, 1)):
        path = tmp_path / f"huge{horizon}.json"
        path.write_text(json.dumps({**game, "horizon": horizon}))
        assert run_cli([*args, "--game-file", str(path), "--z-res", "4"]) == 3, args[0]
        err = capsys.readouterr().err
        assert f"value tables are not finite at t={t}, pi=[1.], z=[0. 1.]" in err, err
    assert not out.exists()


def test_solve_artifact_that_cannot_be_written_exits_3(tmp_path, capsys):
    blocked = tmp_path / "run" / "manifest.json"
    blocked.mkdir(parents=True)
    assert run_cli(["solve", "--game-file", str(SAMPLE_GAME), "--out",
                    str(tmp_path / "run")]) == 3
    assert f"error: cannot write {blocked}: " in capsys.readouterr().err


def test_oracle_out_under_a_file_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli(["oracle", "--game-file", str(SAMPLE_GAME), "--out",
                    str(blocker / "report")]) == 3
    assert f"error: cannot write {blocker / 'report' / 'oracle_report.json'}: " \
        in capsys.readouterr().err


def test_export_out_file_makes_its_directory_or_exits_3(tmp_path, capsys, tech_run):
    """``--out-file`` gets its missing parent directories, as ``solve --out``
    does; a parent that cannot be made exits 3 naming the path."""
    target = tmp_path / "new" / "dir" / "q.csv"
    assert run_cli(["export", "--run-dir", str(tech_run), "--out-file", str(target)]) == 0
    assert target.read_text().startswith("t,branch,weight")
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli(["export", "--run-dir", str(tech_run), "--out-file",
                    str(blocker / "q.csv")]) == 3
    assert f"error: cannot write {blocker / 'q.csv'}: " in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["empty", "text", "truncated"])
def test_export_from_a_damaged_state_exits_3(tmp_path, capsys, tech_run, damage):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    state = (tech_run / "state.npz").read_bytes()
    (run_dir / "state.npz").write_bytes({"empty": b"", "text": b"not a state file\n",
                                         "truncated": state[:len(state) // 2]}[damage])
    assert run_cli(["export", "--run-dir", str(run_dir)]) == 3
    assert "no complete state.npz" in capsys.readouterr().err
    assert not (run_dir / "trajectory_export.csv").exists()


def test_parser_is_built_once_and_parses_each_call_afresh(monkeypatch):
    """Successive calls share one parser: none adds an argument, and an
    appended ``--param`` of one call does not reach the next."""
    run_cli(["validate", "--game", "infection"])
    added, seen = [], []
    monkeypatch.setattr(cli.argparse.ArgumentParser, "add_argument",
                        lambda *args, **kwargs: added.append(args))
    monkeypatch.setattr(cli, "cmd_validate", lambda config: seen.append(config.params) or 0)
    for params in (["--param", "k=0.3", "--param", "q=0.5"], ["--param", "lam=0.1"], []):
        assert run_cli(["validate", "--game", "infection", *params]) == 0
    assert added == []
    assert seen == [{"k": 0.3, "q": 0.5}, {"lam": 0.1}, {}]


def test_seed_must_be_a_nonnegative_integer(tmp_path):
    """A negative seed would fail in numpy after the whole solve; it is a
    usage error before anything runs."""
    out = tmp_path / "run"
    for seed in ("-1", "abc", "1.5"):
        for args in (["solve", "--game", "infection", "--z-res", "3", "--action-res", "3",
                      "--mode", "sampled", "--out", str(out)],
                     ["export", "--run-dir", str(out), "--mode", "sampled"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(args + ["--seed", seed])
            assert exc.value.code == 2, (args[0], seed)
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--game", "tech"], ["--param", "k=0.3"],
                                  ["--action-res", "3"]])
def test_game_file_rejects_builtin_game_flags(tmp_path, flag):
    """--game, --param and --action-res describe a built-in game; with
    --game-file they would be ignored, so the combination is a usage error.
    --horizon overrides a file's horizon and stays allowed."""
    out = tmp_path / "run"
    for base in (["solve", "--game-file", str(SAMPLE_GAME), "--z-res", "4", "--out", str(out)],
                 ["validate", "--game-file", str(SAMPLE_GAME)],
                 ["oracle", "--game-file", str(SAMPLE_GAME), "--out", str(out)]):
        with pytest.raises(SystemExit) as exc:
            run_cli(base + flag)
        assert exc.value.code == 2, base[0]
    assert not out.exists()
    assert run_cli(["validate", "--game-file", str(SAMPLE_GAME), "--horizon", "2"]) == 0


def test_malformed_game_parameters_exit_3(tmp_path, capsys):
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps({"builtin": "tech", "params": {"bogus": 1}}))
    bad_table = tmp_path / "bad_table.json"
    bad_table.write_text(json.dumps(dict(json.loads(SAMPLE_GAME.read_text()), discount=None)))
    for args, field in ((["--game", "tech", "--param", "bogus=3"], "bogus"),
                        (["--game", "tech", "--param", "price_points=abc"], "price_points"),
                        (["--game-file", str(bad_file)], "bogus"),
                        (["--game-file", str(bad_table)], "discount")):
        assert run_cli(["validate", *args]) == 3, args
        assert field in capsys.readouterr().err



def tiny_game_file(tmp_path, **fields):
    """``tiny.json`` with ``fields`` set, or dropped where None, written under ``tmp_path``."""
    game = {**json.loads(SAMPLE_GAME.read_text()), **fields}
    path = tmp_path / "game.json"
    path.write_text(json.dumps({k: v for k, v in game.items() if v is not None}))
    return str(path)


def unloadable_run(tmp_path, run_dir):
    """A run directory whose state is ``run_dir``'s but for a game that no longer loads."""
    with np.load(run_dir / "state.npz") as state:
        arrays = dict(state)
    (tmp_path / "run").mkdir()
    np.savez(tmp_path / "run" / "state.npz", **{**arrays, "config": '{"builtin": "nope"}'})
    return str(tmp_path / "run")


FAILURES = {
    # case: (command line from (tmp_path, tech run), exit code, error-line substrings)
    "validate-directory": (lambda tmp, run: ["validate", "--game-file", str(tmp)],
                           3, ["Is a directory"]),
    "solve-directory": (lambda tmp, run: ["solve", "--game-file", str(tmp),
                                          "--out", str(tmp / "out")], 3, ["Is a directory"]),
    "oracle-directory": (lambda tmp, run: ["oracle", "--game-file", str(tmp)],
                         3, ["Is a directory"]),
    "solve-grid-cap": (lambda tmp, run: ["solve", "--game-file", str(SAMPLE_GAME),
                                         "--z-res", "3000000", "--out", str(tmp / "out")],
                       3, ["3000001 points", "cap 2000000"]),
    "check-solver-grid-cap": (lambda tmp, run: ["oracle", "--game-file", str(SAMPLE_GAME),
                                                "--check-solver", "--z-res", "3000000"],
                              3, ["3000001 points", "cap 2000000"]),
    "missing-field": (lambda tmp, run: ["validate", "--game-file",
                                        tiny_game_file(tmp, follower_states=None)],
                      3, ["lacks required field(s): follower_states"]),
    "initial-point-without-pi": (
        lambda tmp, run: ["oracle", "--game-file",
                          tiny_game_file(tmp, initial_points=[{"z": [0.5, 0.5]}])],
        3, ["initial_points[0] must be an object with pi and z"]),
    "initial-point-short-z": (
        lambda tmp, run: ["oracle", "--game-file", tiny_game_file(tmp, initial_points=[
            {"pi": [1.0], "z": [0.5, 0.5]}, {"pi": [1.0], "z": [1.0]}])],
        3, ["initial_points[1]", "lengths 1 and 2", "got shape (1,)"]),
    "initial-points-not-a-list": (
        lambda tmp, run: ["oracle", "--game-file", tiny_game_file(tmp, initial_points=5)],
        3, ["initial_points must be a list, got 5"]),
    "export-unloadable-game": (lambda tmp, run: ["export", "--run-dir", unloadable_run(tmp, run)],
                               3, ["no longer loads", "unknown builtin game 'nope'"]),
    "check-solver-no-equilibrium": (
        lambda tmp, run: ["oracle", "--game-file", str(SAMPLE_GAME), "--check-solver",
                          "--z-res", "4"],
        4, ["solver failed: ", "t=2, pi=[1.], z=[0. 1.]"]),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failure_exits_with_its_code_and_one_error_line(tmp_path, capsys, monkeypatch,
                                                        tech_run, case):
    """Each failure reaches ``main`` and exits with its code and one
    ``error:`` line naming what failed, never a traceback; nothing is written."""
    command, code, parts = FAILURES[case]
    if case == "check-solver-no-equilibrium":
        no_equilibrium_at(monkeypatch, 0)       # the first sweep solves t=2 of 2
    assert run_cli(command(tmp_path, tech_run)) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(part in err for part in parts), err
    assert not (tmp_path / "out").exists()


def named_class(node):
    """The class an ``except`` clause of ``cli.py`` names."""
    if isinstance(node, ast.Attribute):
        return getattr(named_class(node.value), node.attr)
    return vars(cli)[node.id] if node.id in vars(cli) else getattr(builtins, node.id)


def test_only_main_handles_library_and_io_errors():
    """In ``cli.py`` only ``main`` has ``except`` clauses that catch a library,
    I/O or value error, so every command fails through its one table; the
    argparse type helpers, which turn bad text into usage errors, are exempt."""
    handled = (StackMFGError, OSError, ValueError)
    clauses = []
    for top in ast.parse(Path(cli.__file__).read_text()).body:
        if getattr(top, "name", None) in ("main", "_parse_param", "_at_least"):
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.ExceptHandler):
                continue
            kinds = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type] if node.type else [])
            classes = [named_class(kind) for kind in kinds] or [BaseException]
            if any(issubclass(c, handled) or any(issubclass(h, c) for h in handled)
                   for c in classes):
                clauses.append((getattr(top, "name", None), node.lineno))
    assert clauses == [], clauses
