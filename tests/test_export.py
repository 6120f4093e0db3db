"""Artifact writers: formatting and table serialization."""

import numpy as np

import stackmfg as s
from conftest import signal_family_spec, toy_joint_grid
from stackmfg import export, stage


def test_fmt_twelve_significant_digits():
    assert export.fmt(1 / 3) == "0.333333333333"
    assert export.fmt(1.0) == "1"
    assert export.fmt(-2.5e-13) == "-2.5e-13"


def test_json_ready_types():
    payload = export.json_ready({
        "flag": np.bool_(True),
        "count": np.int64(4),
        "value": np.float64(1 / 3),
        "arr": np.array([1.0, 2.0]),
    })
    assert payload["flag"] is True
    assert payload["count"] == 4
    assert payload["value"] == 0.333333333333
    assert payload["arr"] == [1.0, 2.0]


def test_solves_and_state_round_trip_build_no_per_point_objects(tmp_path, monkeypatch):
    """A solved stage stays in array form: solving, writing and reloading it
    and writing its policy construct no StageSolution or StageDiagnostics;
    they are built on demand."""
    built = []

    def counting(cls):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)
        return wrapped

    for cls in (stage.StageSolution, stage.StageDiagnostics):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    signal = signal_family_spec()
    finite, _ = s.backward_pass(signal, toy_joint_grid(signal, z_res=2, pi_res=2))
    infection = s.build_infection_game(s.InfectionParams(subsidy_points=3))
    stationary, _, _ = s.solve_stationary(infection, toy_joint_grid(infection, z_res=4))
    for gen, spec in ((finite, signal), (stationary, infection)):
        export.write_state(tmp_path / "state.npz", gen, {}, s.SolverConfig())
        _, loaded, _ = export.read_state(tmp_path / "state.npz")
        export.policy_csv(tmp_path / "policy.csv", loaded, spec)
    assert built == []
    # the finite solve went through the mixed check
    assert any(sol.diagnostics.used_damped_fallback
               for sweep in finite.stages for sol in sweep.solutions)
    built.clear()
    sol = loaded.stages[0].solution(0)
    assert np.array_equal(sol.prescription.leader, stationary.stages[0].leader[0])
    assert sorted(built) == ["StageDiagnostics", "StageSolution"]
