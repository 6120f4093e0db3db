"""The four benchmark workloads and the loop that measures them.

Each workload has four parts.  ``__init__`` generates its seeded inputs;
``setup`` builds the game(s) the way ``stackmfg solve`` does before solving
(load or build, ``validate``, ``spec_hash``, grids) and is timed as set-up;
``prepare`` does untimed work the operations need; ``op`` runs one timed
operation and returns an untimed check.  Operations call only
``stackmfg.cli.main`` and public functions, looked up on their modules at
call time so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import stackmfg
import stackmfg.cli
import stackmfg.export
import stackmfg.game
import stackmfg.gamefile
import stackmfg.grids
import stackmfg.reference
import stackmfg.solver

import inputs
import tracing

SETUP_REPS = 8            # at least this many set-ups spread over one measured loop
SETUP_SHARE = 0.1         # cheap set-ups repeat until they fill this share of the loop
MIN_OPS = 3
# Share of a traced run spent on untraced operations, the base of the
# tracing-overhead ratio.
UNTRACED_SHARE = 0.3
LOCKSTEP_TOL = 1e-10        # engine against reference, never loosened
QUERY_TOL = 1e-9            # export query against in-process forward pass
SIMPLEX_TOL = 1e-9


class CheckFailed(Exception):
    """An operation finished but ``count`` of its checks found wrong output."""

    def __init__(self, message, count=1):
        super().__init__(message)
        self.count = count


def cli_call(args):
    """Run ``stackmfg.cli.main`` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = stackmfg.cli.main(args)
        except SystemExit as exc:       # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def require_exit_zero(code, stderr, what):
    if code != 0:
        raise CheckFailed(f"{what} exited {code}: {stderr.strip()[:300]}")


def set_up(config=None, path=None, z_res=10, pi_res=10):
    """Load a game and prepare it as ``stackmfg solve`` does before solving."""
    if path is not None:
        spec = stackmfg.gamefile.load_game_file(path)
    else:
        spec = stackmfg.gamefile.load_game_dict(config)
    report = stackmfg.game.validate(spec, grid_resolution=min(z_res, 25))
    if not report.ok:
        raise CheckFailed(f"generated game failed validation: {report}")
    stackmfg.game.spec_hash(spec)
    build = stackmfg.grids.build_grid
    joint = stackmfg.grids.JointGrid(
        pi_grid=build(spec.n_leader_states, pi_res if spec.n_leader_states > 1 else 1),
        z_grid=build(spec.n_follower_states, z_res))
    return spec, joint


def artifact_digest(run_dir) -> str:
    """sha256 over every file a solve wrote, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(run_dir).iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_simplex(header, rows, prefix):
    cols = [i for i, name in enumerate(header) if name.startswith(prefix)]
    for row in rows:
        vec = np.array([float(row[i]) for i in cols])
        if vec.min() < -SIMPLEX_TOL or abs(vec.sum() - 1.0) > SIMPLEX_TOL:
            raise CheckFailed(f"{prefix} column(s) off the simplex: {vec.tolist()}")


class Workload:
    """Base of the workloads: a work directory, input digests and run notes."""

    name = why = ""

    def __init__(self, work: Path):
        self.work = work
        self.inputs = {}
        self.notes = {}

    def prepare(self):
        """Untimed work the operations need; none by default."""


class SolveJob(Workload):
    """Shared check for workloads whose operation is one ``stackmfg solve``.

    Every rerun of the same configuration must write byte-identical
    artifacts, so each operation's digest is compared with the first one.
    """

    def __init__(self, work: Path):
        super().__init__(work)
        self.digest = None

    def solve(self, args, i):
        out = self.work / f"run{i}"
        code, _, stderr = cli_call(args + ["--out", str(out)])
        return out, code, stderr

    def check_common(self, out, code, stderr):
        require_exit_zero(code, stderr, "stackmfg solve")
        digest = artifact_digest(out)
        if self.digest is None:
            self.digest = digest
            self.notes["artifact_digest"] = digest
        elif digest != self.digest:
            raise CheckFailed(f"artifacts differ between reruns: {digest} != {self.digest}")
        return json.loads((out / "manifest.json").read_text())


class InfectionStationary(SolveJob):
    name = "infection-stationary"
    why = ("stationary infection solve at z-res 10 with 11 prices: the stage "
           "sweep loop does almost all the work and pairs are built once")
    Z_RES = 10
    TOL = 1e-6
    ARGS = ["solve", "--game", "infection", "--infinite", "--z-res", str(Z_RES),
            "--action-res", "11", "--tol", str(TOL), "--steps", "200"]
    CONFIG = {"builtin": "infection", "params": {"subsidy_points": 11}}

    def __init__(self, seed, work):
        super().__init__(work)
        self.z0 = inputs.interior_two_state(np.random.default_rng(seed))
        self.inputs["z0"] = self.z0

    def setup(self):
        set_up(self.CONFIG, z_res=self.Z_RES)

    def op(self, i):
        out, code, stderr = self.solve(self.ARGS + ["--z0", *map(repr, self.z0)], i)

        def check():
            conv = self.check_common(out, code, stderr)["convergence"]
            if not (conv["converged"] and conv["deltas"][-1] < self.TOL):
                raise CheckFailed(f"not converged: last delta {conv['deltas'][-1]}")
            self.notes["sweeps"] = conv["iterations"]
            shutil.rmtree(out)
        return check


class SignalFinite(SolveJob):
    name = "signal-finite"
    why = ("finite game with an informative leader (2 leader, 3 follower types): "
           "Bayes updates, two-factor joint stencils, damped fallback")
    PI_RES, Z_RES = 3, 3

    def __init__(self, seed, work):
        super().__init__(work)
        work.mkdir(parents=True, exist_ok=True)
        self.path = work / "signal.json"
        self.inputs["signal.json"] = inputs.write_json(self.path, inputs.signal_game(seed))
        self.args = ["solve", "--game-file", str(self.path),
                     "--pi-res", str(self.PI_RES), "--z-res", str(self.Z_RES)]

    def setup(self):
        set_up(path=self.path, z_res=self.Z_RES, pi_res=self.PI_RES)

    def op(self, i):
        out, code, stderr = self.solve(self.args, i)

        def check():
            manifest = self.check_common(out, code, stderr)
            lines = (out / "diagnostics.jsonl").read_text().splitlines()
            unsolved = sum(1 for line in lines if json.loads(line).get("unsolved"))
            if unsolved:
                raise CheckFailed(f"{unsolved} unsolved grid points")
            header, rows = read_csv(out / "trajectory.csv")
            check_simplex(header, rows, "z_")
            check_simplex(header, rows, "pi_")
            self.notes["lost_weight"] = manifest["trajectory"]["lost_weight"]
            shutil.rmtree(out)
        return check


class TechExport(Workload):
    name = "tech-export"
    why = ("closed loop of 3-step export queries from off-lattice starts on a "
           "solved tech game: per-point stage set-up does the work, sweeps none")
    Z_RES = 10
    CONFIG = {"builtin": "tech", "params": {"price_points": 41}}
    SOLVE = ["solve", "--game", "tech", "--infinite", "--z-res", str(Z_RES),
             "--action-res", "41"]
    # Every query walks the same number of steps, so its latency
    # distribution has one mode and the median query in a run measures
    # the same work on every seed.
    STEPS = 3
    CHECK_EVERY = 10
    DIGEST_STARTS = 1000

    def __init__(self, seed, work):
        super().__init__(work)
        self.run_dir = work / "tech"
        # Starts are drawn from one seeded stream as the loop needs them, so
        # a faster program runs more queries over the same first starts.
        # The digest covers the first DIGEST_STARTS of them.
        self.rng = np.random.default_rng(seed)
        self.starts = inputs.query_starts(self.rng, self.DIGEST_STARTS)
        self.inputs["starts"] = hashlib.sha256(json.dumps(self.starts).encode()).hexdigest()[:16]
        self.spec = self.generator = None

    def setup(self):
        set_up(self.CONFIG, z_res=self.Z_RES)

    def prepare(self):
        """Solve once through the CLI, keeping the generator for the checks."""
        captured = []
        original = stackmfg.solver.solve_stationary

        def keep(spec, *args, **kwargs):
            result = original(spec, *args, **kwargs)
            captured.append((spec, result[0]))
            return result

        undo = tracing.rebind(original, keep)
        try:
            code, _, stderr = cli_call(self.SOLVE + ["--out", str(self.run_dir)])
        finally:
            tracing.restore(undo)
        require_exit_zero(code, stderr, "stackmfg solve")
        self.spec, self.generator = captured[-1]
        manifest = json.loads((self.run_dir / "manifest.json").read_text())
        self.notes["solve_sweeps"] = manifest["convergence"]["iterations"]

    def op(self, i):
        while i >= len(self.starts):
            self.starts.append(inputs.interior_two_state(self.rng))
        z0, steps = self.starts[i], self.STEPS
        target = self.work / "query.csv"
        code, _, stderr = cli_call([
            "export", "--run-dir", str(self.run_dir), "--z0", *map(repr, z0),
            "--steps", str(steps), "--out-file", str(target)])

        def check():
            require_exit_zero(code, stderr, "stackmfg export")
            header, rows = read_csv(target)
            if len(rows) != steps:
                raise CheckFailed(f"query returned {len(rows)} rows, asked for {steps}")
            check_simplex(header, rows, "z_")
            if i % self.CHECK_EVERY == 0:
                self.compare(target, z0, steps)
        return check

    def compare(self, query_csv, z0, steps):
        """The query's trajectory must match an in-process forward pass."""
        spec = self.spec
        trajectory = stackmfg.solver.forward_pass(
            spec, self.generator, spec.initial_leader_belief, np.asarray(z0),
            steps=steps, offgrid="resolve")
        reference_csv = self.work / "reference.csv"
        stackmfg.export.trajectory_csv(reference_csv, trajectory, spec)
        h1, got = read_csv(query_csv)
        h2, want = read_csv(reference_csv)
        if h1 != h2 or len(got) != len(want):
            raise CheckFailed("query trajectory shape differs from forward_pass")
        drift = max(abs(float(a) - float(b)) for r1, r2 in zip(got, want)
                    for a, b in zip(r1, r2))
        if drift > QUERY_TOL:
            raise CheckFailed(f"query drifts {drift:.3e} from forward_pass")
        self.notes["max_query_drift"] = max(drift, self.notes.get("max_query_drift", 0.0))


class Crosscheck(Workload):
    name = "crosscheck"
    why = ("verification path: engine against the reference recursion on both "
           "built-ins, tiny games against the brute-force oracle")
    HORIZON = 4
    Z_RES = 10
    TINY_GAMES = 8
    TINY_Z_RES = 4
    BUILTINS = ({"builtin": "infection", "params": {"horizon": HORIZON}},
                {"builtin": "tech", "params": {"horizon": HORIZON}})

    def __init__(self, seed, work):
        super().__init__(work)
        work.mkdir(parents=True, exist_ok=True)
        self.paths = []
        rng = np.random.default_rng(seed)
        drawn = 0
        while len(self.paths) < self.TINY_GAMES:
            n_al = 2 + len(self.paths) % 2
            game = inputs.tiny_game(rng, n_al, f"tiny-{seed}-{drawn}")
            drawn += 1
            if self._solves_pure(game):
                path = work / f"tiny{len(self.paths)}.json"
                self.inputs[path.name] = inputs.write_json(path, game)
                self.paths.append(path)
        self.notes["tiny_games_drawn"] = drawn
        self.games = []

    def _solves_pure(self, game) -> bool:
        """Keep a tiny game only if its solve is pure everywhere.

        The oracle enumerates pure profiles, so games that need the damped
        mixed fallback, or have no stage equilibrium, are drawn again.
        """
        spec = stackmfg.gamefile.load_game_dict(game)
        joint = stackmfg.grids.JointGrid(pi_grid=stackmfg.grids.build_grid(1, 1),
                                         z_grid=stackmfg.grids.build_grid(2, self.TINY_Z_RES))
        try:
            generator, _ = stackmfg.solver.backward_pass(spec, joint)
        except stackmfg.NoEquilibriumError:
            return False
        return all(not sol.diagnostics.used_damped_fallback
                   and sol.prescription.pure_actions() is not None
                   for policy in generator.stages for sol in policy.solutions)

    def setup(self):
        self.games = [set_up(cfg, z_res=self.Z_RES) for cfg in self.BUILTINS]
        for path in self.paths:
            set_up(path=path, z_res=self.TINY_Z_RES)

    def op(self, i):
        diffs = []
        for spec, joint in self.games:
            _, tables = stackmfg.solver.backward_pass(spec, joint)
            f_ref, l_ref, _ = stackmfg.reference.backward_finite(spec, joint.z_grid)
            diffs.append(max(
                max(float(np.max(np.abs(tables[t][0].values[0] - f_ref[t].values))),
                    float(np.max(np.abs(tables[t][1].values[0][:, 0]
                                        - l_ref[t].values[:, 0]))))
                for t in range(spec.horizon + 1)))
        oracle_runs = []
        for j, path in enumerate(self.paths):
            out = self.work / f"oracle{j}"
            code, _, stderr = cli_call(["oracle", "--game-file", str(path), "--check-solver",
                                        "--z-res", str(self.TINY_Z_RES), "--out", str(out)])
            oracle_runs.append((path.name, out, code, stderr))

        def check():
            failures = []
            for (spec, _), diff in zip(self.games, diffs):
                if not diff <= LOCKSTEP_TOL:
                    failures.append(f"{spec.name}: engine differs from reference by {diff:.3e}")
            self.notes["max_lockstep_diff"] = max(diffs + [self.notes.get("max_lockstep_diff", 0.0)])
            for name, out, code, stderr in oracle_runs:
                if code != 0:
                    failures.append(f"{name}: stackmfg oracle exited {code}: {stderr.strip()[:200]}")
                    continue
                report = json.loads((out / "oracle_report.json").read_text())
                for entry in report["initial_points"]:
                    if entry["n_smfe"] < 1 or entry.get("solver_profile_in_smfe_set") is not True:
                        failures.append(f"{name}: solver profile not in the oracle's set")
                shutil.rmtree(out)
            if failures:
                raise CheckFailed("; ".join(failures), count=len(failures))
        check.checks = len(self.games) + len(self.paths)
        return check


WORKLOADS = {cls.name: cls for cls in (InfectionStationary, TechExport,
                                       SignalFinite, Crosscheck)}


class Measurement:
    """Latencies and outcomes of the operations of one loop."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record_failure(self, count, message):
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


def timed_setup(workload, tracer=None) -> float:
    if tracer:
        tracer.begin("setup")
    start = perf_counter()
    workload.setup()
    elapsed = perf_counter() - start
    if tracer:
        tracer.end()
    return elapsed


def measure(workload, seconds, setup_times, tracer=None) -> Measurement:
    """Closed loop, one client: run operations until ``seconds`` have passed.

    Between operations a set-up is repeated whenever a ``SETUP_REPS``-th of
    the loop has passed since the last one, or while set-ups have taken
    less than ``SETUP_SHARE`` of the loop so far.  Set-up samples are thus
    spread over the run as the operation samples are, instead of sharing
    one burst of machine noise, and cheap set-ups get many samples.
    """
    m = Measurement()
    now = perf_counter()
    deadline = now + seconds
    interval = seconds / SETUP_REPS
    last_setup = now
    setup_spent = 0.0
    i = 0
    while True:
        if tracer:
            tracer.begin("op")
        start = perf_counter()
        try:
            check = workload.op(i)
        except Exception:
            check = None
            message = traceback.format_exc(limit=3)
        m.latencies.append(perf_counter() - start)
        if tracer:
            tracer.end()
        checks = getattr(check, "checks", 1)
        m.attempted += checks
        if check is None:
            m.record_failure(checks, message)
        else:
            try:
                check()
            except CheckFailed as exc:
                m.record_failure(exc.count, str(exc))
            except Exception:
                m.record_failure(checks, traceback.format_exc(limit=3))
        i += 1
        if perf_counter() >= deadline and len(m.latencies) >= MIN_OPS:
            return m
        now = perf_counter()
        if (now - last_setup >= interval
                or setup_spent < SETUP_SHARE * (now - deadline + seconds)):
            setup_times.append(timed_setup(workload, tracer))
            setup_spent += setup_times[-1]
            last_setup = perf_counter()


def run(name, seed, seconds, trace, work) -> dict:
    """One benchmark run of one workload; returns metrics and run notes."""
    workload = WORKLOADS[name](seed, work)
    tracer = tracing.Tracer() if trace else None
    setup_times = [timed_setup(workload)]
    workload.prepare()
    if tracer:
        # The traced loop starts over at operation 0, so the first operations
        # run both ways and the overhead compares like with like.
        plain = measure(workload, UNTRACED_SHARE * seconds, setup_times)
        tracer.install()
        try:
            traced = measure(workload, (1 - UNTRACED_SHARE) * seconds, setup_times, tracer)
        finally:
            tracer.uninstall()
        overhead = statistics.median(
            t / u for t, u in zip(traced.latencies, plain.latencies))
        runs = (plain, traced)
        metrics = tracer.metrics(overhead)
    else:
        runs = (measure(workload, seconds, setup_times),)
        metrics = None

    return {
        "workload": name,
        "seed": seed,
        "trace": int(bool(trace)),
        "inputs": workload.inputs,
        "notes": workload.notes,
        "setup_s": setup_times,
        "latencies_s": [t for m in runs for t in m.latencies],
        "attempted": sum(m.attempted for m in runs),
        "failed": sum(m.failed for m in runs),
        "errors": [e for m in runs for e in m.errors],
        "per_layer": metrics,
        "absent": tracer.absent if tracer else [],
        "tracer": tracer,
    }
