"""Benchmark for stackmfg: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload infection-stationary --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one fresh process each

One run builds its inputs from ``--seed``, runs the workload's operation
in a closed loop with one client for ``--seconds`` seconds, sets up again
between operations, and checks every output.  It reports the median
operation and the median set-up of the run.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps each layer's public
functions and reports the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported: every workload is
# single-threaded by design.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse     # noqa: E402
import json         # noqa: E402
import platform     # noqa: E402
import resource     # noqa: E402
import shutil       # noqa: E402
import statistics   # noqa: E402
import subprocess   # noqa: E402
import sys          # noqa: E402
from pathlib import Path   # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 28
WORKLOAD_NAMES = ("infection-stationary", "tech-export", "signal-finite", "crosscheck")


def git_sha(root: Path) -> str:
    """Commit of the checkout, or "unknown" where it is not a git work tree."""
    # The ceiling keeps git from searching the directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def env_stamp() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(ROOT),
        "loadavg_start": list(os.getloadavg()),
    }


def import_program():
    """Import stackmfg from this checkout's src/ only; exit 2 if it is missing."""
    if not (SRC / "stackmfg" / "__init__.py").is_file():
        print(f"error: no stackmfg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import stackmfg
    if Path(stackmfg.__file__).resolve().parent != (SRC / "stackmfg").resolve():
        print(f"error: imported stackmfg from {stackmfg.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args) -> int:
    import_program()
    import workloads

    stamp = env_stamp()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp["loadavg_end"] = list(os.getloadavg())

    latencies = result["latencies_s"]
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": metric(statistics.median(result["setup_s"]), "s"),
            "op_median_s": metric(statistics.median(latencies), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    tracer = result.pop("tracer")
    if tracer is not None:
        (OUT / "traces").mkdir(exist_ok=True)
        tracer.write(OUT / "traces" / f"{tag}.npz")
    record = dict(result, env=stamp, metrics=metrics)
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# workload {args.workload}  seed {args.seed}  trace {int(args.trace)}  "
          f"default seed {DEFAULT_SEED}")
    print("# env " + json.dumps(stamp, sort_keys=True))
    print("# inputs " + json.dumps(result["inputs"], sort_keys=True))
    print("# notes " + json.dumps(result["notes"], sort_keys=True))
    print(f"# operations {len(latencies)}  latency min {min(latencies):.4g} s  "
          f"median {statistics.median(latencies):.4g} s  max {max(latencies):.4g} s  "
          f"checks attempted {result['attempted']}  failed {result['failed']}")
    if result["absent"]:
        print("# absent " + " ".join(result["absent"]))
    for err in result["errors"]:
        print("# error " + err.replace("\n", " | "))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, m in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
