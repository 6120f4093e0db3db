"""Measure a baseline: repeated seeded runs of every workload, plus one traced run.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

For each workload this runs ``run.py --trace 0`` once per seed, each in a
fresh process, and reports every end-to-end metric's median, quartiles and
spread (distance between the quartiles over the median) against the bound
in BENCHMARK.json.  One ``--trace 1`` run per workload gives the per-layer
metrics, and the layer shares are checked against the predictions below.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end metric each layer metric should move, on which workload.
LAYER_MAP = {
    "game.tensor_calls, game.tensor_s": "op_median_s on signal-finite and tech-export; "
                                        "not infection-stationary",
    "game.validate_s, game.spec_hash_s": "setup_s on every workload",
    "gamefile.load_s": "setup_s on signal-finite and crosscheck",
    "grids.stencil_calls, grids.stencil_s": "op_median_s on signal-finite and tech-export; "
                                            "barely infection-stationary",
    "dynamics.*": "op_median_s on signal-finite and tech-export",
    "stage.point_solves, stage.self_s, stage.pairs_evaluated, stage.fixed_points, "
    "stage.fixed_point_ratio, stage.ties": "op_median_s on infection-stationary and tech-export",
    "stage.damped_fallbacks": "op_median_s on signal-finite",
    "solver.sweeps, solver.self_s": "op_median_s on infection-stationary",
    "solver.forward_steps, solver.offgrid_resolves, solver.max_branches, "
    "solver.lost_weight, solver.forward_share": "op_median_s on tech-export and signal-finite",
    "reference.sweeps, share.reference": "op_median_s on crosscheck; zero elsewhere",
    "oracle.profiles, oracle.smfe, share.oracle": "op_median_s on crosscheck; zero elsewhere",
    "export.files, export.bytes, export.s": "op_median_s on the solve workloads",
    "cli.self_s": "op_median_s on tech-export (the run reload of every query)",
}


def predictions(layer: dict) -> list:
    """Measured layer shares against what the workload design predicts."""
    def share(workload, *layers):
        return sum(layer[workload][f"share.{name}"]["value"] for name in layers)

    def value(workload, name):
        return layer[workload][name]["value"]

    others = [w for w in layer if w != "crosscheck"]
    checks = [
        ("stage dominates infection-stationary",
         share("infection-stationary", "stage") > 0.5,
         share("infection-stationary", "stage")),
        ("pair building (grids, dynamics, game) is minor on infection-stationary",
         share("infection-stationary", "grids", "dynamics", "game") < 0.2,
         share("infection-stationary", "grids", "dynamics", "game")),
        ("pair building (grids, dynamics, game) dominates signal-finite",
         share("signal-finite", "grids", "dynamics", "game") > 0.5,
         share("signal-finite", "grids", "dynamics", "game")),
        ("signal-finite uses the damped fallback",
         value("signal-finite", "stage.damped_fallbacks") > 0,
         value("signal-finite", "stage.damped_fallbacks")),
        ("tech-export runs no sweeps; stage set-up does the work",
         value("tech-export", "solver.sweeps") == 0
         and share("tech-export", "stage", "grids", "dynamics", "game") > 0.5,
         share("tech-export", "stage", "grids", "dynamics", "game")),
        ("reference and oracle appear only in crosscheck",
         share("crosscheck", "reference") > 0 and share("crosscheck", "oracle") > 0
         and all(share(w, "reference", "oracle") == 0 for w in others),
         share("crosscheck", "reference", "oracle")),
    ]
    return [{"prediction": p, "holds": bool(ok), "measured": m} for p, ok, m in checks]


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    record = json.loads((ROOT / ".perfbench" / "results" / f"{tag}.json").read_text())
    return result, record


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"run_seconds": seconds, "seeds": list(range(args.seeds)),
               "workloads": {}, "layer_metric_map": LAYER_MAP}
    layer = {}
    for name in (w["name"] for w in bench["workloads"]):
        values, failed, attempted, stamps = {}, 0, 0, []
        for seed in summary["seeds"]:
            result, record = run(name, seed, 0, seconds)
            failed += result["failed"]
            attempted += result["attempted"]
            stamps.append(record["env"])
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            print(name, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        stats = {}
        for key, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            stats[key] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[key],
                          "spread_below_third_of_bound": spread < bounds[key] / 3,
                          "values": vals}
            print(f"  {key}: median {statistics.median(vals):.4g}  spread {spread:.3f}  "
                  f"bound {bounds[key]}", flush=True)
        traced, record = run(name, summary["seeds"][0], 1, seconds)
        layer[name] = traced["metrics"]
        summary["workloads"][name] = {
            "attempted": attempted, "failed": failed, "end_to_end": stats,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "absent": record["absent"], "inputs_seed0": record["inputs"],
            "notes_seed0": record["notes"],
            "loadavg": [[s["loadavg_start"][0], s["loadavg_end"][0]] for s in stamps],
        }
        summary["env"] = {k: v for k, v in stamps[0].items() if not k.startswith("loadavg")}
    summary["predictions"] = predictions(layer)
    for p in summary["predictions"]:
        print(f"prediction: {p['prediction']}: {'holds' if p['holds'] else 'FAILS'} "
              f"({p['measured']:.3g})")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
