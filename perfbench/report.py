"""Run every workload untraced and traced, print every metric, record the results.

    python3 perfbench/report.py [--seed 1] [--seconds 60]

For each workload this prints the end-to-end metrics, the error rate (failed
runs over attempted runs), the per-layer metrics, each by name with its unit,
and the stage table of the traced run in the shape of the ROADMAP baseline.
The results file (under ``.perfbench/results/``) records the git SHA, the
Python and numpy versions and the core count; the traced runs' spans and
summaries are kept beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import time

import run
from workloads import ROOT, WORKLOADS

RESULTS = ROOT / ".perfbench" / "results"


def git_sha() -> str:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "data"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        value = f"{m['value']:,}" if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:<{width}}  {value} {m['unit']}")


def print_stages(stages: dict) -> None:
    print("| stage | time |")
    print("| --- | --- |")
    for name, row in stages.items():
        calls = f" x{row['calls']}" if row["calls"] > 1 else ""
        print(f"| `{name.split('.', 1)[1]}`{calls} | {row['incl_s']:.3g} s |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    spec = json.loads(run.BENCHMARK_JSON.read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    run.load_program()
    import numpy

    sha = git_sha()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    outdir = RESULTS / f"{stamp}-{sha[:12]}-seed{args.seed}"
    results = {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name, workload in WORKLOADS.items():
        row = results["workloads"][name] = {}
        for trace in (False, True):
            workdir = outdir / f"{name}-trace{int(trace)}"
            metrics, details = run.run_benchmark(workload, args.seed, args.seconds, trace, workdir)
            shutil.rmtree(workdir / "inputs", ignore_errors=True)
            row["trace" if trace else "untraced"] = {
                "attempted": details["attempted"],
                "failed": details["failed"],
                "failures": details["failures"],
                "setup_s": details["setup_s"],
                "wall_s": [r["wall_s"] for r in details["runs"]],
            }
            if trace:
                row["per_layer"] = run.with_units(metrics, spec["per_layer"])
                row["stages"] = details["summary"]["stages"]
            else:
                row["end_to_end"] = run.with_units(metrics, spec["end_to_end"])
        runs = (row["untraced"], row["trace"])
        row["error_rate"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)

        print(f"\n== {name} (seed {args.seed}, {args.seconds:g} s per run) ==")
        print_metrics("end-to-end:", row["end_to_end"])
        walls, setups = row["untraced"]["wall_s"], row["untraced"]["setup_s"]
        print(f"  (medians of {len(walls)} pipeline runs: "
              f"{', '.join(f'{w:.3f}' for w in walls)} s; of {len(setups)} set-up runs)")
        print(f"  error_rate  {row['error_rate']:.6g} ({sum(r['failed'] for r in runs)} failed "
              f"of {sum(r['attempted'] for r in runs)} attempted, untraced and traced)")
        for r in runs:
            for line in r["failures"]:
                print(f"  failed: {line}")
        print_metrics("per-layer (traced run):", row["per_layer"])
        print_stages(row["stages"])

    path = outdir / "results.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"\nresults: {path}  git {sha}, Python {results['python']}, "
          f"numpy {results['numpy']}, {results['cores']} cores")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
