#!/usr/bin/env python3
"""Self-test of the benchmark's own code, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that ``BENCHMARK.json`` lists
exactly the metrics and units the code emits, that every workload
prints every end-to-end metric untraced and every per-layer metric
traced (each with its unit and a sample count) and passes its own
correctness checks, that schedules are reproducible from their seed,
and that the command fails without printing a result when the
repository sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SECONDS = {"train_nyc360": 2, "serve_city360": 3, "serve_ragged": 5}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_manifest(manifest: dict) -> None:
    from benchlib import END_TO_END, PER_LAYER
    check(set(manifest) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}, "manifest keys")
    check([w["name"] for w in manifest["workloads"]] == list(SECONDS),
          "workload names")
    check({m["name"]: m["unit"] for m in manifest["end_to_end"]}
          == END_TO_END, "end_to_end names/units differ from the code")
    check({m["name"]: m["unit"] for m in manifest["per_layer"]}
          == PER_LAYER, "per_layer names/units differ from the code")
    for metric in manifest["end_to_end"]:
        check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["bound"] == max(
        m["bound"] for m in manifest["end_to_end"]),
        "setup_s must carry the largest bound")


def check_run(manifest: dict, workload: str, trace: int) -> None:
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", str(SECONDS[workload]),
                     "--trace", str(trace), "--scale", "tiny")
    where = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{where} exited {proc.returncode}:\n"
          f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(lines[-2].startswith("report "), f"{where}: no report line")
    report = json.loads(lines[-2][len("report "):])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{where}: checks failed: {report}")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{where}: attempted/failed {result}")
    expected = manifest["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    check(set(result["metrics"]) == set(units), f"{where}: metric names")
    for name, metric in result["metrics"].items():
        check(set(metric) == {"value", "unit"}, f"{where}: {name} keys")
        check(metric["unit"] == units[name], f"{where}: {name} unit")
        check(isinstance(metric["value"], (int, float))
              and math.isfinite(metric["value"]), f"{where}: {name} value")
        check(name in report["samples"], f"{where}: {name} sample count")
        if not trace:
            check(metric["value"] > 0, f"{where}: {name} is 0")
            check(report["samples"][name] >= 1, f"{where}: {name} samples")
    for key in ("nproc", "blas", "blas_threads", "numpy", "git_commit",
                "seed"):
        check(key in report["provenance"], f"{where}: provenance {key}")
    if trace and workload != "train_nyc360":
        fleet = result["metrics"]
        for name in ("crashes", "retries", "respawns"):
            check(fleet[f"serving.fleet.{name}"]["value"] == 0,
                  f"{where}: fleet {name}")
    print(f"ok  {where}: {len(units)} metrics, "
          f"{result['attempted']} attempted")


def check_schedules() -> None:
    import inputs
    spec = {"workload": "serve_ragged", "seed": 5, "scale": "tiny"}

    def fingerprint(seed):
        return [(round(a.due, 9), a.request.n_regions, str(a.request.dtype),
                 a.request.region_subset)
                for a in inputs.ragged_schedule(spec, seed, 6.0)]

    check(fingerprint(1) == fingerprint(1), "schedule not reproducible")
    check(fingerprint(1) != fingerprint(2), "seed does not vary schedule")
    print("ok  ragged schedule is a function of its seed")


def check_missing_sources() -> None:
    bare = ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, "--workload", "serve_ragged", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "ran without the repository sources")
    check(not proc.stdout.strip(), "printed a result without sources")
    print("ok  fails cleanly without the repository sources")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_manifest(manifest)
    print("ok  BENCHMARK.json matches the metric tables")
    check_schedules()
    check_missing_sources()
    for workload in SECONDS:
        for trace in (0, 1):
            check_run(manifest, workload, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
