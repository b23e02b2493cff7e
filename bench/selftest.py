"""Self-test of the benchmark, run from the root of a checkout:

    python3 bench/selftest.py

- BENCHMARK.json names exactly the gated workloads and the metrics (with
  units) that run.py reports;
- a small smoke run of every workload reports every end-to-end metric, and
  a traced one every per-layer metric, with no failed operation;
- a forced failure (`sample` on a checkpoint that does not exist) is
  counted: the command, each of the shapes it owed, and `validate`;
- without `src/`, run.py exits nonzero and prints no result."""

import json
import os
import shutil
import subprocess
import sys

import run
from workloads import SAMPLE_N, WORKLOADS

# desk shapes, fewer samples and epochs: a pass takes seconds
SMOKE = {"gm.epochs": "2", "dataset.n_train": "20", "dataset.n_test": "5"}


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def check_spec():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    gated = [w.name for w in WORKLOADS.values() if w.gated]
    check([w["name"] for w in spec["workloads"]] == gated,
          f"BENCHMARK.json workloads are {gated}")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        check(listed == table, f"BENCHMARK.json {key}: {len(table)} metrics, "
                               "names and units as run.py reports them")
    return gated


def check_smoke(name, trace, expected):
    result, _ = run.measure(name, 0, 0, trace, overrides=SMOKE)
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    missing = {k for k in expected if units.get(k) != expected[k]}
    check(not missing, f"{name} trace={int(trace)}: every metric with its unit"
                       + (f" (missing {sorted(missing)})" if missing else ""))
    check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
          f"{name} trace={int(trace)}: failed_frac = 0 "
          f"of {result['attempted']} operations")


def check_forced_failure():
    result, _ = run.measure("desk-barycenter", 0, 0, False, overrides=SMOKE,
                            break_step="sample")
    # the command, each shape it owed, and validate, which reads them
    expected = 1 + SAMPLE_N + 1
    check(not result["correct"] and result["failed"] == expected,
          f"sample on a missing checkpoint counts {expected} failed "
          f"operations (got {result['failed']} of {result['attempted']})")


def check_without_sources():
    bare = os.path.join(run.WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                               "desk-barycenter", "--seconds", "1"], cwd=bare,
                              capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"without src/ run.py exits {proc.returncode} and prints no result")


def main():
    gated = check_spec()
    for name in gated:
        check_smoke(name, False, run.END_TO_END)
        check_smoke(name, True, run.PER_LAYER)
    for name in WORKLOADS.keys() - set(gated):
        check_smoke(name, False, {"setup_s": "s", "pipeline_s": "s",
                                  "generate_samples_per_s": "samples/s"})
    check_forced_failure()
    check_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
