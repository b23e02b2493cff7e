"""cgmkit benchmark: runs one workload's fixed `cgmkit` command sequence in
fresh processes and prints its metrics.

    python3 bench/run.py --workload desk-barycenter --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all            # every gated workload

Run it from the root of a checkout; the program is imported from `src/`.

With `--trace 0`: set-up alone is timed in SETUP_RUNS fresh processes; the
whole sequence runs once in a fresh process; then, until `--seconds` have
passed since the start, a second fresh process re-runs the commands in
turn on the first run's inputs. Each end-to-end metric is the mean over
every run of its command(s); `pipeline_s` is the sum of the per-command
means. Before each command the worker times a fixed reference workload
(`calibrate.py`); every timing metric is scaled by NOMINAL_S over the
run's mean reference time, so that it reads in seconds at a fixed machine
speed and the shared host's changes of speed cancel. With `--trace 1`: one
untraced and one traced run of the sequence, reporting the per-layer
metrics (not scaled).

Outputs are checked after each process, outside the timed region. The last
line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}; spans and a record of each run (with provenance) go to
`.bench_out/`."""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import NOMINAL_S
from tracer import SPAN_NAMES
from workloads import KINDS, SURROGATES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
SETUP_RUNS = 9
RUN_LIMIT_S = 170.0
SPAWN_MARGIN_S = 0.5     # starting a repeat process
SETUP_RESERVE_S = 1.0    # the last third of the set-up runs
MAX_ROUNDS = 50
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# acceptance-suite bounds on |achieved - target|, per constraint kind
RESIDUAL_BOUNDS = {"barycenter": 1e-10, "volume": 1e-9}   # absolute / relative

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "generate_samples_per_s": "samples/s",
    **{f"train_{kind}_s": "s" for kind in KINDS},
    "sample_shapes_per_s": "shapes/s",
    "validate_s": "s",
    "surrogate_s": "s",
    "dataset_mb": "MB",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in SPAN_NAMES
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "stl_io.bytes_written": "bytes",
    "stl_io.bytes_read": "bytes",
    "generative.enforcer_share": "fraction",
    "check.max_residual.generate": "residual",
    "check.max_residual.sample": "residual",
    "trace.overhead_s": "s",
    "failed_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


# ---------------------------------------------------------------------------
# Fresh processes

def _spawn(job, work, tag, limit):
    """Run worker.py on `job` in a fresh process, killed at the monotonic
    time `limit`; return its result."""
    job_path = os.path.join(work, f"{tag}.job.json")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CGM_")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (job["src"], os.environ.get("PYTHONPATH")) if p)
    job = dict(job, result=os.path.join(work, f"{tag}.result.json"),
               t0=time.monotonic())
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    timeout = limit - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           job_path], env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    with open(job["result"]) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Output checks (outside the timed region; plain text parsing, no cgmkit)

def _read_tsv(path):
    with open(path) as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    return rows[0], rows[1:]


def _floats(cell):
    return [float(v) for v in cell.split(",")]


def _manifest_residuals(directory):
    header, rows = _read_tsv(os.path.join(directory, "manifest.tsv"))
    col = {name: i for i, name in enumerate(header)}
    residuals = []
    for row in rows:
        target = _floats(row[col["target"]])
        achieved = _floats(row[col["achieved"]])
        if row[col["constraint"]] == "volume":
            residuals.append(abs(achieved[0] - target[0]) / abs(target[0]))
        else:
            residuals.append(max(abs(a - t) for a, t in zip(achieved, target)))
    return residuals


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def check_step(name, argv, shapes, outcome, bound):
    """(failed, attempted, written shapes, worst residual) for one command.
    One operation is the command itself plus each shape it must emit."""
    attempted = 1 + shapes
    if outcome["rc"] != 0:
        return attempted, attempted, 0, None
    out = _option(argv, "--out")
    ok, written, worst = True, 0, None
    try:
        if shapes:
            residuals = _manifest_residuals(out)
            written = len(residuals)
            worst = max(residuals, default=None)
            bad = sum(not r <= bound for r in residuals[:shapes])
            return bad + max(0, shapes - written), attempted, written, worst
        if name.startswith("train_"):
            ok = os.path.exists(os.path.join(out, f"model_{_option(argv, '--kind')}.cgmt"))
        elif name == "validate":
            _, rows = _read_tsv(os.path.join(out, "metrics.tsv"))
            ok = float(dict(rows)["max_constraint_residual"]) <= bound
        elif name.startswith("surrogate_"):
            _, rows = _read_tsv(os.path.join(out, "errors.tsv"))
            cells = [c for row in rows for c in row[1:] if c != "-"]
            ok = bool(cells) and all(math.isfinite(float(c)) for c in cells)
    except (OSError, KeyError, ValueError, IndexError):
        return attempted, attempted, 0, None
    return (0 if ok else 1), attempted, written, worst


# ---------------------------------------------------------------------------
# Passes

def _write_config(values, path):
    with open(path, "w", newline="\n") as fh:
        for key in sorted(values):
            fh.write(f"{key} = {values[key]}\n")


def _dir_bytes(directory):
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(directory) for f in files)


def run_pass(ctx, tag, steps, trace=False, deadline=None, cpu_offset=0):
    """Run `steps` [(name, argv, shapes, expected seconds)] in one fresh
    process, then check what ran. Adds to the worker's result `samples`,
    one (name, wall seconds, shapes written, worst residual) per command,
    and the failed and attempted operation counts."""
    job = {"src": ctx["src"], "config": ctx["config"], "trace": trace,
           "deadline": deadline, "cpu_offset": cpu_offset,
           "steps": [[n, a, e] for n, a, _, e in steps],
           "spans": os.path.join(OUT_DIR, f"spans-{ctx['name']}-seed{ctx['seed']}.jsonl")}
    result = _spawn(job, ctx["work"], tag, ctx["limit"])
    bound = RESIDUAL_BOUNDS[ctx["values"]["constraint.kind"]]
    failed = attempted = 0
    samples = []
    for outcome in result["steps"]:
        name, argv, shapes, _ = steps[outcome["index"]]
        f, a, written, worst = check_step(name, argv, shapes, outcome, bound)
        failed, attempted = failed + f, attempted + a
        samples.append((name, outcome["wall_s"], written, worst))
        if f:
            print(f"check: {name} failed {f} of {a} operations "
                  f"(rc {outcome['rc']}) {outcome['stderr'].strip()[-300:]}",
                  file=sys.stderr)
    result.update(failed=failed, attempted=attempted, samples=samples)
    return result


def pipeline_steps(ctx, directory, break_step=None):
    """The workload's full sequence with outputs under `directory`.
    `break_step` names a step whose first positional argument is replaced
    by a path that does not exist (a forced failure, for the self-test)."""
    steps = ctx["workload"].steps(ctx["config"], ctx["seed"], directory, ctx["values"])
    return [(n, [a[0], os.path.join(directory, "missing"), *a[2:]]
             if n == break_step else a, s, 0.0) for n, a, s in steps]


def repeat_schedule(steps, walls, budget, directory):
    """Rounds of the steps, each re-run on the first pass's inputs into an
    output directory of its own, while the first pass's wall times fit in
    `budget` seconds. A round runs the commands that read a whole dataset
    (train, validate) once, the surrogates twice and the shortest, noisiest
    ones, which emit shapes (generate, sample), three times."""
    short = [s for s in steps if not s[0].startswith(("train_", "validate"))]
    order = steps + short + [s for s in short if s[2]]
    schedule, used = [], 0.0
    for round_ in range(MAX_ROUNDS):
        count = len(schedule)
        for k, (name, argv, shapes, _) in enumerate(order):
            if used + walls[name] > budget:
                continue
            argv = list(argv)
            argv[argv.index("--out") + 1] = os.path.join(directory, f"{round_}-{k}")
            schedule.append((name, argv, shapes, walls[name]))
            used += walls[name]
        if len(schedule) == count:
            break
    return schedule


def end_to_end(samples, first, setup, speed):
    """Means over every run of each command (the host's speed flips between
    two states within a second, and a median jumps with the share of time
    spent in each, while a mean moves smoothly); `pipeline_s` is the sum of
    the per-command means, a rate is shapes written over the time taken.
    `setup_s` is the median of the set-up processes. Times are multiplied,
    and rates divided, by `speed` (see `calibrate.py`)."""
    walls, written = {}, {}
    for name, wall, shapes, _ in samples:
        walls.setdefault(name, []).append(wall)
        written[name] = written.get(name, 0) + shapes
    mean = {name: statistics.fmean(v) for name, v in walls.items()}
    rate = {name: written[name] / sum(v) for name, v in walls.items()}
    metrics = {"setup_s": statistics.median(setup),
               "pipeline_s": sum(mean.values()),
               "generate_samples_per_s": rate["generate"]}
    if "sample" in mean:
        metrics.update({f"train_{kind}_s": mean[f"train_{kind}"] for kind in KINDS})
        metrics["sample_shapes_per_s"] = rate["sample"]
        metrics["validate_s"] = mean["validate"]
        metrics["surrogate_s"] = sum(mean[f"surrogate_{m}"] for m in SURROGATES)
    metrics = {k: v / speed if k.endswith("_per_s") else v * speed
               for k, v in metrics.items()}
    metrics["dataset_mb"] = first["dataset_bytes"] / 1e6
    metrics["peak_rss_mb"] = first["peak_rss_mb"]
    return metrics


def measure(name, seed, seconds, trace, overrides=None, break_step=None):
    """Run one workload; returns (result JSON object, run record)."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "cgmkit", "cli.py")):
        raise BenchError(f"no cgmkit sources under {src}")
    workload = WORKLOADS[name]
    start = time.monotonic()
    work = os.path.join(WORK_DIR, f"{name}-seed{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    ctx = {"name": name, "workload": workload, "seed": seed, "src": src,
           "work": work, "values": workload.values(overrides),
           "config": os.path.join(work, "workload.cfg"),
           "limit": start + RUN_LIMIT_S}
    _write_config(ctx["values"], ctx["config"])
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "overrides": overrides or {}}
    try:
        if trace:
            passes = [run_pass(ctx, "plain", pipeline_steps(ctx, f"{work}/plain", break_step)),
                      run_pass(ctx, "traced", pipeline_steps(ctx, f"{work}/traced", break_step),
                               trace=True)]
            metrics = layer_metrics(*passes)
        else:
            setup = []

            def time_setup():   # a third of the set-up runs, spread over the run
                setup.extend(_spawn({"src": src, "config": ctx["config"], "steps": []},
                                    work, f"setup{len(setup)}", ctx["limit"])["setup_s"]
                             for _ in range(SETUP_RUNS // 3))

            time_setup()
            steps = pipeline_steps(ctx, f"{work}/first", break_step)
            passes = [run_pass(ctx, "first", steps)]
            passes[0]["dataset_bytes"] = _dir_bytes(f"{work}/first/data")
            time_setup()
            walls = {n: wall for n, wall, _, _ in passes[0]["samples"]}
            deadline = start + seconds - SETUP_RESERVE_S
            schedule = (repeat_schedule(steps, walls,
                                        deadline - time.monotonic() - SPAWN_MARGIN_S,
                                        f"{work}/repeat")
                        if len(walls) == len(steps) else [])
            if schedule:
                passes.append(run_pass(ctx, "repeat", schedule,
                                       deadline=deadline, cpu_offset=1))
            time_setup()
            samples = [s for p in passes for s in p["samples"]]
            refs = [r for p in passes for r in p["reference_s"]]
            speed = NOMINAL_S / statistics.fmean(refs)
            metrics = end_to_end(samples, passes[0], setup, speed)
            record.update(setup_s=setup, samples=samples, reference_s=refs,
                          speed=speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(p["failed"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record.update(provenance=passes[0]["provenance"], result=result,
                  commands=sum(len(p["samples"]) for p in passes))
    return result, record


def layer_metrics(plain, traced):
    metrics = {}
    for name, (calls, self_s) in traced["layers"].items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    metrics.update(traced["counters"])
    metrics["generative.enforcer_share"] = traced["enforcer_share"][0]
    worst = {name: r for name, _, _, r in traced["samples"]}
    for step in ("generate", "sample"):
        if worst.get(step) is not None:
            metrics[f"check.max_residual.{step}"] = worst[step]
    metrics["trace.overhead_s"] = traced["pipeline_s"] - plain["pipeline_s"]
    metrics["failed_frac"] = ((plain["failed"] + traced["failed"])
                              / (plain["attempted"] + traced["attempted"]))
    return metrics


# ---------------------------------------------------------------------------

def _report(name, result, record):
    print(f"workload {name}: seed {record['seed']}, {record['commands']} commands run, "
          f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    if "speed" in record:
        print(f"  machine speed factor = {record['speed']:.4f} (timings are "
              f"scaled by it; mean reference time "
              f"{statistics.fmean(record['reference_s']):.6f} s)")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac = {result['failed'] / result['attempted']:.6g} fraction "
          f"({result['failed']} of {result['attempted']} operations)")
    path = os.path.join(OUT_DIR, f"run-{name}-seed{record['seed']}"
                                 f"-trace{int(record['trace'])}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = ([w.name for w in WORKLOADS.values() if w.gated]
             if args.workload == "all" else [args.workload])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result, record = measure(name, args.seed, args.seconds, bool(args.trace))
            _report(name, result, record)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            combined["metrics"].update(
                {prefix + k: v for k, v in result["metrics"].items()})
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
