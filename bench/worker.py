"""One fresh benchmark process: set up, then optionally run a command
sequence through `cgmkit.cli.main` in process, with stdout captured.

Usage: python3 bench/worker.py JOB.json

The job names the config, the steps (name, argv, expected seconds), an
optional deadline, whether to trace, and where to write the result. `t0` is
the parent's `time.monotonic()` just before it started this process, so
`setup_s` covers interpreter start, importing `cgmkit.cli`, loading the
config and building base shape, lattice and constraint. The parent pins the
BLAS threads through the environment before numpy loads. Before each
command the worker collects garbage and times the reference workload of
`calibrate.py`, outside the command's own timing."""

import contextlib
import gc
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def _provenance():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _run_step(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:           # a traceback is a failed command too
            traceback.print_exc()
            rc = -1
    wall = time.perf_counter() - start
    return {"rc": rc, "wall_s": wall, "stderr": err.getvalue()[-2000:]}


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    import cgmkit
    from cgmkit import cli
    from cgmkit.config import PipelineConfig
    if os.path.commonpath([os.path.abspath(cgmkit.__file__), job["src"]]) != job["src"]:
        raise SystemExit(f"cgmkit imported from {cgmkit.__file__}, "
                         f"not from {job['src']}")
    config = PipelineConfig.load(job["config"])
    base = config.base_shape()
    config.lattice(base)
    config.constraint(base)
    result = {"setup_s": time.monotonic() - job["t0"]}

    if job["steps"]:
        from calibrate import reference_s   # bench/ is sys.path[0]
        tracer = None
        if job["trace"]:
            from tracer import Tracer   # bench/ is sys.path[0]
            tracer = Tracer()
            tracer.install()
        steps, refs = [], []
        # consecutive commands alternate between the allowed CPUs, so a
        # per-CPU change of speed is shared by every metric
        cpus = sorted(os.sched_getaffinity(0))
        deadline = job.get("deadline")
        start = time.perf_counter()
        for i, (name, argv, expected_s) in enumerate(job["steps"]):
            # a repeat pass skips what no longer fits before its deadline
            if deadline is not None and time.monotonic() + expected_s > deadline:
                continue
            if tracer is not None:
                tracer.command = i
            os.sched_setaffinity(0, {cpus[(i + job["cpu_offset"]) % len(cpus)]})
            # the machine's speed now, measured on a clean heap
            gc.collect()
            refs.append(reference_s())
            steps.append(dict(_run_step(cli, argv), index=i, name=name))
        result["reference_s"] = refs
        result["pipeline_s"] = time.perf_counter() - start
        result["steps"] = steps
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss * 1024 / 1e6)
        result["provenance"] = _provenance()
        if tracer is not None:
            result["layers"] = tracer.totals()
            result["counters"] = tracer.counters
            result["enforcer_share"] = tracer.enforcer_share()
            with open(job["spans"], "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")

    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
