"""One benchmark pass in a fresh interpreter: ``python3 perfbench/child.py JOB T0``.

JOB is a JSON file written by run.py with the command lines, the result path
and the pass kind ("plain", "spans", or "memory" for spans plus tracemalloc
allocation peaks); T0 is the parent's ``time.monotonic()`` just before it
started this process.  The child imports ``qflab.cli`` (set-up, timed from the
parent's timestamp), optionally installs the tracer, then calls
``qflab.cli.main(argv)`` once per command line (work).  It writes its result,
and in a traced pass its spans, as JSON when the pass ends.
"""

import json
import os
import sys
import time
import traceback


def run_command(main, argv) -> int:
    """Exit code of one CLI invocation; a traceback counts as a failure."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the pass must go on and report the failure
        traceback.print_exc()
        return -1


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(job_path: str, spawned_at: float) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    import qflab.cli

    setup_s = time.monotonic() - spawned_at
    tracer = None
    if job["kind"] != "plain":
        import tracemalloc

        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
        if job["kind"] == "memory":
            tracemalloc.start()

    codes = []
    started = time.perf_counter()
    for i, argv in enumerate(job["commands"]):
        if tracer is not None:
            tracer.request = i
        codes.append(run_command(qflab.cli.main, argv))
    work_s = time.perf_counter() - started

    import resource

    result = {
        "setup_s": setup_s,
        "work_s": work_s,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(),
    }
    if tracer is not None:
        tracemalloc.stop()
        result["layers"] = layers.layer_metrics(tracer.spans, tracer.linop_bytes)
        with open(job["spans_path"], "w") as fh:
            json.dump([vars(s) for s in tracer.spans], fh)
    with open(job["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
