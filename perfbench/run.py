"""qflab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; nothing needs installing.  Each pass starts a
fresh interpreter (child.py) with ``src`` on its import path and as many BLAS
threads as this process may use CPUs.  The child's ``import qflab.cli`` is
set-up; its calls of ``qflab.cli.main(argv)`` for the workload's command lines
(workloads.py) are work.  Passes repeat until S seconds have gone, at least
three of them.  With ``--trace 0`` the run reports the ``end_to_end`` metrics
of BENCHMARK.json.  With ``--trace 1`` it cycles through an untraced pass, a
span-traced pass (layer times and counts) and a pass that also runs
``tracemalloc`` (allocation peaks), and reports the ``per_layer`` metrics
(layers.py).

Every invocation must exit 0 and write a JSON report whose checks pass, and
every pass must reproduce the first pass's reports byte for byte; each
violation is a failed check.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import summary
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170  # a run must end within 180 s, even when a pass hangs


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["NO_COLOR"] = "1"
    return env


def run_pass(root: Path, folder: Path, commands, kind: str, timeout: float) -> dict:
    """One child process over all command lines; failures are recorded, not raised."""
    folder.mkdir(parents=True)
    json_paths = [folder / f"cmd{i}.json" for i in range(len(commands))]
    job = {
        "commands": [argv + ["--json", str(p)] for argv, p in zip(commands, json_paths)],
        "kind": kind,
        "result_path": str(folder / "result.json"),
        "spans_path": str(folder / "spans.json"),
    }
    job_path = folder / "job.json"
    job_path.write_text(json.dumps(job))
    out = {"kind": kind, "codes": [-1] * len(commands)}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path), repr(time.monotonic())],
            cwd=root, env=child_env(root), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
        if proc.stderr:
            sys.stderr.write(proc.stderr[-4000:])
        out.update(json.loads(Path(job["result_path"]).read_text()))
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"pass in {folder} failed: {exc}", file=sys.stderr)
    out["reports"] = [p.read_bytes() if p.is_file() else None for p in json_paths]
    return out


def parse_report(raw: bytes | None) -> dict | None:
    try:
        return json.loads(raw)
    except (TypeError, ValueError):
        return None


def score(workload, passes) -> tuple[int, int, float | None]:
    """(attempted, failed, oracle error) over all passes.

    An invocation that exits nonzero or leaves no parseable report fails all
    its checks (one, if the count is unknown).  Each pass after the first adds
    one reproducibility check per invocation.
    """
    attempted = failed = 0
    oracle = None
    first = passes[0]["reports"]
    for k, p in enumerate(passes):
        docs = [parse_report(raw) for raw in p["reports"]]
        for code, doc, raw, ref in zip(p["codes"], docs, p["reports"], first):
            checks = doc["checks"] if doc else []
            attempted += max(len(checks), 1)
            if code != 0 or doc is None:
                failed += max(len(checks), 1)
            else:
                failed += sum(not c["pass"] for c in checks)
            if k:
                attempted += 1
                failed += raw is None or raw != ref
        if all(docs):
            o = workload.oracle(docs)
            oracle = o.error if oracle is None else oracle
            if o.tolerance is not None:
                attempted += 1
                failed += not o.error <= o.tolerance
    return attempted, failed, oracle


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    commands = workload.commands(seed)
    compileall.compile_dir(str(root / "src" / "qflab"), quiet=1)
    work = root / ".perfbench" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)

    kinds = ("plain", "spans", "memory") if trace else ("plain",)
    passes = []
    started = time.monotonic()
    while len(passes) < 3 or time.monotonic() < started + seconds:
        kind = kinds[len(passes) % len(kinds)]
        timeout = started + RUN_LIMIT_S - time.monotonic()
        if timeout <= 0:
            break
        passes.append(run_pass(root, work / f"pass{len(passes)}", commands, kind, timeout))

    attempted, failed, oracle = score(workload, passes)
    done = [p for p in passes if "work_s" in p]
    plain = [p for p in done if p["kind"] == "plain"]
    samples, metrics = {}, {}
    if plain:
        samples = {"wall_s": summary([p["work_s"] for p in plain]),
                   "setup_s": summary([p["setup_s"] for p in plain])}
        metrics = {k: s["median"] for k, s in samples.items()}
        # the largest child's: a single child's figure is bimodal on spectrum
        # (about 571 or 600 MB, however the allocator happened to reuse memory)
        metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in plain)
    metrics["check_pass_frac"] = 1.0 - failed / attempted
    if oracle is not None:
        metrics["oracle_err"] = oracle
    # allocation peaks come from tracemalloc passes, everything else from
    # span-only passes, whose work time also gives the tracing overhead
    spans = [p for p in done if p["kind"] == "spans"]
    memory = [p for p in done if p["kind"] == "memory"]
    if spans and memory and plain:
        for key in spans[0]["layers"]:
            source = memory if key.endswith("peak_alloc_mb") else spans
            metrics[key] = statistics.median(p["layers"][key] for p in source)
        metrics["cli.trace_overhead_frac"] = (
            statistics.median(p["work_s"] for p in spans) / metrics["wall_s"] - 1.0)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "env": done[0]["env"] if done else {},
    }


def repo_root() -> Path | None:
    """The working directory when it holds the qflab sources, else None (with a message)."""
    root = Path.cwd()
    if (root / "src" / "qflab" / "cli.py").is_file():
        return root
    print("error: run from the qflab repository root (src/qflab/cli.py not found)", file=sys.stderr)
    return None


def metric_specs(root: Path, trace: bool) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = repo_root()
    if root is None:
        return 2
    specs = metric_specs(root, bool(args.trace))
    result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    missing = [s["name"] for s in specs if s["name"] not in result["metrics"]]
    if missing:
        print(f"error: no complete pass, metrics missing: {missing}", file=sys.stderr)
        return 1

    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    for name, s in result["samples"].items():
        print(f"{name}: median {s['median']:.6g} over {s['samples']} samples "
              f"(quartiles {s['q1']:.6g} .. {s['q3']:.6g})")
    metrics = {s["name"]: {"value": result["metrics"][s["name"]], "unit": s["unit"]} for s in specs}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
