"""Print every benchmark metric of every workload by name, with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--json PATH]

Run from the repository root.  Each workload runs once untraced (the
``end_to_end`` metrics, with their sample counts) and once traced (the
``per_layer`` metrics), exactly as run.py does.  ``--json`` also writes the
figures to PATH, in the layout of the trajectory points in baseline.json.
"""

import argparse
import json
import sys
from pathlib import Path

from run import measure, metric_specs, repo_root
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    root = repo_root()
    if root is None:
        return 2
    point = {"seed": args.seed, "seconds": args.seconds, "end_to_end": {}, "per_layer": {}}
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(root, name, args.seed, args.seconds, trace)
            figures = point[section].setdefault(name, {})
            figures["correct"] = result["correct"]
            for spec in metric_specs(root, trace):
                value = result["metrics"].get(spec["name"])
                figures[spec["name"]] = value
                samples = result["samples"].get(spec["name"], {}).get("samples")
                shown = "missing" if value is None else f"{value:.6g}"
                note = f"  ({samples} samples)" if samples else ""
                print(f"{name:9} {spec['name']:30} {shown:>14} {spec['unit']}{note}")
            point["environment"] = result["env"]
    if args.json:
        Path(args.json).write_text(json.dumps(point, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
