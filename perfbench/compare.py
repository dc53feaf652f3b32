#!/usr/bin/env python3
"""Compare two benchmark result files metric by metric.

    python3 perfbench/compare.py .perfbench_work/results/A.json B.json

Result files are written by run.py. Two results are compared only when they
come from the same workload and the same kernel path; otherwise the script
refuses and exits 1.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    a, b = docs
    for key in ("workload", "trace"):
        if a[key] != b[key]:
            print(f"refusing: {key} differs ({a[key]} vs {b[key]})", file=sys.stderr)
            return 1
    if a["env"]["kernel_path"] != b["env"]["kernel_path"]:
        print(f"refusing: kernel paths differ ({a['env']['kernel_path']} vs "
              f"{b['env']['kernel_path']})", file=sys.stderr)
        return 1
    print(f"{'metric':<44} {'A':>12} {'B':>12} {'B/A':>8}")
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        ratio = f"{mb['value'] / ma['value']:.3f}" if ma["value"] else "-"
        print(f"{name:<44} {ma['value']:>12.6g} {mb['value']:>12.6g} {ratio:>8}  {ma['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
