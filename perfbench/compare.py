"""Compare two run records written by perfbench/run.py.

    python3 perfbench/compare.py BASE_RECORD.json NEW_RECORD.json

Prints each metric on both sides and the relative change. The comparison
is invalid, and the exit code 1, when the two records ran different
workloads or trace modes, or on machines that differ in kernel backend or
CPU count: their numbers do not measure the same thing.
"""

import json
import sys

MUST_MATCH = (("workload",), ("trace",), ("environment", "backend"), ("environment", "nproc"))


def compare(base: dict, new: dict) -> tuple[list[str], list[str]]:
    """Rows of the comparison table, and the reasons it is invalid."""
    problems = []
    for path in MUST_MATCH:
        left, right = base, new
        for key in path:
            left, right = left[key], right[key]
        if left != right:
            problems.append(f"{'.'.join(path)} differs: {left} vs {right}")
    rows = []
    for name, entry in base["metrics"].items():
        old = entry["value"]
        value = new["metrics"].get(name, {}).get("value")
        if value is None:
            rows.append(f"{name:32s} {old:14.6g} {'missing':>14s}")
            continue
        change = f"{(value - old) / old:+.1%}" if old else "n/a"
        rows.append(f"{name:32s} {old:14.6g} {value:14.6g} {change:>8s} {entry['unit']}")
    return rows, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    rows, problems = compare(base, new)
    print(f"{'metric':32s} {'base':>14s} {'new':>14s} {'change':>8s}")
    print("\n".join(rows))
    for problem in problems:
        print(f"INVALID comparison: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
