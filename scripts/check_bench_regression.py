#!/usr/bin/env python3
"""Compare a bench JSON against its committed baseline and fail on
throughput regressions.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--max_regression_pct=15]

Every numeric field named `qps` or ending in `_qps` is compared at the same
JSON path in both files; the check fails when any current value is more
than --max_regression_pct below its baseline. Throughput here is dominated
by the simulated market call latency (--call_latency_us), so it is mostly
machine-independent and a generous threshold separates real regressions
(e.g. a serialized hot path) from runner noise. Higher-than-baseline
values never fail: speedups are not regressions.
"""

import json
import sys


def qps_fields(node, path=""):
    """Yields (json_path, value) for every compared field."""
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{path}.{key}" if path else key
            if isinstance(value, (int, float)) and (
                key == "qps" or key.endswith("_qps")
            ):
                yield child, float(value)
            else:
                yield from qps_fields(value, child)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from qps_fields(value, f"{path}[{i}]")


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        sys.stderr.write(__doc__)
        return 2
    max_regression_pct = 15.0
    for arg in argv[1:]:
        if arg.startswith("--max_regression_pct="):
            max_regression_pct = float(arg.split("=", 1)[1])

    with open(args[0]) as f:
        baseline = dict(qps_fields(json.load(f)))
    with open(args[1]) as f:
        current = dict(qps_fields(json.load(f)))
    if not baseline:
        sys.stderr.write(f"no compared fields in baseline {args[0]}\n")
        return 2

    failed = False
    for path, base in sorted(baseline.items()):
        if base <= 0:
            continue
        if path not in current:
            print(f"MISSING {path}: baseline {base:.1f}, absent in current")
            failed = True
            continue
        now = current[path]
        delta_pct = 100.0 * (base - now) / base
        verdict = "FAIL" if delta_pct > max_regression_pct else "ok"
        print(
            f"{verdict:4} {path}: baseline {base:.1f} -> current {now:.1f} "
            f"({-delta_pct:+.1f}%)"
        )
        failed = failed or verdict == "FAIL"

    if failed:
        sys.stderr.write(
            f"regression beyond {max_regression_pct:.0f}% "
            f"vs {args[0]}\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
