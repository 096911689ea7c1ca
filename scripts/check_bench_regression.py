#!/usr/bin/env python3
"""Compare a bench JSON against its committed baseline and fail on
higher-is-better regressions.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--max_regression_pct=15]

Every numeric field named `qps`/ending in `_qps` (throughput), plus the
savings bench's `net_savings_transactions` and `net_savings_pct` headline
figures, is compared at the same JSON path in both files; the check fails
when any current value is more than --max_regression_pct below its
baseline. Throughput here is dominated by the simulated market call
latency (--call_latency_us) and net savings by deterministic workload
replay, so both are mostly machine-independent and a generous threshold
separates real regressions (e.g. a serialized hot path, a counterfactual
that stopped pricing) from runner noise. Higher-than-baseline values never
fail: speedups and extra savings are not regressions.
"""

import json
import sys

# Field names whose values are higher-is-better and stable across runners.
HIGHER_IS_BETTER = (
    "net_savings_transactions",
    "net_savings_pct",
    # The advisor must keep finding a configuration that beats the seed on
    # the recorded workload; shrinking savings is a regression.
    "advisor_savings_pct",
)

# Absolute caps, checked on the CURRENT file alone: the warm-restart
# bench's spend-parity divergences are billing promises, not throughput —
# a restart that re-buys already-durable data is a bug at any baseline.
ABSOLUTE_MAX = {
    "clean_restart_divergence_pct": 1.0,
    "crash_restart_divergence_pct": 1.0,
    # Federation failover may re-buy undelivered calls at a next-cheapest
    # endpoint whose page size differs; non-wasted spend must still land
    # within 1% of the fault-free run.
    "failover_divergence_pct": 1.0,
}

# Absolute floors, the MIN siblings of ABSOLUTE_MAX. Advisor correctness
# invariants, not throughput: twin shadow replays must produce
# byte-identical bills, and the seed cell's replay must reproduce the bill
# the recording deployment was actually charged.
ABSOLUTE_MIN = {
    "twin_bills_identical": 1.0,
    "replay_matches_recorded": 1.0,
}


def capped_fields(node, path=""):
    """Yields (json_path, key, value) for every absolutely-bounded field."""
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{path}.{key}" if path else key
            if isinstance(value, (int, float)) and (
                key in ABSOLUTE_MAX or key in ABSOLUTE_MIN
            ):
                yield child, key, float(value)
            else:
                yield from capped_fields(value, child)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from capped_fields(value, f"{path}[{i}]")


def qps_fields(node, path=""):
    """Yields (json_path, value) for every compared field."""
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{path}.{key}" if path else key
            if isinstance(value, (int, float)) and (
                key == "qps" or key.endswith("_qps") or key in HIGHER_IS_BETTER
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
        baseline_doc = json.load(f)
    with open(args[1]) as f:
        current_doc = json.load(f)
    baseline = dict(qps_fields(baseline_doc))
    current = dict(qps_fields(current_doc))

    failed = False
    # Absolute caps first: these gate the current run on its own merits.
    current_caps = {p: (k, v) for p, k, v in capped_fields(current_doc)}
    for path, key, _ in capped_fields(baseline_doc):
        if path not in current_caps:
            print(f"MISSING {path}: capped field absent in current")
            failed = True
    for path, (key, value) in sorted(current_caps.items()):
        if key in ABSOLUTE_MAX:
            cap = ABSOLUTE_MAX[key]
            verdict = "FAIL" if value > cap else "ok"
            print(f"{verdict:4} {path}: {value:.3f} (cap {cap:.1f})")
        else:
            floor = ABSOLUTE_MIN[key]
            verdict = "FAIL" if value < floor else "ok"
            print(f"{verdict:4} {path}: {value:.3f} (floor {floor:.1f})")
        failed = failed or verdict == "FAIL"

    if not baseline and not current_caps:
        sys.stderr.write(f"no compared fields in baseline {args[0]}\n")
        return 2

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
