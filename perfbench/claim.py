"""Compare a parent and a change with the benchmark, by the claim rule.

    python3 perfbench/claim.py --parent ../parent --change . \
        --workload train_mix8 --seed 7919

Both arguments are checkout roots holding the same ``perfbench/``.  Each of
ten pairs runs both sides with identical settings, alternating which runs
first.  Per end-to-end metric it prints each side's median and quartiles and
the share of pairs the change won, then a verdict:

- ``gain``: the change won at least 9 pairs in 10 (ties count for neither)
  and the medians differ by more than the parent's own quartile spread;
- ``regression``: the change's median is worse by more than the metric's
  bound in BENCHMARK.json;
- ``unresolved``: the parent's spread is wider than the bound and not every
  change run beats every parent run;
- ``no regression`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10  # the claim rule's sample: a gain needs 9 wins of these


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Apply the claim rule to paired runs of one metric.  Returns the
    verdict and the number of pairs the change won."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    if wins * 10 >= 9 * len(parent) and sign * (med_c - med_p) > q3 - q1:
        return "gain", wins
    if sign * (med_p - med_c) > bound * med_p:
        return "regression", wins
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > bound * med_p and not every_run_better:
        return "unresolved", wins
    return "no regression", wins


def run(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{root}: benchmark failed (exit {out.returncode})")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run(getattr(args, side), args.workload, args.seed,
                                   bench["run_seconds"]))
    for m in bench["end_to_end"]:
        name = m["name"]
        parent = [r[name] for r in sides["parent"]]
        change = [r[name] for r in sides["change"]]
        result, wins = verdict(parent, change, m["better"], m["bound"])
        pq, cq = quartiles(parent), quartiles(change)
        print(f"{args.workload} {name}: parent {pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}], "
              f"change {cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {m['unit']}, "
              f"change won {wins}/{PAIRS}: {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
