"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N [--seed S]

Runs ``python3 fermibench/run.py --workload W --seed S --seconds 40
--trace 0`` (S 1 unless given) in the checkouts PARENT and CHANGE, N
times each, as N pairs: the parent runs first in even pairs and the
change first in odd ones, so drift in the machine's load falls on both
sides alike.  Reads the result line (the last line of standard output)
of every run and, for each end-to-end metric that the change's
``BENCHMARK.json`` lists, prints both sides' median and quartiles, in
how many pairs the change was better, and whether the change's median
stays within the metric's bound: worse than the parent's median by at
most bound times its magnitude.

Exits 1 when a run fails or reports ``correct: false``, or when the two
runs of a pair differ in ``attempted`` or ``failed``; exits 0 otherwise.
Uses the standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed=1):
    """The result object of one benchmark run in checkout."""
    cmd = [sys.executable, "fermibench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "40"]
    done = subprocess.run([*cmd, "--trace", "0"], cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"run in {checkout} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, end_to_end):
    """(lines, ok) for pairs of (parent, change) result objects.

    end_to_end is the "end_to_end" list of BENCHMARK.json.  ok is false
    when a result is not correct or a pair differs in attempted/failed.
    """
    lines, ok = [], True
    for i, (parent, change) in enumerate(pairs):
        for side, res in (("parent", parent), ("change", change)):
            if not res["correct"]:
                lines.append(f"pair {i}: {side} reports correct: false")
                ok = False
        counts = [(res["attempted"], res["failed"]) for res in (parent, change)]
        if counts[0] != counts[1]:
            (pa, pf), (ca, cf) = counts
            lines.append(f"pair {i}: attempted/failed {pa}/{pf} vs {ca}/{cf}")
            ok = False
    lines.append(
        "metric,unit,parent_median,parent_q1,parent_q3,change_median,change_q1,change_q3,change_won,bound,within"
    )
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        values = [[res["metrics"][name]["value"] for res in pair] for pair in pairs]
        p_q1, p_med, p_q3 = _quartiles([p for p, _ in values])
        c_q1, c_med, c_q3 = _quartiles([c for _, c in values])
        won = sum(sign * (c - p) < 0.0 for p, c in values)
        within = sign * (c_med - p_med) <= spec["bound"] * abs(p_med)
        lines.append(
            f"{name},{spec['unit']},{p_med:.4g},{p_q1:.4g},{p_q3:.4g},{c_med:.4g},{c_q1:.4g},{c_q3:.4g},"
            f"{won}/{len(values)},{spec['bound']:g},{'yes' if within else 'NO'}"
        )
    return lines, ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    pairs = []
    try:
        for i in range(args.pairs):
            if i % 2 == 0:
                parent = run_once(args.parent, args.workload, args.seed)
                change = run_once(args.change, args.workload, args.seed)
            else:
                change = run_once(args.change, args.workload, args.seed)
                parent = run_once(args.parent, args.workload, args.seed)
            pairs.append((parent, change))
            print(f"pair {i}: parent {json.dumps(parent)}", file=sys.stderr, flush=True)
            print(f"pair {i}: change {json.dumps(change)}", file=sys.stderr, flush=True)
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    lines, ok = summarize(pairs, end_to_end)
    print(f"workload {args.workload}, {len(pairs)} pairs")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
