#!/usr/bin/env python3
"""A/B the messaging-path benchmark between two checkouts.

    python3 scripts/perfbench_ab.py PARENT CHANGE --workload W [--seed S] [--pairs N]
                                    [--target-dir DIR]

Builds each checkout's perfbench with that checkout's own
`perfbench/build.py`, into `DIR/parent` and `DIR/change` (default
`CHANGE/.bench_build/ab`), then runs N pairs of plain-mode processes,
alternating which side runs first (the parent in odd pairs). It prints
every run, then each side's raw median and quartiles of `sim_speed`,
`setup_s` and `peak_rss_mb`, the pairs the change won, and whether the
gain rule holds: the change wins at least nine tenths of the pairs and
the medians differ by more than the parent's interquartile range.

The values are raw, unlike `perfbench/run.py`'s, which scales `sim_speed`
and `setup_s` by a host-speed reference process: a raw pair runs both
sides back to back on the same host. Runs are made and checked by the
CHANGE checkout's `perfbench/run.py` (`run_rep`, `check_reps`): each
side's runs must pass its checks against that side's own
`perfbench/expected.json`, and both sides' deterministic outputs must
agree. The script exits 1 when either fails, and 2 when a build fails.
The last line of stdout is one JSON object with the summary.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys

# (metric, better) for the timed and measured end-to-end metrics.
METRICS = [("sim_speed", "higher"), ("setup_s", "lower"), ("peak_rss_mb", "lower")]


def load_run(checkout):
    """The checkout's perfbench/run.py as a module, leaving no bytecode behind."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(checkout, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expected_of(checkout):
    path = os.path.join(checkout, "perfbench", "expected.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def build(checkout, target):
    r = subprocess.run([sys.executable, os.path.join(checkout, "perfbench", "build.py")],
                       capture_output=True, text=True, env={**os.environ, "CARGO_TARGET_DIR": target})
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        print(f"perfbench_ab: build failed in {checkout}", file=sys.stderr)
        sys.exit(2)
    return r.stdout.strip().splitlines()[-1]


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, pairs):
    out = {}
    for name, better in METRICS:
        sign = 1 if better == "higher" else -1
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pq, cq = quartiles(p), quartiles(c)
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        gap = sign * (cq[1] - pq[1])
        iqr = pq[2] - pq[0]
        out[name] = {
            "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "ratio": cq[1] / pq[1],
            "wins": wins,
            "pairs": pairs,
            "gain_rule": wins * 10 >= pairs * 9 and gap > iqr,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--target-dir")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bench = load_run(checkouts["change"])
    target = os.path.abspath(args.target_dir or os.path.join(checkouts["change"], ".bench_build", "ab"))
    binaries = {side: build(path, os.path.join(target, side)) for side, path in checkouts.items()}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            rep = bench.run_rep(binaries[side], args.workload, args.seed, "plain")
            runs[side].append(rep)
            print(f"pair {i + 1} {side}: " + " ".join(f"{m} {rep[m]:.4f}" for m, _ in METRICS), flush=True)
    problems = [f"{side}: {p}" for side, path in checkouts.items()
                for p in bench.check_reps(args.workload, args.seed, runs[side], expected_of(path))]
    outputs = {side: bench.deterministic(runs[side][0]) for side in runs}
    if outputs["parent"] != outputs["change"]:
        diff = sorted(k for k in outputs["parent"] if outputs["parent"][k] != outputs["change"][k])
        problems.append(f"deterministic outputs differ between the sides in {diff}")
    summary = summarize(runs, args.pairs)
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"{name}: parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}] "
              f"change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}] ratio {s['ratio']:.3f} "
              f"won {s['wins']}/{s['pairs']} gain rule {'holds' if s['gain_rule'] else 'not met'}")
    for p in problems:
        print(f"FAIL {p}")
    if not problems:
        same = {k: v for k, v in outputs["parent"].items() if k != "counts"}
        print("outputs checked and identical on both sides: " + json.dumps(same, sort_keys=True))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "correct": not problems,
                      "metrics": summary}, sort_keys=True))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
