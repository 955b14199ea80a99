"""Run every workload over several seeds, record the medians, compare records.

    python3 perfbench/trajectory.py record --seeds 1-10 [--label NAME] [--save]
    python3 perfbench/trajectory.py compare BASE_LABEL NEW_LABEL

``record`` runs ``run.py`` once per workload and seed (untraced, for the
run length in BENCHMARK.json) and prints, per end-to-end metric, the
median, the quartiles and the quartile spread as a share of the median
beside the metric's bound, plus the failed-job ratio.  It then makes one
traced run per workload on the first seed and keeps its per-layer
metrics, whose counters repeat exactly for a given seed.  ``--save`` appends
the record, with the Python version, kernel backend, core count and
commit of the runs, to trajectory.jsonl.  ``compare`` prints each
end-to-end metric's change between two saved records, every per-layer
counter that changed on the same seed, and flags records whose
kernel backend, Python version or core count differ, since such a
comparison does not measure a code change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")
ENV_KEYS = ("kernel_backend", "python", "nproc")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(bench, workload, seed, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    meta = next(json.loads(l[5:]) for l in lines if l.startswith("meta "))
    return meta, json.loads(lines[-1])


def _layers(bench, workload, seed):
    _, result = _run(bench, workload, seed, trace=1)
    return {"seed": seed,
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def record(args):
    bench = _bench()
    entry = {"label": args.label, "run_seconds": bench["run_seconds"],
             "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            meta, result = _run(bench, workload, seed)
            runs.append(result)
            for key in ENV_KEYS + ("commit",):
                entry.setdefault(key, meta[key])
                if entry[key] != meta[key]:
                    raise SystemExit(f"{key} changed between runs")
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                flush=True)
        stats = {}
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            stats[spec["name"]] = {"unit": spec["unit"], "median": med, "q1": q1,
                                   "q3": q3, "values": values}
            print(f"  {spec['name']:<14} median {med:.5g} {spec['unit']}  "
                  f"spread {(q3 - q1) / med:.4f} (bound {spec['bound']})")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        stats["failed_ratio"] = {"unit": "ratio", "median": failed / attempted}
        print(f"  {'failed_ratio':<14} {failed / attempted:.5g} ratio "
              f"({failed} of {attempted} jobs)", flush=True)
        stats["layers"] = _layers(bench, workload, _seeds(args.seeds)[0])
        entry["workloads"][workload] = stats
    if args.save:
        with open(TRAJECTORY, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def compare(args):
    with open(TRAJECTORY, encoding="utf-8") as fh:
        entries = {e["label"]: e for e in map(json.loads, fh)}
    base, new = entries[args.base], entries[args.new]
    for key in ENV_KEYS:
        if base.get(key) != new.get(key):
            print(f"WARNING: {key} differs ({base.get(key)} vs {new.get(key)}); "
                  "this comparison does not isolate a code change")
    bounds = {m["name"]: m["bound"] for m in _bench()["end_to_end"]}
    for workload, stats in new["workloads"].items():
        if workload not in base["workloads"]:
            print(f"{workload:<18} not in {args.base}; nothing to compare")
        for name, s in stats.items():
            b = base["workloads"].get(workload, {}).get(name)
            if b is None or name not in bounds:
                continue
            change = s["median"] / b["median"] - 1.0
            print(f"{workload:<18} {name:<14} {b['median']:.5g} -> {s['median']:.5g} "
                  f"{s['unit']} ({change:+.1%}, bound {bounds[name]:.0%})")
        old = base["workloads"].get(workload, {}).get("layers")
        now = stats.get("layers")
        if old and now and old["seed"] == now["seed"]:
            for name, value in now["metrics"].items():
                if not name.endswith(("_s", "_ratio")) and old["metrics"].get(name) != value:
                    print(f"{workload:<18} {name}: {old['metrics'].get(name)} -> {value}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    rec.add_argument("--label", default="local")
    rec.add_argument("--save", action="store_true")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("base")
    cmp_.add_argument("new")
    args = parser.parse_args(argv)
    if args.action == "record":
        record(args)
    else:
        compare(args)


if __name__ == "__main__":
    main()
