"""End-to-end benchmark of the toricpke command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-catalog --seed 1 --seconds 35 --trace 0

The program is imported from the checkout's ``src/``; the run fails
(exit 2, no result) when that tree is missing.  Each job calls
``toricpke.cli.main(argv)`` in-process with its output captured: one
client, one job at a time, no threads (a closed loop).  A pass runs the
workload's fixed job set once; passes repeat until ``--seconds`` would be
exceeded, with at least two.  Input files are written under
``.bench_work/`` in the checkout and removed at exit.

``--trace 0`` prints the end-to-end metrics: median wall and process-CPU
seconds per pass, the median set-up time of fresh interpreters started
between the passes (import of ``toricpke.cli`` plus input generation),
and the peak RSS of the measuring process.  ``--trace 1`` spends half the time in a separate
traced process (see tracing.py), between two quarters of untraced passes
here, and prints the per-layer metrics, each the median over traced
passes of a per-pass value.  Answers are checked after all passes, against expectations and
the sympy oracle, never inside a timed region.  The last line of stdout
is the JSON result; a wrong answer makes the exit code 1.

Workloads (see workloads.py for the job sets):

* verify-catalog: accept path, large products, P**n and the compare.
* refute-perturbed: the same layers on perturbed candidates whose answer
  is "no", plus one job whose constant term is not +-1.
* n2-classify: scan-k then search-n2; the n=2 continuation and Bareiss
  route on small two-variable products.
* einstein-fit: numeric Einstein fits; geometry and evaluate, no product.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import tracing  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
SETUP_PROBES = 3  # before the first pass; two more follow each pass


def run_job(cli, argv):
    """Run one CLI invocation; return (exit code, stdout, error or None)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except Exception as exc:  # an escaping exception is a failed job
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), None


def run_passes(cli, jobs, budget, min_passes, tracer=None, after_pass=None):
    """Repeat the job set until the next pass would overrun budget seconds.

    Returns one record per pass: wall and CPU seconds, report bytes, the
    job summaries and, when traced, the per-layer metrics.  after_pass is
    called between passes, outside the timed region.
    """
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        w0, c0 = time.perf_counter(), time.process_time()
        results = [run_job(cli, job["argv"]) for job in jobs]
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        record = {
            "wall": wall,
            "cpu": cpu,
            "report_bytes": sum(len(r[1].encode()) for r in results),
            "summaries": [verdicts.summarize(j, *r) for j, r in zip(jobs, results)],
        }
        del results
        if tracer is not None:
            record["layers"] = tracing.layer_metrics(tracer.aggregate())
            tracer.reset()
        passes.append(record)
        if after_pass is not None:
            after_pass()
        walls = [p["wall"] for p in passes]
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + statistics.median(walls) > budget:
            return passes


def _import_cli():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return importlib.import_module("toricpke.cli")


def _self_cmd(role, args, workdir, seconds=None):
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    return cmd


def _last_line(proc) -> str:
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return lines[-1]


def probe_setup(args) -> int:
    """Child: time import of toricpke.cli plus input generation."""
    t0 = time.perf_counter()
    _import_cli()
    workloads.generate(args.workload, args.seed, args.workdir)
    print(repr(time.perf_counter() - t0))
    return 0


def probe_setup_times(args, workdir, count, times):
    """Append the set-up times of count fresh interpreters to times."""
    for _ in range(count):
        probe_dir = os.path.join(workdir, f"probe-{len(times)}")
        proc = subprocess.run(_self_cmd("probe", args, probe_dir),
                              capture_output=True, text=True, timeout=60)
        times.append(float(_last_line(proc)))
        shutil.rmtree(probe_dir, ignore_errors=True)


def traced_child(args) -> int:
    """Child: run traced passes over the parent's jobs, print the records."""
    with open(os.path.join(args.workdir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    cli = _import_cli()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes = run_passes(cli, jobs, args.seconds, 1, tracer)
    finally:
        tracer.restore()
    print(json.dumps({"passes": passes}))
    return 0


def _commit() -> str:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def _judge(jobs, passes):
    """Return (attempted, failed, wrong, problems) over all passes."""
    import oracle

    judge = verdicts.Judge(oracle)
    attempted = failed = wrong = 0
    problems = {}
    for record in passes:
        for job, summary in zip(jobs, record["summaries"]):
            attempted += 1
            outcome, reason = judge(job, summary)
            if outcome != verdicts.OK:
                failed += 1
                wrong += outcome == verdicts.WRONG
                key = (job["label"], outcome, reason)
                problems[key] = problems.get(key, 0) + 1
    return attempted, failed, wrong, problems


def _timed(args, cli, jobs, workdir, meta):
    """Untraced passes; return (passes, end-to-end metrics, units)."""
    # set-up probes are spread between the passes, so that they sample the
    # machine's speed over the whole run as the passes do
    setup = []
    probe_setup_times(args, workdir, SETUP_PROBES, setup)
    passes = run_passes(cli, jobs, args.seconds, MIN_PASSES,
                        after_pass=lambda: probe_setup_times(args, workdir, 2, setup))
    meta["passes"], meta["setup_probes"] = len(passes), len(setup)
    metrics = {
        "batch_s": statistics.median(p["wall"] for p in passes),
        "batch_cpu_s": statistics.median(p["cpu"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"batch_s": "s", "batch_cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
    return passes, metrics, units


def _traced(args, cli, jobs, workdir, meta):
    """Traced passes in a child process, between two quarters of untraced
    passes here, so that a slow drift of the machine's speed biases the
    overhead ratio less; return (all passes, per-layer metrics, units)."""
    passes = run_passes(cli, jobs, args.seconds / 4, 1)
    child_dir = os.path.join(workdir, "traced")
    os.makedirs(child_dir)
    with open(os.path.join(child_dir, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    proc = subprocess.run(_self_cmd("traced", args, child_dir, args.seconds / 2),
                          capture_output=True, text=True, timeout=2 * args.seconds + 60)
    traced = json.loads(_last_line(proc))["passes"]
    passes += run_passes(cli, jobs, args.seconds / 4, 1)
    meta["passes"], meta["traced_passes"] = len(passes), len(traced)
    # median_low keeps counters whole when the pass count is even
    metrics = {
        name: statistics.median_low(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    metrics["cli.report_bytes"] = statistics.median_low(p["report_bytes"] for p in traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in passes) - 1.0)
    units = {name: unit for name, unit, _ in tracing.per_layer_specs()}
    return passes + traced, metrics, units


def measure(args, workdir):
    """Run the workload; return (result dict, meta dict)."""
    cli = _import_cli()
    jobs = workloads.generate(args.workload, args.seed, os.path.join(workdir, "inputs"))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs_per_pass": len(jobs),
        "python": platform.python_version(),
        "kernel_backend": importlib.import_module("toricpke").KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }
    passes, metrics, units = (_traced if args.trace else _timed)(args, cli, jobs, workdir, meta)
    attempted, failed, wrong, problems = _judge(jobs, passes)
    for (label, outcome, reason), count in sorted(problems.items()):
        print(f"{outcome}: {label} x{count}: {reason}", file=sys.stderr)
    if args.trace:
        metrics["cli.failed_ratio"] = failed / attempted
    meta["failed_ratio"] = failed / attempted
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, meta


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "probe", "traced"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "toricpke", "cli.py")):
        print(f"error: no toricpke sources under {SRC}", file=sys.stderr)
        return 2
    if args.role == "probe":
        return probe_setup(args)
    if args.role == "traced":
        return traced_child(args)
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base)
    try:
        result, meta = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':<40} {meta['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
