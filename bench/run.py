"""Benchmark of the hypwave laboratory, run from the root of the repository:

    python3 bench/run.py --workload contract|field|blowup --seed N \\
        --seconds S --trace 0|1

Load model: closed loop, one client. The client issues the workload's
wavecli commands in sequence through hypwave.cli.main, in a fresh Python
process that clears the solver caches before each command, so every
command pays what a real wavecli invocation pays. The seed is passed to
every command as --seed; only contract draws random numbers.

Workloads (the configurations are in worker.py):
  contract  wavecli contraction (threshold mode), then wavecli solve at
            eps0/2: PropagatorTable builds and duhamel_field.
  field     wavecli propagate (kernel and FD), then wavecli decay for
            k = 1, 2: the batched spherical-mean quadrature of
            linear_field. Builds no table, calls no duhamel_field.
  blowup    wavecli blowup and wavecli certify for p in {1.5, 2, 2.5}
            and eps in {0.1, 0.5}: pointwise kernel lower bounds, the FD
            stepper, certificate checks. Builds no table, calls no
            linear_field.

Set-up is timed in SETUP_PROBES extra processes that only import, after
one untimed warm-up import. The thread cap goes into each child's
environment at spawn, because numpy is imported before cli.main could
apply WAVECLI_THREADS.

Every timing is in reference seconds (see worker.REF_S): measured seconds
scaled by the speed of a fixed reference kernel timed around the span, so
that the shared host's swings in speed cancel out. The table also shows
the measured seconds.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics:
  setup_s          spawn until numpy, scipy and the seven modules are in
  wall_s           the workload's commands in one pass, without set-up
                   and checks
  cmd1_s, cmd2_s   the pass's first and second command: contraction and
                   solve, propagate and decay, blowup and certify
  peak_rss_mb      maximum resident set of the workload process
  kernel_fd_err    worst kernel-vs-FD rel_err on t + r <= r_max (field:
                   its own diff.csv; the others: an untimed small run)
  table_exact_err  worker.table_exact_err
  ok_frac          share of invocations that exited 0 and passed checks
With --trace 1 it carries the per-layer metrics (tracer.LAYER_METRICS) of a
run whose passes are all traced; its trace.wall_s minus the untraced run's
wall_s is the tracing overhead. Spans go to bench/out/.

A timing is the median over the passes of a run (median_pass); the table
also shows per-invocation medians and the highest percentile with at
least ten samples beyond it, with the sample count.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# one thread: on a few shared cores, more threads measure the scheduler
THREADS = 1
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("WAVECLI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
COMMANDS = {"contract": ("contraction", "solve"),
            "field": ("propagate", "decay"),
            "blowup": ("blowup", "certify")}
# name, unit; the bounds are in BENCHMARK.json
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cmd1_s", "s"),
              ("cmd2_s", "s"), ("peak_rss_mb", "MB"),
              ("kernel_fd_err", "rel"), ("table_exact_err", "rel"),
              ("ok_frac", "ratio"))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: str(THREADS) for var in THREAD_VARS})
    return env


def spawn(args, result, deadline):
    """Run worker.py with args; its standard output goes to our standard
    error, so that our last line stays the result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args,
           "--result", str(result)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: {' '.join(args)} did not finish in time")
    if proc.returncode != 0 or not result.exists():
        sys.exit(f"bench: {' '.join(args)} exited with {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return spawned, json.load(fh)


def tail(samples):
    """(median, label of the highest percentile with at least ten samples
    beyond it, its value, n); the percentile is absent below 11 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return statistics.median(xs), "-", None, n
    k = n - 10
    return statistics.median(xs), f"p{100 * k // n}", xs[k - 1], n


def median_pass(passes, command=None, column=2):
    """Time of a typical pass: for each invocation of the pass (the same
    command and config in every pass), its median over the passes, summed
    over the invocations of command (all of them if None). Per-invocation
    medians keep a burst of host noise in one pass out of the figure.
    column 2 is in reference seconds, column 1 in measured seconds."""
    n = min(len(p["invocations"]) for p in passes)
    return sum(statistics.median(p["invocations"][j][column] for p in passes)
               for j in range(n)
               if command in (None, passes[0]["invocations"][j][0]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "hypwave").is_dir():
        sys.exit(f"bench: no hypwave sources under {ROOT / 'src'}")
    out = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup = []
    for i in range(SETUP_PROBES + 1):
        spawned, res = spawn(["--setup-probe"], out / f"probe{i}.json",
                             deadline)
        if i:  # probe 0 warms the file cache and writes the bytecode
            seconds = res["imported_at"] - spawned
            setup.append((seconds, seconds * res["ref_scale"]))
    _, res = spawn(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", str(out)], out / "result.json", deadline)

    passes = res["passes"]
    attempted = sum(len(p["invocations"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for message in res["failures"]:
        print(f"FAILED {message}", file=sys.stderr)
    cmd1, cmd2 = COMMANDS[args.workload]
    values = {"setup_s": statistics.median(s for _, s in setup),
              "wall_s": median_pass(passes),
              "cmd1_s": median_pass(passes, cmd1),
              "cmd2_s": median_pass(passes, cmd2),
              "peak_rss_mb": res["peak_rss_mb"],
              "kernel_fd_err": res["kernel_fd_err"],
              "table_exact_err": res["table_exact_err"],
              "ok_frac": (attempted - failed) / attempted}
    counts = {"setup_s": len(setup), "wall_s": len(passes),
              "cmd1_s": len(passes), "cmd2_s": len(passes),
              "ok_frac": attempted}
    measured = {"setup_s": statistics.median(s for s, _ in setup),
                "wall_s": median_pass(passes, column=1),
                "cmd1_s": median_pass(passes, cmd1, column=1),
                "cmd2_s": median_pass(passes, cmd2, column=1)}
    labels = {"cmd1_s": f"cmd1_s ({cmd1}_s)", "cmd2_s": f"cmd2_s ({cmd2}_s)"}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  threads {THREADS}  passes {len(passes)}"
          f"  load: closed loop, one client")
    print(f"{'metric':34} {'unit':6} {'median':>12} {'tail':>6} {'':>12} n"
          f"  measured s")
    for name, unit in END_TO_END:
        raw = f"{measured[name]:.6g}" if name in measured else ""
        print(f"{labels.get(name, name):34} {unit:6} {values[name]:12.6g} "
              f"{'-':>6} {'':>12} {counts.get(name, 1)}  {raw}")
    print(f"{'fail_frac':34} {'ratio':6} {failed / attempted:12.6g} "
          f"{'-':>6} {'':>12} {attempted}")
    for command in (cmd1, cmd2):
        xs = [s for p in passes for c, _, s in p["invocations"]
              if c == command]
        med, label, top, n = tail(xs)
        print(f"{'one ' + command + ' invocation':34} {'s':6} {med:12.6g} "
              f"{label:>6} {'' if top is None else f'{top:.6g}':>12} {n}")

    if args.trace:
        metrics = {}
        for name, unit, _, _ in LAYER_METRICS:
            value = (values["wall_s"] if name == "trace.wall_s" else
                     statistics.median(p["layers"][name] for p in passes))
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:38} {unit:6} {value:.6g}")
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": not res["failures"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
