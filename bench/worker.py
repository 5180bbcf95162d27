"""Child process of the benchmark: one fresh interpreter per run.

    worker.py --setup-probe --result FILE
    worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR --result FILE

A setup probe imports numpy, scipy and the seven hypwave modules and
writes the CLOCK_MONOTONIC time at which that finished, which the parent
subtracts from its own time at spawn, and the speed of the reference
kernel (see REF_S) just after. A workload run repeats passes of the
workload's wavecli commands through hypwave.cli.main until the next pass
would end after --seconds (at least MIN_PASSES, so that every run
compares same-seed CSVs byte for byte and takes medians), checks every
output outside the timed region, and writes what it measured as JSON.

The thread cap must already be in the environment: the parent sets it,
because numpy is imported here before cli.main could apply it.
"""

import argparse
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

# setup_s covers exactly these imports: numpy, scipy and the seven layers
import numpy
import scipy  # noqa: F401
from hypwave import (blowlab, cli, fdoracle, globalsolver, hypgeo,  # noqa: F401
                     meanprop, nonlin)

IMPORTED_AT = time.monotonic()

from tracer import Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
KERNEL_FD_TOL = 5e-3
TABLE_EXACT_TOL = 1e-3
SLOPE_RANGE = (-0.55, -0.45)

# Host speed. The shared host this benchmark was defined on changes speed
# by up to 2x, for seconds to minutes at a time, for numpy and interpreted
# code alike, so plain seconds measure the host as much as the program.
# A fixed reference kernel that does not touch hypwave is therefore timed
# before and after every timed span and every SAMPLE_S seconds within it,
# and a timing is reported in reference seconds: measured seconds, less
# the samples' own time, times REF_S over the kernel's mean time in the
# span. That is seconds on a host where the kernel takes REF_S.
REF_S = 0.0025
REF_REPEATS = 3
SAMPLE_S = 0.25
_REF_X = numpy.linspace(0.1, 2.0, 25_000)
# preallocated, so that the kernel's time does not depend on the state
# of the allocator the workload leaves behind
_REF_A = numpy.empty_like(_REF_X)
_REF_B = numpy.empty_like(_REF_X)
_REF_SMALL = [numpy.linspace(0.1, 1.0, 50) + k for k in range(20)]

# contract: the contraction-regime pipeline, at the README spacing with a
# quarter of its lags and half its radius (41 x 81), so that a run holds
# five or more passes. target_ratio = 0.9 keeps the threshold bisection on
# the envelope edge (ball radius 2 eps N_h = 1/A) for every seed tried
# (0..19 here, 0..199 on the 41 x 161 grid), so a run's work and epsilon0
# do not depend on its seed; at the default 0.5 some seeds stop below the
# edge after more Duhamel work.
CONTRACT_GRID = {"t_max": 2.0, "r_max": 4.0, "dt": 0.05, "dr": 0.05}
CONTRACT_SOLVER = {"p": 3.5, "h": 1.2}
CONTRACT_NONLIN = {"kind": "canonical_sinh_inverse"}
CONTRACTION = {"mode": "threshold", "n_pairs": 20, "n_steps": 20,
               "target_ratio": 0.9}
# field: the linear kernel-vs-FD and dispersive-decay path, on grids
# small enough that a run holds five or more passes
PROPAGATE_GRID = {"t_max": 2.0, "r_max": 8.0, "dt": 0.04, "dr": 0.05}
DECAY_GRID = {"t_max": 6.0, "r_max": 6.0, "dt": 0.2, "dr": 0.2}
DECAY_KS = (1.0, 2.0)
# the kernel-vs-FD check of the workloads that do not propagate themselves
CHECK_GRID = {"t_max": 2.0, "r_max": 4.0, "dt": 0.04, "dr": 0.05}
# blowup: the subcritical certificate pipeline
BLOWUP_PS = (1.5, 2.0, 2.5)
BLOWUP_EPSILONS = (0.1, 0.5)
ESCAPE = {"t_max": 40.0, "dr": 0.01, "dt": 0.008}
CERTIFY = {"t_max": 4.0, "r_max": 9.0, "dr": 0.01, "dt": 0.008,
           "snapshot_every": 5}


def reference_seconds():
    """Median time of REF_REPEATS runs of the reference kernel. Its three
    parts take about equal time and stand for the three kinds of work in
    the workloads: numpy transcendentals over a whole array, many numpy
    calls on short arrays, and interpreted scalar code. The host's swings
    move these kinds of work by different amounts."""
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        for _ in range(5):
            numpy.cosh(_REF_X, out=_REF_A)
            numpy.sinh(_REF_X, out=_REF_B)
            numpy.subtract(_REF_A, _REF_B, out=_REF_A)
            numpy.sqrt(_REF_A, out=_REF_A).sum()
        for _ in range(10):
            for a in _REF_SMALL:
                (numpy.exp(a) * a).sum()
        acc = 0.0
        for i in range(5000):
            acc += math.sqrt(math.cosh(i * 1e-3))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Context manager around one timed span. On exit, seconds is the
    span's measured time without the samples and ref_seconds the same in
    reference seconds. The samples within the span are taken by a SIGALRM
    handler, which Python runs between bytecodes of the main thread."""

    def __enter__(self):
        self.samples = [reference_seconds()]
        self.sampling_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self.start = time.perf_counter()
        return self

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.sampling_s += time.perf_counter() - start

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.seconds = time.perf_counter() - self.start - self.sampling_s
        self.samples.append(reference_seconds())
        self.ref_seconds = self.seconds * REF_S / statistics.fmean(self.samples)
        return False


def describe(config):
    return "; ".join(f"{sec}.{key}={val}" for sec, body in config.items()
                     for key, val in body.items())


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()]
    return [dict(zip(header, row)) for row in rows]


def digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def kernel_fd_err(diff_csv, r_max):
    """Worst rel_err of diff.csv where t + r <= r_max, the region the
    Dirichlet wall at r_max cannot reach."""
    return max(float(row["rel_err"]) for row in read_csv(diff_csv)
               if float(row["t"]) + float(row["r"]) <= r_max + 1e-9)


class Invocation:
    """One timed wavecli command and the verdict of its output check."""

    def __init__(self, workload, command, config, out, seed, tracer):
        self.workload = workload
        self.command = command
        self.config = config
        self.out = out
        self.errors = []
        out.mkdir(parents=True)
        ini = out.parent / f"{out.name}.ini"
        ini.write_text("".join(
            f"[{sec}]\n" + "".join(f"{k} = {v!r}\n" if isinstance(v, float)
                                   else f"{k} = {v}\n" for k, v in body.items())
            for sec, body in config.items()), encoding="utf-8")
        argv = [command, "--config", str(ini), "--out", str(out),
                "--seed", str(seed)]
        globalsolver.clear_caches()
        if tracer is not None:
            tracer.request += 1
        with HostSpeed() as span:
            try:
                self.rc = cli.main(argv)
            except Exception:  # a crash is a failed invocation, not a dead run
                self.rc = None
                self.fail("raised\n" + traceback.format_exc())
        self.seconds = span.seconds
        self.ref_seconds = span.ref_seconds
        if self.rc not in (0, None):
            self.fail(f"exit code {self.rc}")
        self.digest = digest(out)
        self.csv_bytes = sum(p.stat().st_size for p in out.iterdir())

    def fail(self, message):
        self.errors.append(f"{self.workload}: {self.command} "
                           f"[{describe(self.config)}]: {message}")

    def check(self, ok, message):
        if not ok:
            self.fail(message)


def pass_contract(run, out, seed, tracer, ref):
    cfg = {"grid": CONTRACT_GRID, "solver": CONTRACT_SOLVER,
           "nonlinearity": CONTRACT_NONLIN, "contraction": CONTRACTION}
    inv = Invocation("contract", "contraction", cfg, out / "0", seed, tracer)
    yield inv
    if inv.rc != 0:
        return
    row = read_csv(inv.out / "threshold.csv")[0]
    eps0, max_ratio = float(row["epsilon0"]), float(row["max_ratio"])
    inv.check(eps0 > 0, f"epsilon0 = {eps0} is not positive")
    inv.check(max_ratio <= CONTRACTION["target_ratio"],
              f"re-probe max_ratio {max_ratio} exceeds the target")
    inv.check(abs(eps0 - ref["eps0"]) <= ref["eps0_rtol"] * ref["eps0"],
              f"epsilon0 = {eps0!r} differs from the recorded "
              f"{ref['eps0']!r} beyond rel {ref['eps0_rtol']}")
    cfg = {"grid": CONTRACT_GRID,
           "solver": dict(CONTRACT_SOLVER, epsilon=0.5 * eps0),
           "nonlinearity": CONTRACT_NONLIN}
    inv = Invocation("contract", "solve", cfg, out / "1", seed, tracer)
    yield inv
    if inv.rc != 0:
        return
    report = read_csv(inv.out / "report.csv")[0]
    inv.check(report["converged"] == "true", "solve did not converge")
    hist = [float(r["diff_norm"]) for r in read_csv(inv.out / "history.csv")]
    for n in range(1, len(hist)):
        inv.check(hist[n] <= 0.5 * hist[n - 1],
                  f"sweep {n + 1} difference {hist[n]:.3e} is more than "
                  f"half of sweep {n}'s {hist[n - 1]:.3e}")


def pass_field(run, out, seed, tracer, ref):
    cfg = {"grid": PROPAGATE_GRID, "data": {"kind": "theta", "k": 1.0},
           "propagate": {"engine": "both"}}
    inv = Invocation("field", "propagate", cfg, out / "0", seed, tracer)
    yield inv
    if inv.rc == 0:
        err = kernel_fd_err(inv.out / "diff.csv", PROPAGATE_GRID["r_max"])
        run.kernel_fd_err = err
        inv.check(err <= KERNEL_FD_TOL,
                  f"kernel vs FD rel_err {err:.3e} exceeds {KERNEL_FD_TOL}")
    for i, k in enumerate(DECAY_KS, start=1):
        cfg = {"grid": DECAY_GRID, "decay": {"k": k}}
        inv = Invocation("field", "decay", cfg, out / str(i), seed, tracer)
        yield inv
        if inv.rc != 0:
            continue
        slope = float(read_csv(inv.out / "decay.csv")[0]["slope_r"])
        lo, hi = SLOPE_RANGE
        inv.check(lo <= slope <= hi, f"slope_r {slope} outside [{lo}, {hi}]")


def pass_blowup(run, out, seed, tracer, ref):
    i = 0
    for p in BLOWUP_PS:
        for eps in BLOWUP_EPSILONS:
            params = {"p": p, "epsilon": eps, "tau0": 1.0}
            inv = Invocation("blowup", "blowup",
                             {"blowup": params, "escape": ESCAPE},
                             out / str(i), seed, tracer)
            yield inv
            if inv.rc == 0:
                esc = read_csv(inv.out / "escape.csv")[0]
                inv.check(esc["escaped"] == "true", "did not escape")
            inv = Invocation("blowup", "certify",
                             {"blowup": params, "certify": CERTIFY},
                             out / str(i + 1), seed, tracer)
            yield inv
            if inv.rc == 0:
                checked = int(read_csv(inv.out / "verify.csv")[0]["first_checked"])
                inv.check(checked > 0, "first_checked is 0")
            i += 2


WORKLOADS = {"contract": pass_contract, "field": pass_field,
             "blowup": pass_blowup}


def table_exact_err():
    """Worst relative error of the gridded propagator on constant data,
    against 2 sinh(t/2), and of its Duhamel integral of a unit source,
    against 4 (cosh(t/2) - 1), on a small table with the contract spacing.

    Taken where t + r <= r_max - dr: on the last cell before r_max the
    cubic stencil reaches past the grid, where data count as zero, and the
    error there is about 2e-2 whatever the quadrature does."""
    t = numpy.linspace(0.0, 1.0, 21)
    r = numpy.linspace(0.0, 2.0, 41)
    table = meanprop.PropagatorTable(t, r)
    T, R = numpy.meshgrid(t, r, indexing="ij")
    inside = (T + R <= r[-2] + 1e-9) & (T > 0)
    lin = table.apply_linear(numpy.ones_like(r))
    duh = table.duhamel_field(numpy.ones_like(T))
    errs = [numpy.abs(got - want)[inside] / numpy.abs(want)[inside]
            for got, want in ((lin, 2.0 * numpy.sinh(T / 2.0)),
                              (duh, 4.0 * (numpy.cosh(T / 2.0) - 1.0)))]
    return float(max(e.max() for e in errs))


class Run:
    def __init__(self, args):
        self.args = args
        self.out = Path(args.out)
        self.kernel_fd_err = None
        self.passes = []
        self.failures = []
        self.traced_spans = []
        self.first_digests = None
        with open(BENCH / "record.json", encoding="utf-8") as fh:
            self.ref = json.load(fh)["references"]

    def one_pass(self, k):
        out = self.out / f"pass{k}"
        tracer = Tracer() if self.args.trace else None
        if tracer is not None:
            tracer.install()
        invs = []
        try:
            for inv in WORKLOADS[self.args.workload](
                    self, out, self.args.seed, tracer, self.ref):
                invs.append(inv)
        finally:
            if tracer is not None:
                tracer.uninstall()
        digests = [inv.digest for inv in invs]
        if self.first_digests is None:
            self.first_digests = digests
        for inv, want in zip(invs, self.first_digests):
            inv.check(inv.digest == want,
                      f"pass {k} CSVs differ from pass 0 with the same seed")
        shutil.rmtree(out)
        rec = {"invocations": [[inv.command, inv.seconds, inv.ref_seconds]
                               for inv in invs],
               "failed": sum(1 for inv in invs if inv.errors)}
        for inv in invs:
            self.failures.extend(inv.errors)
        if tracer is not None:
            rec["layers"] = layer_metrics(tracer.spans, tracer.counts,
                                          sum(inv.csv_bytes for inv in invs))
            self.traced_spans.append(tracer.spans)
        self.passes.append(rec)

    def run(self):
        start = time.perf_counter()
        durations = []
        while True:
            k = len(self.passes)
            t0 = time.perf_counter()
            self.one_pass(k)
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if (k + 1 >= MIN_PASSES and
                    elapsed + statistics.median(durations) > self.args.seconds):
                break
        if self.kernel_fd_err is None:
            self.kernel_fd_err = self.check_kernel_fd()
        exact = table_exact_err()
        if exact > TABLE_EXACT_TOL:
            self.failures.append(
                f"{self.args.workload}: table exactness check: relative "
                f"error {exact:.3e} exceeds {TABLE_EXACT_TOL}")
        if self.traced_spans:
            self.write_spans()
        return {"passes": self.passes, "failures": self.failures,
                "kernel_fd_err": self.kernel_fd_err,
                "table_exact_err": exact,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    def check_kernel_fd(self):
        """kernel_fd_err for workloads whose commands do not propagate:
        one untimed propagate on CHECK_GRID."""
        cfg = {"grid": CHECK_GRID, "data": {"kind": "theta", "k": 1.0},
               "propagate": {"engine": "both"}}
        inv = Invocation(self.args.workload + " check", "propagate", cfg,
                         self.out / "check", self.args.seed, None)
        err = math.inf
        if inv.rc == 0:
            err = kernel_fd_err(inv.out / "diff.csv", CHECK_GRID["r_max"])
            inv.check(err <= KERNEL_FD_TOL,
                      f"kernel vs FD rel_err {err:.3e} exceeds {KERNEL_FD_TOL}")
        self.failures.extend(inv.errors)
        shutil.rmtree(self.out / "check")
        return err

    def write_spans(self):
        path = self.out / f"spans-{self.args.workload}-seed{self.args.seed}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass,request,span,parent,name,start,end\n")
            for k, spans in enumerate(self.traced_spans):
                for span in spans:
                    fh.write(f"{k}," + ",".join(map(str, span)) + "\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"hypwave was imported from {cli.__file__}, not from {src}")
    if args.setup_probe:
        reference_seconds()  # the first run pays for faulting pages in
        result = {"imported_at": IMPORTED_AT,
                  "ref_scale": REF_S / statistics.median(
                      reference_seconds() for _ in range(5))}
    else:
        result = Run(args).run()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
