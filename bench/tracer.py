"""Spans around calls into the seven hypwave layers, recorded from outside.

The tracer patches the public functions named in TARGETS for the duration
of one traced pass and restores them afterwards; nothing under src/
changes. A function is patched in every hypwave module that bound it
(``from .meanprop import linear_field`` in globalsolver, for example),
since patching only the defining module would miss those calls. Methods
are patched on their class, which every importer shares.

Each span is (request, span id, parent id, name, start, end), kept in
memory; a request is one wavecli command invocation. Self time is a
span's duration minus its direct children's (the program is
single-threaded, so children never overlap).
"""

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("hypgeo", "meanprop", "nonlin", "globalsolver", "blowlab",
           "fdoracle", "cli")

# (module, class or None, attribute, span name)
TARGETS = (
    ("meanprop", "PropagatorTable", "__init__", "meanprop.table_build"),
    ("meanprop", "PropagatorTable", "duhamel_field", "meanprop.duhamel_field"),
    ("meanprop", "PropagatorTable", "apply_linear", "meanprop.apply_linear"),
    ("meanprop", None, "linear_field", "meanprop.linear_field"),
    ("meanprop", None, "lower_bound_I", "meanprop.lower_bound_I"),
    ("globalsolver", None, "epsilon_threshold", "globalsolver.epsilon_threshold"),
    ("globalsolver", None, "contraction_probe", "globalsolver.contraction_probe"),
    ("globalsolver", None, "picard_solve", "globalsolver.picard_solve"),
    ("globalsolver", None, "decay_fit", "globalsolver.decay_fit"),
    ("fdoracle", None, "fd_solve", "fdoracle.fd_solve"),
    ("blowlab", None, "build_certificate", "blowlab.build_certificate"),
    ("blowlab", None, "first_iterate_bound", "blowlab.first_iterate_bound"),
    ("blowlab", None, "certificate_verify", "blowlab.certificate_verify"),
    ("blowlab", None, "escape_detector", "blowlab.escape_detector"),
    ("hypgeo", None, "theta_k", "hypgeo.theta_k"),
    ("hypgeo", None, "phi_weight", "hypgeo.phi_weight"),
    ("hypgeo", None, "cg_nodes", "hypgeo.cg_nodes"),
    ("cli", None, "main", "cli.main"),
)
HYPGEO = ("hypgeo.theta_k", "hypgeo.phi_weight", "hypgeo.cg_nodes")

# Per-layer metrics: name, unit, better, and the end-to-end metric and
# workload each should move.
LAYER_METRICS = (
    ("meanprop.table_build.calls", "count", "lower", "cmd1_s and cmd2_s on contract; 0 elsewhere"),
    ("meanprop.table_build.s", "s", "lower", "cmd1_s and cmd2_s on contract"),
    ("meanprop.duhamel_field.calls", "count", "lower", "cmd1_s on contract"),
    ("meanprop.duhamel_field.s", "s", "lower", "cmd1_s on contract"),
    ("meanprop.apply_linear.calls", "count", "lower", "cmd2_s on contract"),
    ("meanprop.apply_linear.s", "s", "lower", "cmd2_s on contract"),
    ("meanprop.linear_field.calls", "count", "lower", "cmd1_s and cmd2_s on field; 0 elsewhere"),
    ("meanprop.linear_field.s", "s", "lower", "cmd1_s and cmd2_s on field"),
    ("meanprop.lower_bound_I.calls", "count", "lower", "cmd1_s and cmd2_s on blowup"),
    ("meanprop.lower_bound_I.s", "s", "lower", "cmd1_s and cmd2_s on blowup"),
    ("globalsolver.epsilon_threshold.s", "s", "lower", "cmd1_s on contract"),
    ("globalsolver.contraction_probe.calls", "count", "lower", "cmd1_s on contract"),
    ("globalsolver.contraction_probe.self_s", "s", "lower", "cmd1_s on contract"),
    ("globalsolver.pairs", "count", "higher", "cmd1_s on contract"),
    ("globalsolver.duhamel_per_pair", "ratio", "lower", "cmd1_s on contract"),
    ("globalsolver.picard_solve.s", "s", "lower", "cmd2_s on contract"),
    ("globalsolver.picard_sweeps", "count", "lower", "cmd2_s on contract"),
    ("globalsolver.decay_fit.s", "s", "lower", "cmd2_s on field"),
    ("nonlin.F.calls", "count", "lower", "cmd1_s and cmd2_s on blowup, a little cmd1_s on contract"),
    ("nonlin.F.s", "s", "lower", "cmd1_s and cmd2_s on blowup"),
    ("fdoracle.fd_solve.calls", "count", "lower", "cmd2_s on blowup, cmd1_s on field"),
    ("fdoracle.fd_solve.s", "s", "lower", "cmd2_s on blowup, cmd1_s on field"),
    ("fdoracle.steps", "count", "higher", "cmd1_s and cmd2_s on blowup"),
    ("fdoracle.steps_per_s", "1/s", "higher", "cmd1_s and cmd2_s on blowup"),
    ("blowlab.build_certificate.s", "s", "lower", "cmd1_s and cmd2_s on blowup"),
    ("blowlab.first_iterate_bound.s", "s", "lower", "cmd1_s and cmd2_s on blowup"),
    ("blowlab.certificate_verify.s", "s", "lower", "cmd2_s on blowup"),
    ("blowlab.points_checked", "count", "higher", "cmd2_s on blowup"),
    ("blowlab.escape_detector.calls", "count", "lower", "cmd1_s on blowup"),
    ("blowlab.escape_detector.s", "s", "lower", "cmd1_s on blowup"),
    ("hypgeo.calls", "count", "lower", "a little cmd1_s and cmd2_s on field"),
    ("hypgeo.s", "s", "lower", "a little cmd1_s and cmd2_s on field"),
    ("cli.self_s", "s", "lower", "cmd1_s on field (config parsing, CSV formatting)"),
    ("cli.csv_bytes", "bytes", "lower", "cmd1_s on field"),
    ("trace.spans", "count", "lower", "none: spans recorded per pass"),
    ("trace.wall_s", "s", "lower", "none: minus the untraced run's wall_s, the tracing overhead"),
)


def _hypwave_modules():
    return [importlib.import_module("hypwave." + m) for m in MODULES]


class Tracer:
    """Records spans for one traced pass while installed."""

    def __init__(self):
        self.spans = []  # (request, id, parent, name, start, end)
        self.counts = Counter()
        self.request = 0
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)  # reserved so ids follow call order
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (self.request, sid, parent, name, start, end)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _hooks(self):
        counts = self.counts

        def pairs(args, kwargs, rep):
            counts["globalsolver.pairs"] += rep.sampled_pairs

        def sweeps(args, kwargs, result):
            counts["globalsolver.picard_sweeps"] += len(result[1])

        def fd_steps(args, kwargs, field):
            cfg = args[3] if len(args) > 3 else kwargs["cfg"]
            counts["fdoracle.steps"] += cfg.n_steps

        def escape_steps(args, kwargs, rep):
            counts["fdoracle.steps"] += max(len(rep.t_history) - 1, 0)

        def checked(args, kwargs, rep):
            counts["blowlab.points_checked"] += rep.first_checked + rep.boost_checked

        return {"globalsolver.contraction_probe": pairs,
                "globalsolver.picard_solve": sweeps,
                "fdoracle.fd_solve": fd_steps,
                "blowlab.escape_detector": escape_steps,
                "blowlab.certificate_verify": checked}

    def install(self):
        modules = _hypwave_modules()
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        hooks = self._hooks()
        for mod, cls, attr, name in TARGETS:
            if cls is not None:
                owner = getattr(by_name[mod], cls)
                self._patch(owner, attr, self.wrap(name, getattr(owner, attr),
                                                   hooks.get(name)))
                continue
            orig = getattr(by_name[mod], attr)
            self._patch_everywhere(modules, orig,
                                   self.wrap(name, orig, hooks.get(name)))
        # the callable nonlinearity() returns is what the solvers evaluate
        orig_nl = by_name["nonlin"].nonlinearity

        def nonlinearity(spec):
            return self.wrap("nonlin.F", orig_nl(spec))

        self._patch_everywhere(modules, orig_nl, nonlinearity)

    def _patch_everywhere(self, modules, orig, value):
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._patch(m, key, value)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)


def layer_metrics(spans, counts, csv_bytes):
    """Per-layer figures of one traced pass."""
    calls = Counter()
    total = defaultdict(float)
    child = defaultdict(float)
    names = {}
    for _, sid, parent, name, start, end in spans:
        names[sid] = (name, parent)
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    for _, sid, _, name, start, end in spans:
        self_s[name] += (end - start) - child[sid]

    def under(sid, ancestor):
        while sid >= 0:
            name, sid = names[sid]
            if name == ancestor:
                return True
        return False

    probe_duhamel = sum(1 for _, sid, parent, name, _, _ in spans
                        if name == "meanprop.duhamel_field"
                        and under(parent, "globalsolver.contraction_probe"))
    pairs = counts["globalsolver.pairs"]
    fd_s = total["fdoracle.fd_solve"] + total["blowlab.escape_detector"]
    out = {}
    for key in ("meanprop.table_build", "meanprop.duhamel_field",
                "meanprop.apply_linear", "meanprop.linear_field",
                "meanprop.lower_bound_I", "nonlin.F", "fdoracle.fd_solve",
                "blowlab.escape_detector"):
        out[key + ".calls"] = calls[key]
        out[key + ".s"] = total[key]
    for key in ("globalsolver.epsilon_threshold", "globalsolver.picard_solve",
                "globalsolver.decay_fit", "blowlab.build_certificate",
                "blowlab.first_iterate_bound", "blowlab.certificate_verify"):
        out[key + ".s"] = total[key]
    out["globalsolver.contraction_probe.calls"] = calls["globalsolver.contraction_probe"]
    out["globalsolver.contraction_probe.self_s"] = self_s["globalsolver.contraction_probe"]
    out["globalsolver.pairs"] = pairs
    out["globalsolver.duhamel_per_pair"] = probe_duhamel / pairs if pairs else 0.0
    out["globalsolver.picard_sweeps"] = counts["globalsolver.picard_sweeps"]
    out["fdoracle.steps"] = counts["fdoracle.steps"]
    out["fdoracle.steps_per_s"] = counts["fdoracle.steps"] / fd_s if fd_s else 0.0
    out["blowlab.points_checked"] = counts["blowlab.points_checked"]
    out["hypgeo.calls"] = sum(calls[n] for n in HYPGEO)
    out["hypgeo.s"] = sum(total[n] for n in HYPGEO)
    out["cli.self_s"] = self_s["cli.main"]
    out["cli.csv_bytes"] = csv_bytes
    out["trace.spans"] = len(spans)
    return out
