"""Outside-in tracing of rootsets: spans and counters around its public calls.

``Tracer.install`` replaces functions and methods of the imported rootsets
modules with timing or counting wrappers, at every module attribute that
refers to them (``rootsets.constructions.closure`` as well as
``rootsets.kernel.closure``), so nothing under src/ changes.  Only the traced
worker process installs it; the timed process never does.

Span names follow the stage list of ROADMAP item 1, so an in-program trace
can later emit the same names.  A metric ``<span>_s`` is the summed self time
of the spans of that name: its duration minus the part covered by its
children, so the layers partition a job's time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# span name -> targets, as "module:attribute" or "module:Class.method"
SPANS = {
    "cli.parse": ["rootsets.cli:parse_spec"],
    "cli.build": ["rootsets.cli:build_group", "rootsets.cli:build_tower"],
    "kernel.validate": ["rootsets.kernel:FiniteGroupTable.__init__"],
    "kernel.load_table": ["rootsets.kernel:load_table", "rootsets.kernel:loads_table"],
    "kernel.dumps_table": ["rootsets.kernel:dumps_table"],
    "kernel.closure": ["rootsets.kernel:closure"],
    "kernel.subgroup_table": ["rootsets.kernel:subgroup_table"],
    "kernel.quotient": ["rootsets.kernel:quotient"],
    "eta.roots_matrix": ["rootsets.eta:roots_matrix"],
    "eta.k_finite": ["rootsets.eta:k_finite"],
    "eta.lemma31": ["rootsets.eta:check_lemma31"],
    "eta.lemma32": ["rootsets.eta:check_lemma32"],
    "eta.lemma33": ["rootsets.cli:_lemma33_suite"],
    "eta.lemma38": ["rootsets.cli:_lemma38_suite"],
    "eta.lemma39": ["rootsets.eta:check_lemma39"],
    "towers.level_build": ["rootsets.towers:Tower.level"],
    "towers.embed_check": ["rootsets.towers:Tower.embed_ids",
                           "rootsets.towers:T2Tower._check_conditions"],
    "towers.eta_engine": ["rootsets.towers:k_estimate", "rootsets.towers:eta_stabilized"],
    "towers.group_materialize": ["rootsets.towers:Level.group"],
    "constructions.reduce": ["rootsets.constructions:quaternion_reduce"],
    "constructions.census": ["rootsets.constructions:omega1_census"],
    "constructions.build": ["rootsets.constructions:heisenberg",
                            "rootsets.constructions:central_extension",
                            "rootsets.constructions:tree_vw_group"],
}

# Spans the metrics report, in order.  cli.serialize and cli.run are opened
# by the worker around json.dumps and run_command.
SPAN_METRICS = ["cli.parse", "cli.build", "cli.serialize"] + [
    s for s in SPANS if not s.startswith("cli.")]
COUNTERS = ["kernel.validate_calls", "kernel.validate_elems", "kernel.assoc_sampled",
            "kernel.mul_calls", "kernel.order_of_calls", "eta.eta_calls",
            "towers.level_elems", "towers.mul_vec_calls", "towers.mul_vec_elems"]
TOWER_SPANS = ("towers.level_build", "towers.embed_check", "towers.eta_engine")


def _resolve(target):
    mod_name, attr = target.split(":")
    owner = sys.modules[mod_name]       # not getattr: rootsets.eta is also a function
    *cls_path, name = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans kept in memory as [name, start, end, parent, job] lists."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self.missing = []
        self._stack = []

    # -- recording -----------------------------------------------------------

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, self.job])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return wrapper

    # -- installing ----------------------------------------------------------

    def _replace(self, target, make):
        try:
            owner, name = _resolve(target)
            fn = getattr(owner, name)
        except (KeyError, AttributeError):
            self.missing.append(target)
            return
        wrapper = make(fn)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "rootsets" or mod_name.startswith("rootsets."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)

    def install(self):
        """Wrap rootsets; call once, after importing rootsets.cli."""
        for span, targets in SPANS.items():
            for target in targets:
                self._replace(target, lambda fn, span=span: self._span(span, fn))
        counts = self.counts

        def counting(key):
            def make(fn):
                def wrapper(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return wrapper
            return make

        for target in ("rootsets.kernel:FiniteGroupTable.mul", "rootsets.kernel:OracleGroup.mul"):
            self._replace(target, counting("kernel.mul_calls"))
        self._replace("rootsets.kernel:order_of", counting("kernel.order_of_calls"))
        self._replace("rootsets.eta:eta", counting("eta.eta_calls"))

        def validated(fn):
            def wrapper(group, *args, **kwargs):
                try:
                    fn(group, *args, **kwargs)
                finally:  # a rejected table was validated too
                    counts["kernel.validate_calls"] += 1
                    counts["kernel.validate_elems"] += getattr(group, "order", 0) ** 2
                    meta = getattr(group, "meta", {})
                    counts["kernel.assoc_sampled"] += meta.get("associativity") == "sampled"
            return wrapper

        def built(fn):
            def wrapper(tower, k):
                new = k not in tower._levels
                lvl = fn(tower, k)
                if new:
                    counts["towers.level_elems"] += lvl.n
                return lvl
            return wrapper

        def mul_vec(fn):
            def wrapper(level, a, b):
                out = fn(level, a, b)
                counts["towers.mul_vec_calls"] += 1
                counts["towers.mul_vec_elems"] += out.size
                return out
            return wrapper

        # these wrap the span wrappers installed above
        self._replace("rootsets.kernel:FiniteGroupTable.__init__", validated)
        self._replace("rootsets.towers:Tower.level", built)
        self._replace("rootsets.towers:Level.mul_vec", mul_vec)

    # -- reading -------------------------------------------------------------

    def self_times(self):
        """Per span, its duration minus its children's durations."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        by_name = Counter()
        for s, st in zip(self.spans, self.self_times()):
            by_name[s[0]] += st
        metrics = {f"{name}_s": by_name[name] for name in SPAN_METRICS}
        metrics.update({name: self.counts[name] for name in COUNTERS})
        return metrics

    def tower_share(self, job_s, commands):
        """Percent of k-estimate job time spent in the towers.* spans.

        ``job_s`` and ``commands`` give each job's wall time and command, by
        the job index the spans carry.
        """
        jobs = {i for i, c in enumerate(commands) if c == "k-estimate"}
        wall = sum(job_s[i] for i in jobs)
        towers = sum(st for s, st in zip(self.spans, self.self_times())
                     if s[0] in TOWER_SPANS and s[4] in jobs)
        return 100.0 * towers / wall if wall else 0.0

    def reset(self):
        self.spans.clear()
        self.counts.clear()
