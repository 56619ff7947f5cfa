"""Spans around copulabounds' public entry points, for traced runs only.

``Tracer.install`` replaces each entry point with a wrapper that records a
span ``[name, start, end, parent, work]`` in memory; ``uninstall`` puts the
originals back. Untraced runs never install anything. A span's layer is its
name up to the first dot, and its self time is its duration minus the
durations of its direct children (calls are nested, never overlapping).

``Census`` is a separate pass over one job that counts how many evaluated
envelope nodes some region piece governs. It runs untimed, after the traced
jobs, so the region lookups cost the spans nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from copulabounds import cli, concordance, core, effectiveness, footrule, gini, regions

LAYERS = ("core", "concordance", "footrule", "gini", "regions", "effectiveness", "cli")


def _gini_lower_codes(g, u, v):
    # the lower gamma envelope is governed by the reflected upper piece
    return gini.omega_region(-g, u, 1.0 - np.asarray(v, dtype=float))


# (evaluator class, module, functional form, parameter attribute, span name,
#  region codes of (param, u, v) or None when the envelope has no pieces)
ENVELOPES = (
    (footrule.FootruleUpperBound, footrule, "footrule_upper_bound", "phi", "footrule.upper",
     footrule.delta_region),
    (footrule.FootruleLowerBound, footrule, "footrule_lower_bound", "phi", "footrule.lower", None),
    (gini.GiniUpperBound, gini, "gini_upper_bound", "gamma", "gini.upper", gini.omega_region),
    (gini.GiniLowerBound, gini, "gini_lower_bound", "gamma", "gini.lower", _gini_lower_codes),
)
EVALUATOR_SPANS = {cls: span for cls, _, _, _, span, _ in ENVELOPES}
EVAL_NAMES = frozenset(EVALUATOR_SPANS.values()) | {"core.eval"}


def _points(u, v) -> int:
    return np.broadcast(u, v).size


class _Patcher:
    def __init__(self):
        self._saved = []

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(_Patcher):
    def __init__(self):
        super().__init__()
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, work=None, out_work=None):
        """``name`` is a span name or a function of the call's arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name(*args) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else -1, work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if out_work:
                rec[4] = out_work(result)
            return result
        return traced

    def _span(self, owner, attr, name, work=None, out_work=None):
        self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], work, out_work))

    def install(self):
        on_grid = lambda _p, u, v: _points(u, v)  # noqa: E731  functional forms (param, u, v)
        self._span(core.BivariateFunction, "__call__",
                   lambda f, u, v: EVALUATOR_SPANS.get(type(f), "core.eval"),
                   lambda f, u, v: _points(u, v))
        self._span(core, "check_quasicopula", "core.audit",
                   lambda func, n=200, tol=1e-9: (n + 1) ** 2)
        self._span(core, "sample_conditional", "core.sample_conditional",
                   lambda func, count, *a, **k: count)
        self._span(core, "sample_shuffle", "core.sample_shuffle",
                   lambda spec, count, seed: count)
        for _, owner, form, _, span, _ in ENVELOPES:
            self._span(owner, form, span, on_grid)
        self._span(footrule, "delta_region", "footrule.region", on_grid)
        self._span(gini, "omega_region", "gini.region", on_grid)
        self._span(effectiveness, "effectiveness_score", "effectiveness.score")
        for attr in ("spearman_footrule", "gini_gamma", "blomqvist_beta"):
            self._span(concordance, attr, "concordance.measure")
        for attr in ("beta_range_given_footrule", "beta_range_given_gini"):
            self._span(regions, attr, "regions.range")
        self._span(cli, "parse_copula_spec", "cli.spec")
        for attr in [a for a in vars(cli) if a.startswith("cmd_")]:
            self._span(cli, attr, "cli.cmd")
        self._span(cli.CsvTable, "render", "cli.render", out_work=len)
        self._span(cli, "main", "cli.main")

        build_parser = cli.build_parser

        def build_traced_parser():
            parser = build_parser()
            parser.parse_args = self._wrap("cli.argparse", parser.parse_args)
            return parser
        self._patch(cli, "build_parser", self._wrap("cli.argparse", build_traced_parser))

    def summary(self, jobs: int, wall: float) -> dict:
        """Per-job totals of the recorded spans; ``wall`` is the traced wall time."""
        child = [0.0] * len(self.spans)
        eval_in_sampler = 0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if name in EVAL_NAMES and self.spans[parent][0] == "core.sample_conditional":
                    eval_in_sampler += 1
        dur, self_s, work, calls = (defaultdict(float) for _ in range(4))
        layer_self = dict.fromkeys(LAYERS, 0.0)
        covered = 0.0
        for (name, start, end, parent, w), kids in zip(self.spans, child):
            dur[name] += end - start
            self_s[name] += end - start - kids
            layer_self[name.split(".")[0]] += end - start - kids
            work[name] += w
            calls[name] += 1
            if parent < 0:
                covered += end - start
        per = 1.0 / jobs

        def ns_per(name):
            return 1e9 * dur[name] / work[name] if work[name] else 0.0

        out = {}
        for lay in ("footrule", "gini"):
            for part in ("upper", "lower", "region"):
                out[f"{lay}.{part}.ns_per_point"] = ns_per(f"{lay}.{part}")
            out[f"{lay}.points"] = per * sum(work[f"{lay}.{p}"] for p in ("upper", "lower", "region"))
        out.update({
            "effectiveness.score.s": per * dur["effectiveness.score"],
            "effectiveness.rows": per * calls["effectiveness.score"],
            "cli.render.s": per * dur["cli.render"],
            "cli.render.bytes": per * work["cli.render"],
            "cli.render.ns_per_byte": ns_per("cli.render"),
            "cli.cmd_self.s": per * self_s["cli.cmd"],
            "cli.parse.s": per * (dur["cli.argparse"] + dur["cli.spec"]),
            "cli.commands": per * calls["cli.main"],
            "core.eval.s": per * dur["core.eval"],
            "core.eval.points": per * work["core.eval"],
            "core.audit.s": per * dur["core.audit"],
            "core.audit.calls": per * calls["core.audit"],
            "core.audit.nodes": per * work["core.audit"],
            "core.sample_conditional.s": per * dur["core.sample_conditional"],
            "core.sample_conditional.points": per * work["core.sample_conditional"],
            "core.sample_conditional.eval_calls": per * eval_in_sampler,
            "core.sample_shuffle.s": per * dur["core.sample_shuffle"],
            "core.sample_shuffle.points": per * work["core.sample_shuffle"],
            "concordance.measure.s": per * dur["concordance.measure"],
            "concordance.measure.calls": per * calls["concordance.measure"],
            "regions.range.s": per * dur["regions.range"],
            "regions.range.calls": per * calls["regions.range"],
        })
        for lay in LAYERS:
            out[f"{lay}.self.s"] = per * layer_self[lay]
        out["bench.self.s"] = per * (wall - covered)
        out["trace.wall_s"] = per * wall
        out["trace.spans"] = per * len(self.spans)
        return out


class Census(_Patcher):
    """Counts envelope nodes governed by a region piece, per measure."""

    def __init__(self):
        super().__init__()
        self.governed = defaultdict(int)
        self.total = defaultdict(int)

    def _count(self, layer, codes):
        codes = np.asarray(codes)
        self.governed[layer] += int(np.count_nonzero(codes))
        self.total[layer] += codes.size

    def install(self):
        pieced = [(cls, owner, form, param, span.split(".")[0], codes)
                  for cls, owner, form, param, span, codes in ENVELOPES if codes is not None]
        by_class = {cls: (param, layer, codes) for cls, _, _, param, layer, codes in pieced}
        call = core.BivariateFunction.__call__

        def counted_call(f, u, v):
            if type(f) in by_class:
                param, layer, codes = by_class[type(f)]
                self._count(layer, codes(getattr(f, param), u, v))
            return call(f, u, v)
        self._patch(core.BivariateFunction, "__call__", counted_call)

        for _, owner, form, _, layer, codes in pieced:
            def counted(p, u, v, _fn=owner.__dict__[form], _layer=layer, _codes=codes):
                self._count(_layer, _codes(p, u, v))
                return _fn(p, u, v)
            self._patch(owner, form, counted)

    def shares(self) -> dict:
        return {f"{lay}.piece_share": self.governed[lay] / self.total[lay] if self.total[lay] else 0.0
                for lay in ("footrule", "gini")}
