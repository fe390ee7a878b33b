"""Layer tracing for the benchmark's traced run.

`Tracer.install(kind)` replaces public functions of each `invbases` layer
with wrappers, at the attribute their caller looks up (a module global such
as `invbases.engine.criteria`, or a class attribute such as
`Division.partition`), and `uninstall` puts the originals back.  A traced
pass installs one kind of wrapper only:

* `"spans"`: span wrappers record (name, start, end, parent span, job id) in
  memory for the calls a layer boundary sees a few thousand times per pass
  at most.  Every `*_s` figure comes from these passes, so no counting
  wrapper runs inside a timed span;
* `"counts"`: count wrappers only bump a counter, for the hot calls of the
  arithmetic kernel (`Ordering.key`, `mono_div`, `Polynomial.__sub__`,
  `Polynomial.mul_term`) and the oracles' inner calls, where a span would
  cost more than the call itself.  Every `core.*` and `oracles.*_calls`
  figure comes from these passes.

A span's self time is its duration minus the durations of its direct child
spans; every `*_s` figure in `layer_metrics` is a self time, so the figures
of one pass add up to at most the span-traced pass time.  A span below an
oracle span is charged to that oracle: the oracles call `Division.partition`
(directly and through `engine.nf_full`) on their own account.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (name, module that looks the function up, attribute) for span wrappers.
# Module-level names are patched in the module that calls them.
SPANNED = (
    ("cli.main", "invbases.cli", "main"),
    ("systems.load_builtin", "invbases.cli", "load_builtin"),
    ("engine.inv_comp", "invbases.cli", "inv_comp"),
    ("engine.min_bas", "invbases.engine", "min_bas"),
    ("division.minimal_completion", "invbases.engine", "minimal_completion"),
    ("signatures.criteria", "invbases.engine", "criteria"),
    ("oracles.verify_basis", "invbases.cli", "verify_basis"),
    ("oracles.is_groebner", "invbases.bench", "is_groebner"),
    ("oracles.is_involutive", "invbases.bench", "is_involutive"),
)
# Count-only wrappers on module-level names.
COUNTED = (
    ("oracles.spoly", "invbases.oracles", "spoly"),
    ("oracles.buchberger_nf", "invbases.oracles", "buchberger_nf"),
    ("oracles.buchberger_nf", "invbases.bench", "buchberger_nf"),
    ("oracles.nf_full", "invbases.oracles", "nf_full"),
    ("oracles.nf_full", "invbases.bench", "nf_full"),
)
# Every module that imported `mono_div` by name calls it through its own global.
MONO_DIV_USERS = (
    "invbases.core",
    "invbases.division",
    "invbases.engine",
    "invbases.oracles",
    "invbases.signatures",
)
ORACLE_SPANS = ("oracles.verify_basis", "oracles.is_groebner", "oracles.is_involutive")


class Tracer:
    """Spans and counters for the traced passes of one benchmark run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.job = ""
        # name -> [calls, extra]; extra is hits for mono_div and criteria,
        # operand terms for __sub__.
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.completions: list = []
        self.passes = {"spans": 0, "counts": 0}
        self._undo: list = []

    # -- wrappers ------------------------------------------------------

    def _span(self, name, orig, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.job)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    @staticmethod
    def _count(orig, cell):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return orig(*args, **kwargs)

        return wrapper

    @staticmethod
    def _count_hits(orig, cell):
        @functools.wraps(orig)
        def wrapper(a, b):
            cell[0] += 1
            out = orig(a, b)
            if out is not None:
                cell[1] += 1
            return out

        return wrapper

    @staticmethod
    def _count_sub(orig, cell):
        @functools.wraps(orig)
        def wrapper(self, other):
            cell[0] += 1
            cell[1] += len(self.terms) + len(other.terms)
            return orig(self, other)

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- install / uninstall -------------------------------------------

    def install(self, kind: str) -> None:
        """Wrap the layer functions for one traced pass of `kind`."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.passes[kind] += 1
        if kind == "spans":
            self._install_spans()
        else:
            self._install_counts()

    def _install_spans(self) -> None:
        division = importlib.import_module("invbases.division")
        signatures = importlib.import_module("invbases.signatures")
        counts = self.counts

        def note_verdict(verdict):
            if verdict is not signatures.Verdict.NONE:
                counts["signatures.criteria"][1] += 1

        def note_completion(result):
            self.completions.append((self.job, result))

        on_result = {
            "signatures.criteria": note_verdict,
            "engine.inv_comp": note_completion,
        }
        for name, module, attr in SPANNED:
            mod = importlib.import_module(module)
            orig = mod.__dict__[attr]
            self._patch(mod, attr, self._span(name, orig, on_result.get(name)))
        self._patch(
            division.Division,
            "partition",
            self._span("division.partition", division.Division.partition),
        )

    def _install_counts(self) -> None:
        core = importlib.import_module("invbases.core")
        counts = self.counts
        for name, module, attr in COUNTED:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._count(mod.__dict__[attr], counts[name]))
        self._patch(core.Ordering, "key", self._count(core.Ordering.key, counts["core.key"]))
        self._patch(
            core.Polynomial,
            "mul_term",
            self._count(core.Polynomial.mul_term, counts["core.mul_term"]),
        )
        self._patch(
            core.Polynomial,
            "__sub__",
            self._count_sub(core.Polynomial.__sub__, counts["core.sub"]),
        )
        mono_div = self._count_hits(core.mono_div, counts["core.mono_div"])
        for module in MONO_DIV_USERS:
            mod = importlib.import_module(module)
            if mod.__dict__.get("mono_div") is not core.mono_div:
                raise RuntimeError("%s no longer calls core.mono_div by name" % module)
        for module in MONO_DIV_USERS:
            self._patch(importlib.import_module(module), "mono_div", mono_div)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and number of spans, per charged name: a span's
        own name, or that of the oracle span it runs under."""
        child = [0.0] * len(self.spans)
        charge: list[str] = []
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if charge[parent] in ORACLE_SPANS and name not in ORACLE_SPANS:
                    name = charge[parent]
            charge.append(name)
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (_name, start, end, _parent, _job) in enumerate(self.spans):
            total[charge[i]] += (end - start) - child[i]
            calls[charge[i]] += 1
        return total, calls

    def layer_metrics(self, span_pass_s: float, untraced_pass_s: float) -> dict:
        """Per-pass layer figures, (value, unit) by metric name: times and
        engine figures per span pass, calls per count pass.  `span_pass_s`
        and `untraced_pass_s` are median pass wall times."""
        selfs, calls = self.self_times()
        c = self.counts
        stats = defaultdict(int)
        for _job, result in self.completions:
            s = result.stats
            for name in ("reds", "polys_loop", "polys_min"):
                stats[name] += getattr(s, name)
            for name in ("deflections", "sig_merges", "killed_q", "purged_t"):
                stats[name] += result.diagnostics[name]
        oracle_s = sum(selfs[name] for name in ORACLE_SPANS)
        crit_calls = calls["signatures.criteria"]
        md_calls, md_hits = c["core.mono_div"]

        def per_pass(x):
            return x / self.passes["spans"]

        def per_count_pass(x):
            return x / self.passes["counts"]

        out = {
            "systems.load_s": (per_pass(selfs["systems.load_builtin"]), "s"),
            "cli.self_s": (per_pass(selfs["cli.main"]), "s"),
            "engine.inv_comp_self_s": (per_pass(selfs["engine.inv_comp"]), "s"),
            "engine.min_bas_s": (per_pass(selfs["engine.min_bas"]), "s"),
        }
        for name in ("reds", "deflections", "sig_merges", "killed_q", "purged_t",
                     "polys_loop", "polys_min"):
            out["engine." + name] = (per_pass(stats[name]), "count")
        out["engine.loop_ratio"] = (stats["polys_min"] / stats["polys_loop"], "ratio")
        out.update({
            "division.partition_calls": (per_pass(calls["division.partition"]), "count"),
            "division.partition_s": (per_pass(selfs["division.partition"]), "s"),
            "division.minimal_completion_s": (
                per_pass(selfs["division.minimal_completion"]), "s"),
            "signatures.criteria_calls": (per_pass(crit_calls), "count"),
            "signatures.criteria_s": (per_pass(selfs["signatures.criteria"]), "s"),
            "signatures.criteria_hit_ratio": (
                c["signatures.criteria"][1] / crit_calls if crit_calls else 0.0, "ratio"),
            "core.key_calls": (per_count_pass(c["core.key"][0]), "count"),
            "core.mono_div_calls": (per_count_pass(md_calls), "count"),
            "core.mono_div_hit_ratio": (md_hits / md_calls if md_calls else 0.0, "ratio"),
            "core.sub_calls": (per_count_pass(c["core.sub"][0]), "count"),
            "core.sub_terms": (per_count_pass(c["core.sub"][1]), "count"),
            "core.mul_term_calls": (per_count_pass(c["core.mul_term"][0]), "count"),
            "oracles.is_groebner_s": (per_pass(selfs["oracles.is_groebner"]), "s"),
            "oracles.is_involutive_s": (per_pass(selfs["oracles.is_involutive"]), "s"),
            "oracles.verify_basis_self_s": (per_pass(selfs["oracles.verify_basis"]), "s"),
            "oracles.time_share": (per_pass(oracle_s) / span_pass_s, "ratio"),
            "oracles.spoly_calls": (per_count_pass(c["oracles.spoly"][0]), "count"),
            "oracles.buchberger_nf_calls": (
                per_count_pass(c["oracles.buchberger_nf"][0]), "count"),
            "oracles.nf_full_calls": (per_count_pass(c["oracles.nf_full"][0]), "count"),
            "trace.overhead_s": (span_pass_s - untraced_pass_s, "s"),
        })
        return out

    def diagnostics_by_job(self) -> dict[str, dict[str, int]]:
        """Engine diagnostics of the last traced completion of each job."""
        out = {}
        for job, result in self.completions:
            out[job.split(":", 1)[1]] = dict(result.diagnostics)
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "job": job,
                }) + "\n")
