"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules with
a timing wrapper, in every ``oidcheck`` namespace that binds it (modules
import each other's functions by name), and ``restore`` puts the original
objects back. A span is (id, parent id, op id, name, start, end); a span's
self time is its duration minus the time its child spans cover. Generator
functions get one span per resumption, so the time goes to whoever asks for
the next item.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "parser", "cli", "normalize", "oid_equiv", "hom", "entail", "evaluation", "oracle", "report",
)

# spans kept for the span file; counts and times cover every span
MAX_KEPT_SPANS = 200_000


def _size(result) -> int:
    return len(result)


def _found(result) -> int:
    return result is not None


def _colored(result) -> int:
    return len(result.instance)


def _refuted(result) -> int:
    return type(result).__name__ == "NormalizeRefutation"


# per-function measures of the returned value, summed into ``Tracer.counts``
RESULT_COUNTERS = {
    "evaluation.matchings": ("results", _size),
    "parser.parse_instance": ("facts", _size),
    "parser.parse_extended_instance": ("facts", _size),
    "normalize.normalize_pair": ("refuted", _refuted),
    "entail.check_jd_implication": ("found", _found),
    "entail.canonical_colored_instance": ("facts", _colored),
    "oracle.search_counterexample_oid": ("found", _found),
    "oracle.search_counterexample_entail": ("found", _found),
}


def public_functions() -> dict:
    """Original function object -> ``layer.name`` for every public function
    defined in a layer module."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"oidcheck.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                out[obj] = f"{layer}.{name}"
    return out


class Tracer:
    def __init__(self):
        self.op = -1
        self.stack: list[list] = []  # [id, name, start, child time, parent name, parent id]
        self.next_id = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls = defaultdict(int)  # name or (parent, name) -> calls
        self.counts = defaultdict(int)  # (measure, name) or ("yields", parent, name)
        self.self_s = defaultdict(float)  # name -> self time
        self.total_s = defaultdict(float)  # name or (parent, name) -> inclusive time
        self.patched: list[tuple] = []  # (module, attribute, original)

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        targets = public_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "oidcheck" and not mod_name.startswith("oidcheck."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def restore(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()

    def _wrap(self, name: str, fn):
        measure = RESULT_COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._call(name)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if measure is not None:
                self.counts[measure[0], name] += measure[1](result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._call(name)
            inner = fn(*args, **kwargs)
            produced = 0
            try:
                while True:
                    frame = self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame)
                    if produced == 0:
                        self.counts["found", name] += 1
                    produced += 1
                    self.counts["yields", frame[4], name] += 1
                    yield item
            finally:
                inner.close()

        return traced

    # -- spans ------------------------------------------------------------------

    def _call(self, name: str) -> None:
        self.calls[name] += 1
        if self.stack:
            self.calls[self.stack[-1][1], name] += 1

    def _enter(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        frame = [self.next_id, name, time.perf_counter(), 0.0, parent[1] if parent else None,
                 parent[0] if parent else -1]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        span_id, name, start, child, parent_name, parent_id = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self.stack:
            self.stack[-1][3] += duration
            self.total_s[parent_name, name] += duration
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent_id, self.op, name, start, end))
        else:
            self.dropped += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\top\tname\tstart\tend\n")
            for span in self.spans:
                out.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % span)

    # -- per-layer metrics --------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.startswith(layer + "."))

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced op unless a share."""

        def per_op(value: float) -> float:
            return value / ops

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        c, n, s, t = self.calls, self.counts, self.self_s, self.total_s
        m = "evaluation.matchings"
        iter_hom = "hom.iter_homomorphisms"
        decide = "entail.decide_entails"
        jd = "entail.check_jd_implication"
        perm = "oid_equiv.equiv_via_permutation"
        mv = "oid_equiv.equiv_via_mv"
        cex = ("oracle.search_counterexample_oid", "oracle.search_counterexample_entail")
        return {
            "evaluation.matchings.calls": (per_op(c[m]), "count/op"),
            "evaluation.matchings.self_s": (per_op(s[m]), "s/op"),
            "evaluation.matchings.results": (per_op(n["results", m]), "count/op"),
            "evaluation.chase.self_s": (per_op(s["evaluation.chase"]), "s/op"),
            "hom.calls": (per_op(c[iter_hom]), "count/op"),
            "hom.self_s": (per_op(self.layer_self("hom")), "s/op"),
            "hom.found_share": (share(n["found", iter_hom], c[iter_hom]), "ratio"),
            "entail.witness.self_s": (per_op(t[decide, iter_hom] + t[decide, jd]), "s/op"),
            "entail.candidates": (per_op(n["yields", decide, iter_hom]), "count/op"),
            "entail.jd_checks": (per_op(c[jd]), "count/op"),
            "entail.jd_success_share": (share(n["found", jd], c[jd]), "ratio"),
            "entail.semantic.self_s": (per_op(t["entail.decide_entails_semantic"]), "s/op"),
            "entail.colored_facts": (per_op(n["facts", "entail.canonical_colored_instance"]), "count/op"),
            "oid_equiv.mv_route.self_s": (per_op(t[mv]), "s/op"),
            "oid_equiv.perm_route.self_s": (per_op(t[perm]), "s/op"),
            "oid_equiv.perm_route.candidates": (per_op(c[perm, "hom.cq_equivalent"]), "count/op"),
            "oid_equiv.perm_route.skipped": (per_op(c[mv] - c[perm]), "count/op"),
            "normalize.self_s": (per_op(self.layer_self("normalize")), "s/op"),
            "normalize.refuted_share": (
                share(n["refuted", "normalize.normalize_pair"], c["normalize.normalize_pair"]), "ratio"),
            "report.self_s": (per_op(self.layer_self("report")), "s/op"),
            "oracle.cex_search.self_s": (per_op(sum(t[x] for x in cex)), "s/op"),
            "oracle.cex_search.found_share": (
                share(sum(n["found", x] for x in cex), sum(c[x] for x in cex)), "ratio"),
            "oracle.oid_isomorphic.self_s": (per_op(s["oracle.oid_isomorphic"]), "s/op"),
            "oracle.satisfies.self_s": (per_op(s["oracle.satisfies_sotgd"]), "s/op"),
            "parser.self_s": (per_op(self.layer_self("parser")), "s/op"),
            "parser.facts_parsed": (
                per_op(n["facts", "parser.parse_instance"] + n["facts", "parser.parse_extended_instance"]),
                "count/op"),
            "cli.self_s": (per_op(self.layer_self("cli")), "s/op"),
        }
