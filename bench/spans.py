"""Boundary spans around monvar's public callables, recorded from outside.

`Tracer.install()` replaces each traced public function (and the two traced
methods) with a wrapper in every monvar module that binds it, so calls made
inside the package go through the wrappers too.  Spans are kept in memory as
``[id, parent, name, start, end, info]`` lists and summarised when the run
ends; nothing under ``src/`` changes.
"""

from __future__ import annotations

import sys
import time

# name of the span -> (module holding the original, attribute); a dotted
# attribute names a method on a class
TRACED = {
    "words.match": ("monvar.words", "match_substitutions"),
    "words.embeds": ("monvar.words", "embeds"),
    "deduction.derivable": ("monvar.deduction", "derivable"),
    "deduction.expand": ("monvar.deduction", "expand"),
    "deduction.one_step_rewrites": ("monvar.deduction", "one_step_rewrites"),
    "deduction.check_derivation": ("monvar.deduction", "check_derivation"),
    "varieties.decide": ("monvar.varieties", "decide_identity"),
    "varieties.lookup": ("monvar.varieties", "lookup"),
    "monoids.from_presentation": ("monvar.monoids", "from_presentation"),
    "monoids.validate": ("monvar.monoids", "FiniteMonoid.validate"),
    "monoids.find_counterexample": ("monvar.monoids", "find_counterexample"),
    "monoids.free_lrb_monoid": ("monvar.monoids", "free_lrb_monoid"),
    "monoids.direct_product": ("monvar.monoids", "direct_product"),
    "lattices.build.partition": ("monvar.lattices", "partition_lattice"),
    "lattices.build.parse": ("monvar.lattices", "parse_lattice"),
    "lattices.element_check.classify": ("monvar.lattices", "classify_element"),
    "lattices.element_check.modular": ("monvar.lattices", "is_modular_element"),
    "lattices.element_check.cancellable": ("monvar.lattices", "is_cancellable_element"),
    "lattices.element_check.costandard": ("monvar.lattices", "is_costandard_element"),
    "lattices.global_check.modular": ("monvar.lattices", "is_modular_lattice"),
    "lattices.global_check.distributive": ("monvar.lattices", "is_distributive_lattice"),
    "verify.run": ("monvar.verify", "run_verification"),
}
GENERATORS = {"words.match"}  # lazily consumed: time only while producing items


def _info(name, args, out):
    """Counts recorded with a span, read from arguments and results."""
    if name == "deduction.expand":
        return len(out[0])
    if name == "deduction.derivable":
        return (out.status, out.explored)
    if name == "varieties.decide":
        verdict = out
        return (args[0].rule, verdict.value, isinstance(verdict.witness, dict))
    if name == "monoids.find_counterexample":
        m, ident = args[0], args[1]
        return len(m) ** len(ident.letters())
    if name in ("monoids.from_presentation", "monoids.free_lrb_monoid",
                "monoids.direct_product") or name.startswith("lattices.build."):
        return len(out)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def open(self, name):
        rec = [len(self.spans), self.stack[-1] if self.stack else -1, name,
               time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def close(self, rec):
        rec[4] = time.perf_counter()
        self.stack.pop()

    def span(self, name, fn, *args, **kwargs):
        """Run fn under a span of its own (used for the benchmark's root spans)."""
        rec = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(rec)

    def _wrap(self, name, fn):
        tracer = self
        if name in GENERATORS:
            def gen_wrapper(*args, **kwargs):
                rec = [len(tracer.spans), tracer.stack[-1] if tracer.stack else -1,
                       name, 0.0, 0.0, False]
                tracer.spans.append(rec)
                inner = fn(*args, **kwargs)
                while True:
                    t = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        rec[4] += time.perf_counter() - t
                        return
                    rec[4] += time.perf_counter() - t
                    rec[5] = True
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                rec[5] = _info(name, args, out)
                return out
            finally:
                tracer.close(rec)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every traced callable wherever a monvar module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "monvar" or n.startswith("monvar.")) and m is not None]
        for name, (modname, attr) in TRACED.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig and not key.startswith("_"):
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()


# ---------------------------------------------------------------------------
# summaries

def durations(spans):
    """Duration and self time of every span (generator spans: time producing)."""
    dur = [0.0] * len(spans)
    child = [0.0] * len(spans)
    for s in spans:
        dur[s[0]] = s[4] if s[2] in GENERATORS else s[4] - s[3]
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += dur[s[0]]
    return dur, [d - c for d, c in zip(dur, child)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def group_of(name: str) -> str:
    """lattices.element_check.modular -> lattices.element_check, etc."""
    parts = name.split(".")
    return ".".join(parts[:2])


def summarise(spans) -> dict:
    """Per-layer metrics named in BENCHMARK.json, from one traced run."""
    dur, self_t = durations(spans)
    by_id = {s[0]: s for s in spans}
    m: dict[str, float] = {}

    def add(key, val):
        m[key] = m.get(key, 0.0) + val

    def outermost(s):
        # first span of its group on the path to the root
        p = s[1]
        return p < 0 or group_of(by_id[p][2]) != group_of(s[2])

    for s in spans:
        name, info = s[2], s[5]
        layer, group = layer_of(name), group_of(name)
        add(f"self_s.{layer}", self_t[s[0]])
        add(f"{group}.self_s", self_t[s[0]])
        if outermost(s):
            add(f"{group}.calls", 1)
            add(f"{group}.s", dur[s[0]])
        if name == "words.match":
            add("words.match.hits", 1 if info else 0)
        elif name == "deduction.expand":
            add("deduction.expand.successors", info)
        elif name == "deduction.derivable":
            add("deduction.first_seen", info[1] - 1)
        elif name == "varieties.decide":
            rule, value, refuted = info
            kind = {"finite-model": "model", "deduction-only": "deduction"}.get(rule, "rule")
            add(f"varieties.decide.calls.{kind}", 1)
            add(f"varieties.decide.s.{kind}", dur[s[0]])
            if value == "fails":
                add("varieties.fails", 1)
                if kind == "deduction" and refuted:
                    add("varieties.fails_after_search", 1)
        elif name == "monoids.find_counterexample":
            add("monoids.cells", info)
            parent = by_id.get(s[1])
            if parent is not None and parent[2] == "varieties.decide" \
                    and parent[5] is not None and parent[5][0] == "deduction-only":
                add("varieties.refute.calls", 1)
                add("varieties.refute.s", dur[s[0]])
        elif name in ("monoids.from_presentation",):
            add("monoids.elements_built", info)
        elif name.startswith("lattices.build."):
            add("lattices.elements_built", info)
    return m
