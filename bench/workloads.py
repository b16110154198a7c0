"""What each in-process workload resolves at set-up, how it runs a query and
how the answer is checked.

Only public monvar names are used, always looked up on the package at call
time so the tracer's wrappers see every call.  Named monoids come from
``lookup(name).model`` or the public constructors.
"""

from __future__ import annotations

import monvar

import gen
import oracle

DEDUCE_BOUNDS = monvar.Bounds(*gen.DEDUCE_BOUNDS)


class Context:
    """Catalog entries, systems and monoids a workload resolved at set-up,
    plus the monoids its `present` queries built."""

    def __init__(self):
        self.specs = {}
        self.systems = {}
        self.models = {}
        self.built = {}


def resolve_deduce(ctx: Context):
    for name in gen.BASES:
        ctx.specs[name] = monvar.lookup(name)
    ctx.systems["D"] = ctx.specs["D"].basis
    ctx.systems["D-single"] = monvar.system(gen.D_SINGLE, name="D-single")


def resolve_models(ctx: Context):
    ctx.models["RvRop"] = monvar.lookup("RvRop").model
    for k in (3, 4):
        ctx.models[f"lrb:{k}"] = monvar.free_lrb_monoid(k)
    for m in range(2, 8):
        ctx.models[f"group:{m}"] = monvar.cyclic_group(m)


def resolve_lattices(ctx: Context):
    pass  # every lattice is built by a timed query


def resolve_cli(ctx: Context):
    """What the CLI calls resolve: the catalog and the bundled lattices."""
    for name in monvar.catalog():
        ctx.specs[name] = monvar.lookup(name)
    monvar.fixtures()


RESOLVE = {"deduce": resolve_deduce, "models": resolve_models,
           "lattices": resolve_lattices, "cli": resolve_cli}


# ---------------------------------------------------------------------------
# operations: each returns a list of (label, callable) timed one by one


def operations(ctx: Context, q: dict):
    kind = q["kind"]
    if kind == "decide":
        spec = ctx.specs[q["variety"]]
        ident = monvar.Identity(q["lhs"], q["rhs"])
        return [("decide", lambda: monvar.decide_identity(spec, ident, DEDUCE_BOUNDS))]
    if kind == "derive":
        sys_ = ctx.systems[q["system"]]
        return [("derive", lambda: monvar.derivable(q["lhs"], q["rhs"], sys_,
                                                    *gen.DERIVE_BOUNDS))]
    if kind == "embeds":
        return [("embeds", lambda: monvar.embeds(q["lhs"], q["rhs"]))]
    if kind == "present":
        def build():
            m = monvar.from_presentation(monvar.presentation(q["gens"], *q["rels"]))
            m.validate()
            ctx.built[gen.model_key(q)] = m
            return m
        return [("build", build)]
    if kind == "check":
        def check():
            m = ctx.built.get(q["model"]) or ctx.models[q["model"]]
            return m, monvar.find_counterexample(m, monvar.Identity(q["lhs"], q["rhs"]))
        return [("check", check)]
    if kind in ("partition", "downset"):
        return _lattice_operations(q)
    raise ValueError(f"unknown query kind {kind!r}")


def _lattice_operations(q):
    """Build once, classify every element, then the two global checks.  The
    element operations read the lattice the build operation produced."""
    holder = {}

    def build():
        if q["kind"] == "partition":
            holder["lat"] = monvar.partition_lattice(q["k"])
        else:
            holder["lat"] = monvar.parse_lattice(q["text"])
        return holder["lat"]

    size = oracle.bell(q["k"]) if q["kind"] == "partition" else q["size"]
    ops = [("build", build)]
    for i in range(size):
        ops.append(("element", lambda i=i: (i, monvar.classify_element(holder["lat"], i))))
    ops.append(("modular", lambda: monvar.is_modular_lattice(holder["lat"])))
    ops.append(("distributive", lambda: monvar.is_distributive_lattice(holder["lat"])))
    return ops


# ---------------------------------------------------------------------------
# verdicts and oracles


def decided(q: dict, label: str, out) -> bool:
    """Did the operation give a definite answer within its bounds?"""
    if label == "decide":
        return out.value in (monvar.HOLDS, monvar.FAILS)
    if label == "derive":
        return out.status in (monvar.YES, monvar.NO)
    return True


def _pairs(sys_) -> set:
    return {(i.lhs, i.rhs) for i in sys_.identities}


def check(ctx: Context, q: dict, label: str, out, state: dict) -> str | None:
    """None when the answer passes its oracle, else a one-line reason.

    `state` carries the lattice built by a query's build operation to the
    checks of its element operations."""
    kind = q["kind"]
    if kind == "decide":
        spec = ctx.specs[q["variety"]]
        return _check_decide(spec, q, out)
    if kind == "derive":
        sys_ = ctx.systems[q["system"]]
        if out.status != monvar.YES:
            return f"expected a derivation, got {out.status}"
        return _check_derivation(out.derivation, sys_, q)
    if kind == "embeds":
        want = oracle.embeds(q["lhs"], q["rhs"])
        return None if out == want else f"embeds gave {out}, brute force {want}"
    if kind == "present":
        return None if len(out) == q["order"] else \
            f"order {len(out)}, independent count {q['order']}"
    if kind == "check":
        m, cx = out
        if q["expect"] == "holds":
            return None if cx is None else f"expected to hold, counterexample {cx}"
        if cx is None:
            return "expected a counterexample, got none"
        return None if oracle.violates(m, q["lhs"], q["rhs"], cx) else \
            f"counterexample {cx} does not violate the identity"
    return _check_lattice(q, label, out, state)


def _check_derivation(deriv, sys_, q):
    if not monvar.check_derivation(deriv, sys_):
        return "check_derivation rejects the witness"
    if not oracle.derivation_ok(deriv, _pairs(sys_), q["lhs"], q["rhs"]):
        return "the witness does not replay from lhs to rhs"
    return None


def _check_decide(spec, q, verdict):
    value, wit = verdict.value, verdict.witness
    expect = q["expect"]
    if expect in ("holds", "fails") and value != expect:
        return f"expected {expect}, got {value}"
    if value == monvar.HOLDS:
        return _check_derivation(wit, spec.basis, q)
    if value == monvar.FAILS:
        if isinstance(wit, dict) and not any(
                oracle.violates(m, q["lhs"], q["rhs"], wit) for m in spec.refutation_models):
            return f"counterexample {wit} violates the identity in no refutation model"
        return None
    # an honest unknown: no registered refutation model refutes the identity
    if any(not oracle.holds_everywhere(m, q["lhs"], q["rhs"]) for m in spec.refutation_models):
        return "unknown although a refutation model refutes the identity"
    return None


def _check_lattice(q, label, out, state):
    partition = q["kind"] == "partition"
    if label == "build":
        state["lat"] = out
        want = oracle.bell(q["k"]) if partition else q["size"]
        return None if len(out) == want else f"{len(out)} elements, expected {want}"
    lat = state["lat"]
    if label == "element":
        i, rep = out
        if partition:
            want = oracle.partition_modular(lat.names[i])
            return None if rep.modular.ok == want else \
                f"element {lat.names[i]}: modular={rep.modular.ok}, rule says {want}"
        if rep.modular.ok and rep.cancellable.ok and rep.costandard.ok:
            return None
        return f"element {lat.names[i]} of a distributive lattice flagged {rep}"
    if label == "modular":
        want = (q["k"] <= 3) if partition else True
    else:
        want = (q["k"] <= 2) if partition else True
    return None if out.ok == want else f"{label}: {out.ok}, expected {want}"
