"""Catalog of named monoid varieties and their decision procedures.

Each entry carries a defining identity basis and/or a generating finite
monoid, plus a decision rule tag.  Every catalog model is given as a
zero-argument builder, called on the first read of `model` and kept, so
`catalog` and `lookup` build no table.  The cyclic commutative rule entries
(SL, COM, C<n>, A<m>) are rows of one table: each is decided, and a
failure witnessed, by the occurrence counts in its generating monoid (for
COM a counter past the first differing count), with no table.  LRB is
decided by initial parts and its model is read only to witness a failure.
Finite-model entries are decided by exhaustive model checking; the rest
fall back to bounded deduction plus a fixed pool of five cyclic commutative
monoids, those that satisfy the basis, which refute from occurrence counts
too, answering unknown honestly when both are silent.  Word-level work,
refutations included, never builds a table.  The `monoids` module is bound
as the package binds it, executed on first use, and only a table reads it,
so a verdict that reads no model runs neither `monoids` nor numpy.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

from . import monoids
from .deduction import NO, UNKNOWN, YES, IdentitySystem, derivable, system
from .words import Bounds, Identity, initial_part, occ, parse_word

HOLDS = "holds"
FAILS = "fails"

RULE_LRB = "LRB-ini"
RULE_COM = "COM-occ"
RULE_SL = "SL-content"
RULE_CN = "Cn-cappedocc"
RULE_AM = "Am-modocc"
RULE_MODEL = "finite-model"
RULE_DEDUCTION = "deduction-only"


@dataclass
class Verdict:
    value: str  # HOLDS, FAILS or UNKNOWN
    witness: object = None  # assignment dict or Derivation, when one exists
    reason: str = ""

    def __bool__(self):
        return self.value == HOLDS


class _Model:
    """The `model` field of VarietySpec: the monoid given, or, when given a
    zero-argument builder, the monoid it returns, built on the first read
    and kept, so every read returns the same object."""

    def __get__(self, spec, owner=None):
        if spec is None:
            return None  # the field's default
        if callable(spec._model):
            spec._model = spec._model()
        return spec._model

    def __set__(self, spec, model):
        spec._model = model


@dataclass
class VarietySpec:
    """A named variety: a basis, a generating monoid, or both, and the rule
    that decides its word problem.  `model` takes the monoid or a
    zero-argument builder of it, called on the first read of `model`."""

    name: str
    basis: IdentitySystem | None = None
    model: monoids.FiniteMonoid | Callable[[], monoids.FiniteMonoid] | None = _Model()
    rule: str = RULE_DEDUCTION
    param: int | None = None

    def __post_init__(self):
        if self.basis is None and self._model is None:
            raise ValueError(f"variety {self.name} needs a basis or a model")

    @cached_property
    def _refuters(self) -> tuple[_Cyclic, ...]:
        """The rows of the refutation pool whose monoids satisfy the basis of
        a deduction-only variety, in pool order; () under any other rule."""
        if self.rule != RULE_DEDUCTION:
            return ()
        return tuple(row for row in _POOL
                     if all(row.witness(ident) is None for ident in self.basis))

    @cached_property
    def refutation_models(self) -> tuple[monoids.FiniteMonoid, ...]:
        """Members of a deduction-only variety among a fixed pool of small
        monoids, for refuting identities; () under any other rule.  The
        tables are built when this is first read; decide_identity refutes
        from the occurrence counts instead."""
        return tuple(row.monoid() for row in self._refuters)


# ---------------------------------------------------------------------------
# the two structure words generating K, and the surrounding family W

K_LHS = parse_word("y2xt2z2y2t2xz2")
K_RHS = parse_word("y2xt2z2xy2t2xz2")
K_IDENTITY = Identity(K_LHS, K_RHS)

W1 = "W1"
W2 = "W2"
OUTSIDE = "outside"

# the run shapes of the two structure words: (letter, exact), where exact
# pins a run of length 1 and a free run has length at least 2
_W_SHAPES = tuple((label, tuple((c, len(list(g)) == 1) for c, g in itertools.groupby(w)))
                  for label, w in ((W1, K_LHS), (W2, K_RHS)))
# one pattern per shape: an exact run is its letter, a free run two or more;
# neighbouring runs differ in letter, so a match splits a word into its runs
_W_PATTERNS = tuple((label, re.compile("".join(c if exact else f"{c}{c}+" for c, exact in shape)))
                    for label, shape in _W_SHAPES)


def membership_in_W(word: str) -> str:
    """Classify into the two-sided family around the K identity."""
    for label, pattern in _W_PATTERNS:
        if pattern.fullmatch(word):
            return label
    return OUTSIDE


def enumerate_W(exponents=(2, 3)):
    """All family members whose run exponents come from the given set."""
    out = []
    for _, shape in _W_SHAPES:
        free = sum(not exact for _, exact in shape)
        for combo in itertools.product(exponents, repeat=free):
            exps = iter(combo)
            out.append("".join(c * (1 if exact else next(exps)) for c, exact in shape))
    return out


# ---------------------------------------------------------------------------
# catalog


def _named(name: str) -> Callable[[], monoids.FiniteMonoid]:
    """A builder of `named_monoid(name)`, which runs `monoids` only when called."""
    return lambda: monoids.named_monoid(name)


@lru_cache(maxsize=None)
def _semilattice_2():
    return monoids.from_table(["1", "e"], [["1", "e"], ["e", "e"]], "1")


# the four identities that D2's basis shares with RvRop's
_D2_RVROP_COMMON = ("x3yzt=yxzxtx", "xyzxty=yxzxty", "xzxyty=xzyxty", "xtyzxy=xtyzyx")


def model_contains_basis(m: monoids.FiniteMonoid, basis: IdentitySystem) -> bool:
    return all(monoids.find_counterexample(m, ident) is None for ident in basis)


# name -> the fixed entry's settings, built on the entry's first lookup; each
# model is a builder, called on the first read of the spec's `model`
_FIXED = {
    "T": lambda: dict(basis=system("x=1"), model=_named("group:1"), rule=RULE_MODEL),
    "SL": lambda: dict(basis=system("x2=x", "xy=yx"), model=_SEMILATTICE.monoid,
                       rule=RULE_SL),
    "COM": lambda: dict(basis=system("xy=yx"), rule=RULE_COM),
    "MON": lambda: dict(basis=IdentitySystem(frozenset(), "MON")),
    "D": lambda: dict(basis=system("x2=x3", "x2y=xyx", "xyx=yx2", name="D")),
    "D2": lambda: dict(basis=system("x3=x2", *_D2_RVROP_COMMON, name="D2"),
                       model=_named("D2"), rule=RULE_MODEL),
    "E": lambda: dict(basis=system("x2=x3", "x2y=xyx", "x2y2=y2x2", name="E")),
    "K": lambda: dict(basis=system(K_IDENTITY, name="K")),
    "LRB": lambda: dict(basis=system("xy=xyx"), model=_named("lrb:3"), rule=RULE_LRB),
    "Q": lambda: dict(basis=system("yxyzxy=yxzxyxz", name="Q")),
    "R": lambda: dict(model=_named("R"), rule=RULE_MODEL),
    "Rop": lambda: dict(model=_named("Rop"), rule=RULE_MODEL),
    "RvRop": lambda: dict(basis=system("x4=x3", *_D2_RVROP_COMMON, name="RvRop"),
                          model=_named("RxRop"), rule=RULE_MODEL),
}


@lru_cache(maxsize=None)
def _fixed_entry(name: str) -> VarietySpec:
    return VarietySpec(name, **_FIXED[name]())


def variety_C(n: int) -> VarietySpec:
    """Commutative counter varieties: x^n = x^(n+1) with commutation."""
    if n < 2:
        raise ValueError("variety_C needs n >= 2")
    basis = system(f"x{n}=x{n + 1}", "xy=yx", name=f"C{n}")
    return VarietySpec(f"C{n}", basis=basis, model=_counter(n).monoid, rule=RULE_CN, param=n)


def variety_B(n: int) -> VarietySpec:
    if n < 1:
        raise ValueError("variety_B needs n >= 1")
    return VarietySpec(f"B{n}", basis=system(f"x{n}=x{n + 1}", name=f"B{n}"), param=n)


def variety_A(m: int) -> VarietySpec:
    """Abelian groups of exponent m (as monoids)."""
    if m < 1:
        raise ValueError("variety_A needs m >= 1")
    # parsed, so an x^m past MAX_WORD_LEN is refused
    basis = system("xy=yx", f"x{m}=1", name=f"A{m}")
    return VarietySpec(f"A{m}", basis=basis, model=_group(m).monoid, rule=RULE_AM, param=m)


def variety_Z(n: int, v: str) -> VarietySpec:
    """Two-identity stabilizer family: x^(n+1)=x^(n+2) and x^n v = x^(n+1) v."""
    if n < 1:
        raise ValueError("variety_Z needs n >= 1")
    xs = parse_word(f"x{n + 2}")  # parsed, so refused past MAX_WORD_LEN
    basis = system(Identity(xs[1:], xs), Identity(xs[2:] + v, xs[1:] + v), name=f"Z:{n}:{v}")
    return VarietySpec(f"Z:{n}:{v}", basis=basis, param=n)


_FAMILY = re.compile(r"([CBA])(\d+)$")
_FAMILIES = {"C": variety_C, "B": variety_B, "A": variety_A}


def lookup(name: str) -> VarietySpec:
    """Resolve a catalog or family name (C7, B2, A5, Z:2:xy, underscores ok).

    A fixed entry is built on its first lookup, and every later lookup
    returns that same spec; a family name builds a new spec each time.  No
    lookup builds a monoid: a spec's generating monoid is built on the
    first read of its `model`.  A finite-model verdict reads it, and so does
    an LRB failure, to name its counterexample; no cyclic rule verdict does."""
    key = name.replace("_", "").strip()
    if key in _FIXED:
        return _fixed_entry(key)
    m = _FAMILY.match(key)
    if m:
        return _FAMILIES[m.group(1)](int(m.group(2)))
    if key.startswith("Z:"):
        parts = key.split(":")
        if len(parts) != 3:
            raise KeyError(f"Z family names look like Z:<n>:<word>, got {name!r}")
        try:
            n = int(parts[1])
        except ValueError:  # Z:a:x is no family member
            raise KeyError(f"unknown variety {name!r}") from None
        return variety_Z(n, parse_word(parts[2]))
    raise KeyError(f"unknown variety {name!r}")


def catalog() -> dict[str, VarietySpec]:
    """All fixed named entries plus the smallest family instances, their
    models unbuilt, as `lookup` returns them."""
    out = {name: _fixed_entry(name) for name in _FIXED}
    for spec in (variety_C(2), variety_C(3), variety_B(2), variety_A(2)):
        out[spec.name] = spec
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# cyclic commutative models, decided from occurrence counts


@dataclass(frozen=True)
class _Cyclic:
    """A cyclic commutative monoid 1, g, g^2, ..., decided by occurrence counts.

    A letter that occurs k times in a word and is sent to the generator g
    gives the word the value g^power(k) when every other letter goes to 1.
    So an identity holds in the monoid iff every letter has equal powers on
    both sides.  `monoid` builds the same monoid as a table, with g as its
    element 1."""

    power: Callable[[int], int]
    order: int
    generator: str
    monoid: Callable[[], monoids.FiniteMonoid]

    def witness(self, ident: Identity) -> dict[str, str] | None:
        """The violating assignment that sends one letter c to the generator
        and every other letter to 1, for the last c in sorted order whose
        powers differ, or None if the identity holds.

        The letters whose powers agree never separate the sides, so this is
        find_counterexample's lexicographically first witness in `monoid`,
        found without a table."""
        c = next((c for c in sorted(ident.letters(), reverse=True)
                  if self.power(occ(ident.lhs, c)) != self.power(occ(ident.rhs, c))), None)
        if c is None:
            return None
        return {d: self.generator if d == c else "1" for d in sorted(ident.letters())}


def _counter(n: int) -> _Cyclic:
    """counter:n, 1, a, ..., a^(n-1), 0: the count capped at n."""
    return _Cyclic(lambda k: min(k, n), n + 1, "a", _named(f"counter:{n}"))


def _group(m: int) -> _Cyclic:
    """group:m, 1, g, ..., g^(m-1): the count mod m."""
    return _Cyclic(lambda k: k % m, m, "g", _named(f"group:{m}"))


_SEMILATTICE = _Cyclic(lambda k: min(k, 1), 2, "e", _semilattice_2)

# the refutation pool of deduction-only entries, in the order it is tried
_POOL = (_SEMILATTICE, _counter(2), _counter(3), _group(2), _group(3))


# ---------------------------------------------------------------------------
# the word problem


# rule tag -> (the row of its generating monoid, given the parameter; reason
# when the identity holds there; reason when it fails).  The reasons are
# formatted with the parameter p, the contents l and r of the two sides, and
# bad, the first letter (in sorted order) whose occurrence counts differ.
_CYCLIC_RULES = {
    RULE_SL: (lambda p: _SEMILATTICE, "equal contents", "contents differ: {l} vs {r}"),
    RULE_COM: (_counter, "equal occurrence counts", "occurrence counts differ at {bad}"),
    RULE_CN: (_counter, "occurrence counts agree capped at {p}",
              "occurrence counts differ capped at {p}"),
    RULE_AM: (_group, "occurrence counts agree mod {p}", "occurrence counts differ mod {p}"),
}


def decide_identity(v: VarietySpec, ident: Identity,
                    bounds: Bounds = Bounds()) -> Verdict:
    lhs, rhs = ident.lhs, ident.rhs

    if v.rule in _CYCLIC_RULES:
        row, agree, differ = _CYCLIC_RULES[v.rule]
        bad = next((c for c in sorted(ident.letters()) if occ(lhs, c) != occ(rhs, c)), None)
        # COM has no model: a counter that counts past bad's occurrences
        p = max(occ(lhs, bad), occ(rhs, bad)) + 1 if v.rule == RULE_COM and bad else v.param
        witness = row(p).witness(ident) if bad else None  # no counts differ: it holds
        if witness is None:
            return Verdict(HOLDS, reason=agree.format(p=p))
        l, r = ("".join(sorted(set(w))) or "1" for w in (lhs, rhs))
        return Verdict(FAILS, witness=witness, reason=differ.format(l=l, r=r, p=p, bad=bad))

    if v.rule == RULE_LRB:
        l, r = initial_part(lhs) or "1", initial_part(rhs) or "1"
        if l == r:
            return Verdict(HOLDS, reason=f"equal initial parts ({l})")
        try:
            witness = monoids.find_counterexample(v.model, ident)
        except monoids.SearchCapExceeded:  # the rule has decided
            witness = None
        return Verdict(FAILS, witness=witness, reason=f"initial parts differ: {l} vs {r}")

    if v.rule == RULE_MODEL:
        cx = monoids.find_counterexample(v.model, ident)
        if cx is None:
            return Verdict(HOLDS, reason=f"holds in the generating monoid of order {len(v.model)}")
        return Verdict(FAILS, witness=cx, reason="fails in the generating monoid")

    # deduction plus refutation models
    res = derivable(lhs, rhs, v.basis, bounds.max_len, bounds.max_depth)
    if res.status == YES:
        return Verdict(HOLDS, witness=res.derivation,
                       reason=f"derived from the basis in {len(res.derivation)} steps")
    if res.status == NO:
        return Verdict(FAILS, reason="rewrite closure exhausted without reaching the"
                                     " other side (not derivable)")
    for row in v._refuters:
        cx = row.witness(ident)
        if cx is not None:
            return Verdict(FAILS, witness=cx,
                           reason=f"fails in a member monoid of order {row.order}")
    return Verdict(UNKNOWN, reason="derivation search truncated by bounds and no"
                                   " refutation model applies")


# ---------------------------------------------------------------------------
# isoterms


def is_isoterm_power(v: VarietySpec, n: int) -> bool:
    """Is x^n an isoterm for the variety of the registered generating monoid?

    Criterion: some element's index exceeds n, equivalently the monoid
    violates x^n = x^(n+m) for every positive m."""
    if v.model is None:
        raise ValueError(f"variety {v.name} has no registered generating monoid")
    return monoids.monoid_index_period(v.model).index > n
