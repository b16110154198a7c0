"""Replay of the desk-scale facts the package is built around.

Each check re-establishes one verifiable statement from first principles:
brute-force lattice scans against closed-form rules, deduction chains
validated step by step, presented monoids tested against their recorded
identity bases, and random cross-checks between independent decision
procedures.  `run_verification` executes all of them and reports
machine-readable pass/fail lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .deduction import (
    YES,
    Derivation,
    RewriteStep,
    check_derivation,
    derivable,
    one_step_rewrites,
    system,
)
from .lattices import (
    all_partitions,
    fixtures,
    is_cancellable_element,
    is_distributive_lattice,
    is_modular_element,
    is_modular_lattice,
    jezek_modular,
    partition_lattice,
)
from .monoids import find_counterexample, relatively_free
from .varieties import (
    FAILS,
    HOLDS,
    K_LHS,
    K_RHS,
    OUTSIDE,
    decide_identity,
    enumerate_W,
    is_isoterm_power,
    lookup,
    membership_in_W,
    model_contains_basis,
)
from .words import Identity, Substitution, delete_letters, format_word, initial_part, occ
from .words import parse_identity, parse_word, reverse


@dataclass
class ReportEntry:
    name: str
    anchor: str
    status: str  # "pass" or "fail"
    detail: str = ""


@dataclass
class VerificationReport:
    entries: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def machine_lines(self) -> list[str]:
        return [f"CHECK {e.name} {e.status}" for e in self.entries]

    def render_text(self) -> str:
        lines = []
        for e in self.entries:
            mark = "PASS" if e.status == "pass" else "FAIL"
            lines.append(f"[{mark}] {e.name}: {e.anchor}")
            if e.detail:
                lines.append(f"       {e.detail}")
        passed = sum(e.status == "pass" for e in self.entries)
        lines.append(f"{len(self.entries)} checks: {passed} passed,"
                     f" {len(self.entries) - passed} failed")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the explicit rewrite chain joining the two structure words

_COMM = parse_identity("x2y=yx2")  # squares commute with everything
_CUBE = parse_identity("x2=x3")

# moves: (identity, window start, square letter, passed block, flipped)
# flipped=False rewrites letter^2.block -> block.letter^2, flipped=True back
_CHAIN_MOVES = (
    ("comm", 0, "y", "x", False),
    ("comm", 9, "t", "x", False),
    ("comm", 7, "y", "x", False),
    ("comm", 5, "z", "x", False),
    ("comm", 3, "t", "x", False),
    ("comm", 1, "y", "x", False),
    ("comm", 6, "z", "yy", False),
    ("comm", 4, "t", "yy", False),
    ("comm", 8, "z", "tt", False),
    ("cube", 0, "x", "", False),
    ("comm", 0, "y", "xxx", True),
    ("comm", 4, "t", "xyy", True),
    ("comm", 3, "t", "x", True),
    ("comm", 5, "z", "xxyytt", True),
    ("comm", 8, "y", "x", True),
    ("comm", 10, "t", "x", True),
)


def commutation_chain() -> Derivation:
    """The 16-step derivation joining the two structure words over
    {x2=x3, x2y=yx2}, built move by move and length-checked as it goes."""
    word = K_LHS
    words = [word]
    steps = []
    for kind, pos, letter, block, flipped in _CHAIN_MOVES:
        if kind == "cube":
            ident, mapping, width = _CUBE, (("x", letter),), 2
        else:
            ident, mapping = _COMM, (("x", letter), ("y", block))
            width = len(block) + 2
        step = RewriteStep(prefix=word[:pos], identity=ident, flipped=flipped,
                           mapping=mapping, suffix=word[pos + width:])
        if step.source != word:
            raise RuntimeError(f"chain move {len(steps)} does not match the word")
        word = step.target
        words.append(word)
        steps.append(step)
    return Derivation(words=tuple(words), steps=tuple(steps))


# ---------------------------------------------------------------------------
# individual checks; each returns a detail string or raises AssertionError


def _require(ok, message=""):
    """Raise AssertionError(message) unless ok; unlike assert, kept under python -O.

    A message that formats values is passed as a function returning it, so
    the text is built only on failure."""
    if not ok:
        raise AssertionError(message() if callable(message) else message)


def _check_fig1():
    lat = fixtures()["fig1"]
    for el in ("x", "y"):
        res = is_cancellable_element(lat, el)
        _require(res.ok, lambda: f"{el} should be cancellable, witness {res.witness}")
    res = is_cancellable_element(lat, "xvy")
    _require(not res.ok, "the join xvy should not be cancellable")
    _require(res.witness == ("a", "c"), lambda: f"unexpected witness {res.witness}")
    return "x, y cancellable; xvy refuted by the pair (a, c)"


def _check_fig2():
    lat = fixtures()["fig2"]
    mod = is_modular_lattice(lat)
    _require(mod.ok, lambda: f"expected a modular lattice, witness {mod.witness}")
    dist = is_distributive_lattice(lat)
    _require(not dist.ok, "the lattice should not be distributive")
    x, y, z = dist.witness
    lhs = lat.meet_of(x, lat.join_of(y, z))
    rhs = lat.join_of(lat.meet_of(x, y), lat.meet_of(x, z))
    _require(lhs != rhs, "reported witness does not violate distributivity")
    _require(lat.meet_of("D2", "R") == "D")
    _require(lat.join_of("D2", "R") == "RvRop")
    return f"modular; distributivity fails at ({x}, {y}, {z}); D2^R=D, D2vR=RvRop"


def _check_partitions():
    partitions = {k: all_partitions(k) for k in (2, 3, 4, 5)}
    counts = [len(partitions[k]) for k in (3, 4, 5)]
    _require(counts == [5, 15, 52], lambda: f"partition counts off: {counts}")
    for k, parts in partitions.items():
        lat = partition_lattice(k)
        _require(len(lat) == len(parts), lambda: f"lattice size off for k={k}")
        for p in parts:
            brute = bool(is_modular_element(lat, p.label))
            _require(brute == jezek_modular(p),
                     lambda: f"rule and brute force disagree on {p.label} for k={k}")
    modular4 = sum(jezek_modular(p) for p in partitions[4])
    _require(modular4 == 12, lambda: f"expected 12 modular elements for k=4, got {modular4}")
    return "brute force matches the one-fused-block rule up to k=5; 12 of 15 at k=4"


def _rule_verdicts(spec, rng, letters, where=""):
    """Yield (identity, holds) for 200 random identities over letters, each
    rule verdict checked against the generating monoid on the way, which
    answers from its relatively free monoid on as many generators."""
    relatively_free(spec.model, len(letters))
    for _ in range(200):
        u = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 9)))
        v = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 9)))
        ident = Identity(u, v)
        holds = decide_identity(spec, ident).value == HOLDS
        _require(holds == (find_counterexample(spec.model, ident) is None),
                 lambda: f"disagreement on {ident}{where}")
        yield ident, holds


def _check_lrb_rule():
    spec = lookup("LRB")
    _require(decide_identity(spec, parse_identity("xy=xyx")).value == HOLDS)
    _require(decide_identity(spec, parse_identity("xy=yx")).value == FAILS)
    agree = 0
    for ident, holds in _rule_verdicts(spec, random.Random(20260814), "xyz"):
        _require(holds == (initial_part(ident.lhs) == initial_part(ident.rhs)),
                 lambda: f"closed form off on {ident}")
        agree += 1
    return f"initial-part rule matches the 16-element model on {agree} random identities"


def _check_abelian_rule():
    rng = random.Random(97)
    total = sum(1 for m in (2, 3)
                for _ in _rule_verdicts(lookup(f"A{m}"), rng, "xy", f" at exponent {m}"))
    return f"occurrences-mod-m rule matches cyclic groups on {total} random identities"


def _check_presented_bases():
    d2 = lookup("D2")
    _require(set(d2.model.names) == {"1", "a", "b", "ab", "ba", "aba", "0"})
    _require(model_contains_basis(d2.model, d2.basis), "7-element monoid breaks its basis")
    _require(find_counterexample(d2.model, parse_identity("x2=x")) is not None)

    r = lookup("R").model
    _require(set(r.names) == {"1", "a", "b", "a2", "ab", "a2b", "0"})

    rvrop = lookup("RvRop")
    _require(len(rvrop.model) == 49)
    _require(model_contains_basis(rvrop.model, rvrop.basis), "product breaks its basis")
    _require(find_counterexample(rvrop.model, parse_identity("x2=x3")) is not None)
    return "both presented monoids validate and satisfy their five-identity bases"


def _check_d_single_basis():
    single = system("x3yz=yxzx", name="D-single")
    basis = lookup("D").basis
    for ident in basis.ordered():
        res = derivable(ident.lhs, ident.rhs, single, max_len=8, max_depth=4)
        _require(res.status == YES, lambda: f"{ident} not reachable from the one-identity form")
        check_derivation(res.derivation, single, strict=True)
    back = derivable(parse_word("x3yz"), parse_word("yxzx"), basis,
                     max_len=8, max_depth=6)
    _require(back.status == YES, "one-identity form not reachable from the basis")
    check_derivation(back.derivation, basis, strict=True)
    return "three-identity system and x3yz=yxzx derive each other within length 8"


def _check_chain():
    chain = commutation_chain()
    _require((chain.words[0], chain.words[-1]) == ("yyxttzzyyttxzz", "yyxttzzxyyttxzz"))
    _require(len(chain) == 16, lambda: f"chain has {len(chain)} steps")
    check_derivation(chain, system("x2=x3", "x2y=yx2"), strict=True)
    return "16 steps, each validated against {x2=x3, x2y=yx2}"


def _check_w_stability():
    ksys = lookup("K").basis
    words = enumerate_W((2, 3))
    _require(len(words) == 128, lambda: f"expected 128 family members, got {len(words)}")
    _require(membership_in_W(K_LHS) == "W1" and membership_in_W(K_RHS) == "W2")
    images = moved = 0
    for w in words:
        for target in one_step_rewrites(w, ksys, 21):
            _require(membership_in_W(target) != OUTSIDE,
                     lambda: f"{format_word(w)} rewrites outside the family"
                             f" to {format_word(target)}")
            images += 1
            moved += target != w
    _require(moved > 0, "K rewrites no family member to a different word")
    return f"all {images} one-step images of the 128 family members stay inside"


def _check_isoterm_powers():
    checked = 0
    for c in (2, 3, 4, 5):
        spec = lookup(f"C{c}")
        relatively_free(spec.model, 1)  # every identity below is in x alone
        for n in (1, 2, 3, 4):
            # not an isoterm exactly when some bounded power collapse holds
            collapse = any(
                find_counterexample(spec.model, Identity("x" * n, "x" * (n + m))) is None
                for m in range(1, 5))
            _require(is_isoterm_power(spec, n) == (not collapse),
                     lambda: f"mismatch at counter({c}), n={n}")
            checked += 1
    return f"index threshold agrees with bounded power collapse in {checked} cases"


def _check_word_laws():
    rng = random.Random(3517)
    for _ in range(1000):
        w = "".join(rng.choice("abcde") for _ in range(rng.randrange(0, 11)))
        _require(parse_word(format_word(w)) == w)
        _require(reverse(reverse(w)) == w)
        # initial-part idempotence
        ip = initial_part(w)
        _require(initial_part(ip) == ip and set(ip) == set(w))
        # deletion composes: removing X then Y equals removing X union Y
        xs = {c for c in "abcde" if rng.random() < 0.4}
        ys = {c for c in "abcde" if rng.random() < 0.4}
        _require(delete_letters(delete_letters(w, xs), ys) == delete_letters(w, xs | ys))
        # substitution occurrence law
        sub = Substitution({c: "".join(rng.choice("xy") for _ in range(rng.randrange(0, 3)))
                            for c in "abcde"})
        image = sub(w)
        for b in "xy":
            expected = sum(occ(w, a) * occ(sub.image(a), b) for a in set(w))
            _require(occ(image, b) == expected)
        u = "".join(rng.choice("abc") for _ in range(rng.randrange(0, 6)))
        _require(sub(w + u) == sub(w) + sub(u))
    _require(delete_letters(K_LHS, {"y", "t"}) == "xzzxzz")
    return ("idempotence, deletion composition and the occurrence law"
            " on 1000 samples each")


CHECKS = (
    ("word-algebra-laws",
     "word algebra round trips and substitution homomorphism laws",
     _check_word_laws),
    ("presented-monoid-bases",
     "presented 7-element monoids and their product satisfy the recorded bases",
     _check_presented_bases),
    ("d-single-identity-basis",
     "the three-identity overcommutative system and its one-identity form are interderivable",
     _check_d_single_basis),
    ("p-to-q-commutation-chain",
     "an explicit 16-step rewrite joins the two structure words over central squares",
     _check_chain),
    ("w-family-one-step-stability",
     "one-step images of the surrounding word family stay in the family",
     _check_w_stability),
    ("isoterm-power-criterion",
     "power isoterms match the index threshold on counter monoids",
     _check_isoterm_powers),
    ("lrb-initial-part-rule",
     "left regular band identities reduce to equal initial parts",
     _check_lrb_rule),
    ("abelian-occurrence-rule",
     "abelian group identities reduce to occurrence counts mod the exponent",
     _check_abelian_rule),
    ("partition-modular-criterion",
     "modular partition elements are exactly those with at most one fused block",
     _check_partitions),
    ("fig1-join-not-cancellable",
     "bundled ten-element lattice: x and y cancellable but their join is not",
     _check_fig1),
    ("fig2-modular-not-distributive",
     "bundled variety-name lattice is modular yet not distributive",
     _check_fig2),
)


def run_verification() -> VerificationReport:
    report = VerificationReport()
    for name, anchor, fn in CHECKS:
        try:
            detail = fn()
            report.entries.append(ReportEntry(name, anchor, "pass", detail or ""))
        except Exception as exc:  # report the failure instead of crashing
            report.entries.append(ReportEntry(name, anchor, "fail", str(exc)))
    return report
