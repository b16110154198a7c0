"""Catalog entries, decision rules and isoterm helpers."""

import itertools
import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monvar
from monvar.deduction import Derivation
from monvar.monoids import (
    cyclic_counter,
    cyclic_group,
    find_counterexample,
    free_lrb_monoid,
    named_monoid,
)
from monvar.varieties import (
    FAILS,
    HOLDS,
    K_IDENTITY,
    K_LHS,
    K_RHS,
    UNKNOWN,
    _CYCLIC_RULES,
    _POOL,
    _W_SHAPES,
    OUTSIDE,
    Bounds,
    VarietySpec,
    catalog,
    decide_identity,
    enumerate_W,
    is_isoterm_power,
    lookup,
    membership_in_W,
    model_contains_basis,
    variety_Z,
)
from monvar.words import Identity, initial_part, occ, parse_identity


def _decide(name, ident_text, **kw):
    return decide_identity(lookup(name), parse_identity(ident_text), **kw)


def test_catalog_contents():
    cat = catalog()
    for name in ("T", "SL", "COM", "MON", "D", "D2", "E", "K", "LRB",
                 "Q", "R", "Rop", "RvRop", "C2", "C3", "B2", "A2"):
        assert name in cat, name
    assert list(cat) == sorted(cat)


def test_lookup_families_and_normalization():
    assert lookup("C7").param == 7
    assert lookup("B2").name == "B2"
    assert lookup("A5").param == 5
    assert lookup("C_2").name == "C2"
    z = lookup("Z:2:xy")
    assert z.param == 2 and len(z.basis) == 2
    with pytest.raises(KeyError):
        lookup("nosuch")
    with pytest.raises(KeyError):
        lookup("Z:2")
    with pytest.raises(ValueError):
        lookup("C1")


FIXED = ("T", "SL", "COM", "MON", "D", "D2", "E", "K", "LRB", "Q", "R", "Rop", "RvRop")


def test_fixed_entries_are_built_once():
    cat = catalog()
    assert set(cat) == {*FIXED, "C2", "C3", "B2", "A2"}
    for name in FIXED:
        assert lookup(name) is lookup(name) is cat[name], name


def test_looking_up_a_deduction_entry_builds_no_monoid():
    # named_monoid is a process-wide cache, so ask a fresh interpreter.  No
    # lookup builds a model and fixtures() parses no lattice, so numpy stays
    # unloaded; the first read of a model builds that one monoid
    script = "\n".join([
        "import sys",
        "from monvar.lattices import fixtures",
        "from monvar.varieties import catalog, lookup",
        "catalog()",
        f"for name in {FIXED!r}:",
        "    lookup(name)",
        "fixtures()",
        "print('numpy._core' in sys.modules)",
        "from monvar.monoids import named_monoid",
        "print(named_monoid.cache_info().currsize)",
        "d2 = lookup('D2').model",
        "print(named_monoid.cache_info().currsize, d2 is named_monoid('D2'))",
    ])
    src = str(Path(monvar.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False", "0", "1 True"]


def test_rule_models_are_built_on_their_first_read():
    # SL, C<n> and A<m> decide and name witnesses from occurrence counts, so
    # their specs build no monoid, and numpy stays unloaded, until `model`
    # is read; then every read, and every later lookup, sees one object
    script = "\n".join([
        "import sys",
        "from monvar.words import parse_identity",
        "from monvar.varieties import decide_identity, lookup, variety_A",
        "specs = [lookup('SL'), lookup('C2'), variety_A(3)]",
        "for spec in specs:",
        "    assert decide_identity(spec, parse_identity('x2=x2y')).witness",
        "print('numpy._core' in sys.modules)",
        "models = [spec.model for spec in specs]",
        "assert all(spec.model is m for spec, m in zip(specs, models))",
        "assert lookup('SL').model is models[0] and lookup('C2').model is models[1]",
        "print(*(len(m) for m in models))",
    ])
    src = str(Path(monvar.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False", "2 3 3"]


def test_a_spec_needs_a_basis_or_a_model():
    with pytest.raises(ValueError, match="variety X needs a basis or a model"):
        VarietySpec("X")
    with pytest.raises(ValueError, match="needs a basis or a model"):
        VarietySpec("X", rule="SL-content")  # the row builds a model only for a valid spec
    m = named_monoid("D2")
    assert VarietySpec("X", model=m).model is m
    assert VarietySpec("X", basis=lookup("SL").basis, model=m, rule="SL-content").model is m


def test_k_identity_words():
    assert K_LHS == "yyxttzzyyttxzz"
    assert K_RHS == "yyxttzzxyyttxzz"
    assert occ(K_RHS, "x") == 3 and occ(K_LHS, "x") == 2
    assert lookup("K").basis == type(lookup("K").basis)(frozenset([K_IDENTITY]), "K")


def test_membership_in_w():
    assert membership_in_W(K_LHS) == "W1"
    assert membership_in_W(K_RHS) == "W2"
    assert membership_in_W("yyxttzzyyttxz") == "outside"  # final z run too short
    assert membership_in_W("xy") == "outside"
    assert membership_in_W("") == "outside"
    assert membership_in_W("y3xt2z4y2t5xz2") != "W1"  # not parsed, raw letters only
    assert membership_in_W("yyyx" + "tt" + "zzzz" + "yy" + "ttttt" + "x" + "zz") == "W1"


def _membership_by_runs(word):
    """membership_in_W by its definition: the word's maximal runs follow a
    shape's letters, an exact run of length 1 and a free run of 2 or more."""
    runs = [(c, len(list(g))) for c, g in itertools.groupby(word)]
    for label, shape in _W_SHAPES:
        if len(runs) == len(shape) and all(
                c == sc and (n == 1 if exact else n >= 2)
                for (c, n), (sc, exact) in zip(runs, shape)):
            return label
    return OUTSIDE


_RUN = st.tuples(st.sampled_from("xyzt"), st.integers(1, 4))


@st.composite
def _near_w_runs(draw):
    """The runs of a family member, then at most one run changed, dropped or added."""
    _, shape = draw(st.sampled_from(_W_SHAPES))
    runs = [(c, 1 if exact else draw(st.integers(2, 4))) for c, exact in shape]
    i = draw(st.integers(0, len(runs) - 1))
    edit = draw(st.sampled_from(["none", "length", "letter", "drop", "add"]))
    c, n = runs[i]
    if edit == "length":
        runs[i] = (c, draw(st.integers(1, 4)))
    elif edit == "letter":
        runs[i] = (draw(st.sampled_from("xyzt")), n)
    elif edit == "drop":
        del runs[i]
    elif edit == "add":
        runs.insert(i, draw(_RUN))
    return runs


def test_membership_in_w_matches_its_run_definition():
    seen = set()

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_near_w_runs(), st.lists(_RUN, max_size=12)))
    def check(runs):
        word = "".join(c * n for c, n in runs)
        label = _membership_by_runs(word)
        seen.add(label)
        assert membership_in_W(word) == label

    check()
    assert seen == {"W1", "W2", OUTSIDE}


def test_enumerate_w():
    words = enumerate_W((2, 3))
    assert len(words) == 128
    assert len(set(words)) == 128
    assert K_LHS in words and K_RHS in words
    for w in words:
        assert membership_in_W(w) in ("W1", "W2")


def test_sl_rule():
    assert _decide("SL", "xyx=xy")
    v = _decide("SL", "xy=x")
    assert v.value == FAILS and v.witness is not None


def test_com_rule_and_witness():
    assert _decide("COM", "xy=yx")
    v = _decide("COM", "x2y=xy")
    assert v.value == FAILS
    assert v.witness == {"x": "a", "y": "1"} or v.witness["x"] != "0"
    # the witness really violates the identity in a counter monoid
    m = cyclic_counter(3)
    names = set(m.names)
    if set(v.witness.values()) <= names:
        i = m.index(v.witness["x"])
        j = m.index(v.witness["y"])
        lhs = m.mul(m.mul(i, i), j)
        rhs = m.mul(i, j)
        assert lhs != rhs


def test_lrb_rule_matches_model():
    assert _decide("LRB", "xy=xyx")
    assert _decide("LRB", "x=x2")
    assert _decide("LRB", "xyzy=xyz")
    assert _decide("LRB", "xy=yx").value == FAILS


def test_lrb_rule_vs_free_model_sampled():
    lrb3 = free_lrb_monoid(3)
    v = lookup("LRB")
    rng = random.Random(2024)
    for _ in range(200):
        u = "".join(rng.choice("xyz") for _ in range(rng.randrange(1, 8)))
        w = "".join(rng.choice("xyz") for _ in range(rng.randrange(1, 8)))
        ident = Identity(u, w)
        assert bool(decide_identity(v, ident)) == (find_counterexample(lrb3, ident) is None)
        assert bool(decide_identity(v, ident)) == (initial_part(u) == initial_part(w))


def test_cn_rule_vs_counter_sampled():
    rng = random.Random(3001)
    for n in (2, 3):
        v = lookup(f"C{n}")
        model = cyclic_counter(n)
        for _ in range(150):
            u = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 8)))
            w = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 8)))
            ident = Identity(u, w)
            assert bool(decide_identity(v, ident)) == (find_counterexample(model, ident) is None)


def test_am_rule_vs_group_sampled():
    rng = random.Random(3002)
    for m in (2, 3):
        v = lookup(f"A{m}")
        model = cyclic_group(m)
        for _ in range(150):
            u = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 8)))
            w = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 8)))
            ident = Identity(u, w)
            assert bool(decide_identity(v, ident)) == (find_counterexample(model, ident) is None)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["SL", "LRB", "C2", "C3", "C4", "A2", "A3", "A4", "A5", "COM"]),
       st.text(alphabet="xyzt", max_size=7), st.text(alphabet="xyzt", max_size=7))
def test_rule_verdicts_match_the_generating_monoid(name, lhs, rhs):
    # LRB's witness is found by a scan; the others build theirs from the rule
    spec = lookup(name)
    ident = Identity(lhs, rhs)
    verdict = decide_identity(spec, ident)
    model = spec.model
    if model is None:  # COM: a counter past the first differing letter's occurrences
        bad = [c for c in sorted(ident.letters()) if lhs.count(c) != rhs.count(c)]
        model = cyclic_counter(max(lhs.count(bad[0]), rhs.count(bad[0])) + 1 if bad else 2)
    witness = find_counterexample(model, ident)
    assert (verdict.value == HOLDS) == (witness is None)
    if verdict.value == FAILS:
        assert verdict.witness == witness


def test_com_rule_one_directional_against_any_counter():
    # commutativity proves an identity only if occurrence counts agree;
    # a counter monoid is a one-sided check: COM holds => counter(4) satisfies
    rng = random.Random(3003)
    v = lookup("COM")
    model = cyclic_counter(4)
    for _ in range(200):
        u = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 7)))
        w = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 7)))
        verdict = decide_identity(v, Identity(u, w))
        if verdict:
            assert find_counterexample(model, Identity(u, w)) is None


def test_model_rule_entries():
    assert _decide("D2", "x3=x2")
    assert _decide("D2", "x2=x").value == FAILS
    assert _decide("R", "x3=x4")
    assert _decide("RvRop", "x3yzt=yxzxtx")
    v = _decide("RvRop", "x2=x3")
    assert v.value == FAILS and v.witness is not None
    assert _decide("T", "xy=z2")  # everything holds in the trivial monoid


def test_deduction_rule_d_facts():
    v = _decide("D", "x3yz=yxzx", bounds=Bounds(max_len=8, max_depth=8))
    assert v.value == HOLDS
    assert isinstance(v.witness, Derivation)
    assert _decide("D", "xy=yx", bounds=Bounds(max_len=10, max_depth=6)).value != HOLDS


def test_deduction_basis_members_derive_in_one_step():
    for name in ("D", "E", "Q", "K"):
        spec = lookup(name)
        for ident in spec.basis:
            verdict = decide_identity(spec, ident, Bounds(max_len=20, max_depth=2))
            assert verdict.value == HOLDS, (name, ident)


def test_mon_is_exact():
    assert _decide("MON", "xyx=xyx")
    v = _decide("MON", "x=y")
    assert v.value == FAILS
    assert "closure" in v.reason


def test_refuters_settle_some_non_derivable_identities():
    # the closure of xy under Q's identity keeps growing, but the two-element
    # semilattice separates the sides by content
    v = _decide("Q", "xy=x", bounds=Bounds(max_len=10, max_depth=4))
    assert v.value == FAILS
    assert v.witness is not None


# refuters by position in the pool (SL's model, counter:2, counter:3, group:2,
# group:3); every entry not listed here has none
_REFUTERS = {"MON": [0, 1, 2, 3, 4], "D": [0, 1], "E": [0, 1], "K": [0, 1], "Q": [0],
             "B2": [0, 1], "B3": [0, 1, 2], "Z:1:y": [0]}


def test_refuters_are_derived_from_the_basis():
    assert "refutation_models" not in {f.name for f in fields(VarietySpec)}
    pool = (lookup("SL").model, *(named_monoid(name) for name in
                                  ("counter:2", "counter:3", "group:2", "group:3")))
    specs = [*catalog().values(), *(lookup(name) for name in ("C4", "B3", "A5", "Z:1:y"))]
    for spec in specs:
        got = [next(i for i, m in enumerate(pool) if m is r) for r in spec.refutation_models]
        assert got == _REFUTERS.get(spec.name, []), spec.name
        if spec.rule == "deduction-only":
            assert got == [i for i, m in enumerate(pool) if model_contains_basis(m, spec.basis)]


def test_mon_refutes_a_truncated_search_in_a_pool_monoid():
    spec, ident = lookup("MON"), parse_identity("x=y30")
    v = decide_identity(spec, ident)
    assert v.value == FAILS
    assert v.witness == {"x": "1", "y": "e"}
    assert v.reason == "fails in a member monoid of order 2"
    assert find_counterexample(spec.refutation_models[0], ident) == v.witness


_DEDUCTION_ONLY = sorted({*(name for name, spec in catalog().items()
                             if spec.rule == "deduction-only"),
                           "B3", "B5", "Z:1:y", "Z:2:xy"})


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_DEDUCTION_ONLY),
       st.text(alphabet="xyzt", max_size=7), st.text(alphabet="xyzt", max_size=7))
def test_refutations_match_a_scan_of_the_refutation_models(name, lhs, rhs):
    # depth 0 leaves every non-trivial identity to the refuters; the
    # reference is the scan of the tables, in order, that decide_identity
    # ran before it refuted from occurrence counts
    spec, ident = lookup(name), Identity(lhs, rhs)
    verdict = decide_identity(spec, ident, Bounds(max_len=7, max_depth=0))
    if ident.trivial:
        assert verdict.value == HOLDS
        return
    for m in spec.refutation_models:
        cx = find_counterexample(m, ident)
        if cx is not None:
            assert (verdict.value, verdict.witness, verdict.reason) == (
                FAILS, cx, f"fails in a member monoid of order {len(m)}")
            return
    assert verdict.value == UNKNOWN and verdict.witness is None


def test_each_cyclic_row_is_its_monoid():
    # generator, order and powers of each pool row and rule model, against the table
    specs = [lookup(name) for name in ("SL", "C2", "C3", "C4", "A2", "A3", "A5")]
    rule_rows = [_CYCLIC_RULES[spec.rule][0](spec.param) for spec in specs]
    for row in (*_POOL, *rule_rows):
        m = row.monoid()
        assert (m.names[1], len(m)) == (row.generator, row.order)
        powers = [m.one]
        for _ in range(12):
            powers.append(m.mul(powers[-1], 1))
        for j in range(13):
            for k in range(13):
                assert (powers[j] == powers[k]) == (row.power(j) == row.power(k)), (row, j, k)
    for spec, row in zip(specs, rule_rows):
        assert row.monoid() is spec.model


def test_unknown_when_bounds_truncate_and_no_refuter():
    v = _decide("K", "y2xy2=xy4", bounds=Bounds(max_len=6, max_depth=2))
    assert v.value == UNKNOWN
    assert "truncated" in v.reason


def test_model_contains_basis():
    assert model_contains_basis(cyclic_counter(2), lookup("C2").basis)
    assert not model_contains_basis(cyclic_group(2), lookup("C2").basis)
    assert model_contains_basis(free_lrb_monoid(3), lookup("LRB").basis)


def test_chain_sl_c2_d():
    # SL < C2 < D: identities flow down the chain, and strictly
    sl, c2 = lookup("SL"), lookup("C2")
    for ident in lookup("C2").basis:
        assert decide_identity(sl, ident), ident
    for ident in lookup("D").basis:
        assert decide_identity(c2, ident), ident
    assert _decide("SL", "x=x2").value == HOLDS
    assert _decide("C2", "x=x2").value == FAILS  # separates SL from C2
    assert _decide("C2", "xy=yx").value == HOLDS
    assert _decide("D", "xy=yx", bounds=Bounds(max_len=8, max_depth=6)).value == FAILS


def test_variety_z_basis_words():
    z = variety_Z(1, "y")
    texts = {str(i) for i in z.basis}
    assert texts == {"x2=x3", "xy=x2y"} or texts == {"x3=x2", "x2y=xy"}


def test_is_isoterm_power():
    assert is_isoterm_power(lookup("C3"), 2)
    assert not is_isoterm_power(lookup("C2"), 2)
    assert not is_isoterm_power(lookup("C3"), 3)
    assert is_isoterm_power(lookup("D2"), 1)
    with pytest.raises(ValueError):
        is_isoterm_power(lookup("K"), 2)
