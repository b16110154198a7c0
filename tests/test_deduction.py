"""Rewriting and bounded derivability."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monvar.deduction import (
    NO,
    UNKNOWN,
    YES,
    Derivation,
    DerivationError,
    RewriteStep,
    _feasible_lengths,
    _fresh_images,
    _matches,
    check_derivation,
    derivable,
    expand,
    load_identity_system,
    one_step_rewrites,
    parse_identity_system,
    system,
)
from monvar.varieties import catalog
from monvar.words import ParseError, parse_identity, parse_word

SIGMA = system("x3yz=yxzx")


def test_system_builders():
    s = system("x2=x3", "x2y=yx2", name="comm")
    assert len(s) == 2
    assert s.name == "comm"
    assert parse_identity("x3=x2") in s
    # duplicates (up to symmetry) collapse
    assert len(system("xy=yx", "yx=xy")) == 1


def test_parse_identity_system_format():
    text = """
    # commutation fragment
    name: comm
    x2 = x3
    x2y = yx2
    """
    s = parse_identity_system(text)
    assert s.name == "comm" and len(s) == 2
    with pytest.raises(ValueError):
        parse_identity_system("# nothing here\n")


def test_parse_identity_system_refuses_a_repeated_name_line():
    with pytest.raises(ParseError, match="duplicate name: line"):
        parse_identity_system("name: A\nname: B\nx2=x3\n")
    # a name argument may still be overridden by one name: line
    assert parse_identity_system("name: A\nx2=x3\n", name="B").name == "A"


def test_load_identity_system(tmp_path):
    f = tmp_path / "sigma.ids"
    f.write_text("name: sigma\nx3yz = yxzx\n")
    s = load_identity_system(f)
    assert s.name == "sigma"
    assert parse_identity("x3yz=yxzx") in s


def test_one_step_rewrites_frozen():
    assert one_step_rewrites("xx", system("x2=x3"), 4) == {"xx", "xxx"}
    out = one_step_rewrites("xxy", SIGMA, 4)
    assert "xxxy" in out
    assert out == {"xxy", "xxxy"}


def _two_branch_expand(word, sys, max_len):
    """`expand` as it was with separate loops for identity sides with and
    without fresh letters, kept verbatim as the oracle."""
    targets: dict[str, RewriteStep] = {}
    truncated = False
    n = len(word)
    for ident in sys.ordered():
        if ident.trivial:
            continue
        for flipped in (False, True):
            s, t = (ident.rhs, ident.lhs) if flipped else (ident.lhs, ident.rhs)
            s_letters = set(s)
            occs = tuple(sorted({s.count(c) for c in s_letters})) or (1,)
            lengths = _feasible_lengths(occs, n)
            shared = sorted(s_letters & set(t))
            fresh = tuple(sorted(set(t) - s_letters))
            counts = {c: t.count(c) for c in fresh}
            for i in range(n + 1):
                for j in range(i, n + 1):
                    if j - i not in lengths:
                        continue
                    for items in _matches(s, word[i:j]):
                        images = dict(items)
                        base = (n - (j - i)) + sum(
                            t.count(c) * len(images[c]) for c in shared
                        )
                        if fresh:
                            truncated = True
                            budget = max_len - base
                            if budget < 0:
                                continue
                            for extra in _fresh_images(fresh, counts, budget):
                                full = {**images, **extra}
                                out = word[:i] + "".join(full[c] for c in t) + word[j:]
                                step = RewriteStep(word[:i], ident, flipped,
                                                   tuple(sorted(full.items())), word[j:])
                                targets.setdefault(out, step)
                        else:
                            if base > max_len:
                                truncated = True
                                continue
                            out = word[:i] + "".join(images[c] for c in t) + word[j:]
                            step = RewriteStep(word[:i], ident, flipped, items, word[j:])
                            targets.setdefault(out, step)
    return targets, truncated


# the catalog bases, plus identities with a letter on one side only (in y=xy
# that letter sorts before the matched one); identities like x=y are left out
# because their fresh images grow as 26^max_len
_ORACLE_SYSTEMS = tuple(
    [spec.basis for spec in catalog().values() if spec.basis is not None]
    + [system(spec) for spec in ("x=1", "xy=x", "x=yx", "y=xy", "xy=yzx")])


def _fields(targets):
    """Every target in insertion order with every field of its RewriteStep;
    the identity's sides are listed apart because Identity equality is unordered."""
    return [(out, step.prefix, step.identity.lhs, step.identity.rhs, step.flipped,
             step.mapping, step.suffix) for out, step in targets.items()]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_ORACLE_SYSTEMS), st.text(alphabet="xyz", max_size=6), st.data())
def test_expand_matches_the_two_branch_oracle(sys_, word, data):
    max_len = data.draw(st.integers(0, len(word) + 1), label="max_len")
    new, new_cut = expand(word, sys_, max_len)
    old, old_cut = _two_branch_expand(word, sys_, max_len)
    assert _fields(new) == _fields(old)
    assert new_cut == old_cut


def test_one_step_respects_length_bound():
    assert one_step_rewrites("xx", system("x2=x3"), 2) == {"xx"}


def test_one_step_symmetry():
    rng = random.Random(31)
    sys_pool = [system("x2=x3"), system("xy=yx"), SIGMA, system("x2y=yx2", "x2=x3")]
    for _ in range(80):
        s = rng.choice(sys_pool)
        u = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 6)))
        for v in one_step_rewrites(u, s, 8):
            if len(v) <= 8 and len(u) <= 8:
                assert u in one_step_rewrites(v, s, 8), (u, v, s.name)


def _step(word, ident_text, pos, width, mapping, flipped=False):
    ident = parse_identity(ident_text)
    return RewriteStep(
        prefix=word[:pos],
        identity=ident,
        flipped=flipped,
        mapping=tuple(sorted(mapping.items())),
        suffix=word[pos + width:],
    )


def test_rewrite_step_equality_follows_orientation():
    mapping = (("x", "x"),)
    forward = RewriteStep("", parse_identity("x2=x3"), False, mapping, "")
    backward = RewriteStep("", parse_identity("x3=x2"), False, mapping, "")
    assert (forward.source, forward.target) == ("xx", "xxx")
    assert (backward.source, backward.target) == ("xxx", "xx")
    assert forward != backward
    assert len({forward, backward}) == 2
    # the same rewrite xx -> xxx spelled through the flipped identity
    respelled = RewriteStep("", parse_identity("x3=x2"), True, mapping, "")
    assert forward == respelled
    assert hash(forward) == hash(respelled)


def test_check_derivation_two_step():
    # x2y -> x3y -> yx2 over {x3yz = yxzx}; the first step rewrites the
    # window xx backwards (xi sends y and z to the empty word)
    s1 = _step("xxy", "x3yz=yxzx", 0, 2, {"x": "x", "y": "", "z": ""}, flipped=True)
    assert s1.source == "xxy" and s1.target == "xxxy"
    s2 = _step("xxxy", "x3yz=yxzx", 0, 4, {"x": "x", "y": "y", "z": ""})
    assert s2.target == "yxx"
    deriv = Derivation(words=("xxy", "xxxy", "yxx"), steps=(s1, s2))
    assert check_derivation(deriv, SIGMA)


def test_check_derivation_rejects_corruption():
    s1 = _step("xxy", "x3yz=yxzx", 0, 2, {"x": "x", "y": "", "z": ""}, flipped=True)
    s2 = _step("xxxy", "x3yz=yxzx", 0, 4, {"x": "x", "y": "y", "z": ""})
    bad_words = Derivation(words=("xxy", "xyxy", "yxx"), steps=(s1, s2))
    assert not check_derivation(bad_words, SIGMA)
    with pytest.raises(DerivationError) as err:
        check_derivation(bad_words, SIGMA, strict=True)
    assert err.value.index == 0
    # a step whose identity is not in the system
    foreign = Derivation(
        words=("xx", "xxx"),
        steps=(_step("xx", "x2=x3", 0, 2, {"x": "x"}),),
    )
    assert check_derivation(foreign, system("x2=x3"))
    assert not check_derivation(foreign, SIGMA)


def test_derivable_examples():
    res = derivable("xxy", "yxx", SIGMA, max_len=4, max_depth=3)
    assert res.status == YES
    assert len(res.derivation) == 2
    assert res.derivation.words[0] == "xxy" and res.derivation.words[-1] == "yxx"
    assert check_derivation(res.derivation, SIGMA)


def test_derivable_trivial_and_sound():
    res = derivable("xyx", "xyx", SIGMA)
    assert res.status == YES and len(res.derivation) == 0
    rng = random.Random(59)
    s = system("x2=x3", "x2y=yx2")
    for _ in range(25):
        u = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 5)))
        res = derivable(u, "y" + u, s, max_len=7, max_depth=6)
        if res.status == YES:
            assert check_derivation(res.derivation, s)
            assert res.derivation.words[0] == u
            assert res.derivation.words[-1] == "y" + u


def test_derivable_exhausted_closure_is_a_no():
    # the closure of x under x2=x3 is just {x}: sound non-derivability
    res = derivable("x", "y", system("x2=x3"))
    assert res.status == NO
    assert res.derivation is None


def test_derivable_truncation_is_unknown():
    res = derivable("xx", "yy", system("x2=x3"), max_len=4, max_depth=2)
    assert res.status == UNKNOWN
    res = derivable("x", "y", SIGMA, max_len=6, max_depth=0)
    assert res.status == UNKNOWN


def test_derivable_is_a_congruence_sample():
    # u ~ v forces wu ~ wv (with room for the extra prefix)
    rng = random.Random(73)
    s = system("x2=x3")
    for _ in range(20):
        u = "x" * rng.randrange(2, 5)
        v = "x" * rng.randrange(2, 5)
        w = "".join(rng.choice("xy") for _ in range(rng.randrange(3)))
        base = derivable(u, v, s, max_len=6, max_depth=8)
        assert base.status == YES
        lifted = derivable(w + u, w + v, s, max_len=6 + len(w), max_depth=8)
        assert lifted.status == YES


def test_explored_counts_words():
    res = derivable("xxy", "yxx", SIGMA, max_len=8, max_depth=6)
    assert res.status == YES
    assert res.explored >= 2
