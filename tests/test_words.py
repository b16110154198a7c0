import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monvar.varieties import K_LHS, K_RHS, enumerate_W
from monvar.words import (
    MAX_WORD_LEN,
    Identity,
    ParseError,
    Substitution,
    apply_substitution,
    content,
    delete_letters,
    embeds,
    format_word,
    initial_part,
    match_substitutions,
    occ,
    parse_identity,
    parse_word,
    reverse,
)
from monvar.words import _compile

P = "yyxttzzyyttxzz"
Q = "yyxttzzxyyttxzz"


def test_parse_word_grammar():
    assert parse_word("x2y") == "xxy"
    assert parse_word("1") == ""
    assert parse_word("y2xt2z2y2t2xz2") == P
    assert parse_word(" x 2 y ") == "xxy"
    assert parse_word("x10") == "x" * 10
    # words up to the length limit parse, however their terms split it
    assert parse_word(f"x{MAX_WORD_LEN}") == "x" * MAX_WORD_LEN
    assert len(parse_word(f"x{MAX_WORD_LEN // 2 - 1}yx{MAX_WORD_LEN // 2}")) == MAX_WORD_LEN


@pytest.mark.parametrize("bad", ["", "X", "x0", "2x", "x-1", "x2=", "a1b0",
                                 "x99999999999999999999", f"x{MAX_WORD_LEN + 1}",
                                 f"x{MAX_WORD_LEN}y", "x999999999999999"])
def test_parse_word_rejects(bad):
    with pytest.raises(ParseError):
        parse_word(bad)


def test_format_word_groups_runs():
    assert format_word("xxy") == "x2y"
    assert format_word("") == "1"
    assert format_word(P) == "y2xt2z2y2t2xz2"
    assert format_word("xyx") == "xyx"


def test_round_trip_canonical():
    rng = random.Random(11)
    for _ in range(500):
        w = "".join(rng.choice("abcxyz") for _ in range(rng.randrange(0, 15)))
        assert parse_word(format_word(w)) == w


def test_identity_is_unordered():
    a = parse_identity("x2y=yx2")
    b = parse_identity("yx2=x2y")
    assert a == b and hash(a) == hash(b)
    assert a != parse_identity("x2y=xy")
    assert parse_identity("xy=xy").trivial
    assert not a.trivial
    assert a.letters() == {"x", "y"}
    assert str(parse_identity("xx=xxx")) in ("x2=x3", "x3=x2")
    assert repr(Identity("xx", "y")) == "Identity('x2', 'y')"
    assert Identity(lhs="y", rhs="xx") == Identity("xx", "y")
    assert a != "x2y=yx2" and a.__eq__("x2y=yx2") is NotImplemented
    with pytest.raises(AttributeError, match="cannot assign to field 'lhs'"):
        a.lhs = "x"
    with pytest.raises(AttributeError):
        del a.rhs
    assert a.lhs == "xxy"


def test_parse_identity_rejects():
    # the last exponent is past int()'s digit limit
    for bad in ("xy", "x=y=z", "=x", "x=", "x" + "9" * 5000 + "=y"):
        with pytest.raises(ParseError):
            parse_identity(bad)


def test_content_occ_examples():
    assert content("") == set()
    assert content(P) == {"x", "y", "z", "t"}
    assert content("xyxzy") == {"x", "y", "z"}
    assert occ(Q, "x") == 3
    assert occ("", "x") == 0
    assert occ(P, "y") == 4 and occ(P, "z") == 4 and occ(P, "t") == 4


def test_delete_letters():
    assert delete_letters(P, {"y", "t"}) == "xzzxzz"
    assert delete_letters("xyxzy", set()) == "xyxzy"
    assert delete_letters("xyxzy", {"x", "y", "z"}) == ""


def test_initial_part():
    assert initial_part("xyxzy") == "xyz"
    assert initial_part("xy") == "xy" == initial_part("xyx")
    assert initial_part("") == ""


def test_reverse():
    assert reverse("xyz") == "zyx"
    assert reverse("") == ""
    assert reverse("xxy") == "yxx"
    assert reverse(reverse(P)) == P


def test_substitution_application():
    assert apply_substitution(Substitution({"x": "y"}), "xx") == "yy"
    assert apply_substitution(Substitution({"x": ""}), "xxy") == "y"
    # erasing y and z maps the long left side down to a bare cube
    xi = Substitution({"x": "x", "y": "", "z": ""})
    assert apply_substitution(xi, "xxxyz") == "xxx"
    # unmapped letters stay themselves
    assert apply_substitution(Substitution({}), "xyz") == "xyz"
    # a mutable map: equal by value, unhashable
    xi = Substitution({"x": "ab", "y": ""})
    assert repr(xi) == "Substitution(mapping={'x': 'ab', 'y': ''})"
    assert xi == Substitution(mapping={"x": "ab", "y": ""}) != Substitution({"x": "ab"})
    assert xi != {"x": "ab", "y": ""}
    with pytest.raises(TypeError):
        hash(xi)
    xi.mapping["z"] = "c"
    assert xi("xz") == "abc"


def test_substitution_is_homomorphism():
    rng = random.Random(23)
    for _ in range(200):
        xi = Substitution({c: "".join(rng.choice("ab") for _ in range(rng.randrange(3)))
                           for c in "xyz"})
        u = "".join(rng.choice("xyz") for _ in range(rng.randrange(6)))
        v = "".join(rng.choice("xyz") for _ in range(rng.randrange(6)))
        assert xi(u + v) == xi(u) + xi(v)


def test_embeds_examples():
    for v in ("x", "zz", "xyzt"):
        assert embeds("x", v)
    assert embeds("xy", "yx")
    assert not embeds("xx", "xy")
    assert embeds("xy", "axayb")
    assert not embeds("xx", "xyx")
    with pytest.raises(ValueError):
        embeds("", "xy")


# a second, structurally different implementation used as an oracle below
def _embeds_oracle(u, v):
    def assign(k, pos, images):
        if k == len(u):
            return pos == len(mid)
        c = u[k]
        if c in images:
            img = images[c]
            return mid.startswith(img, pos) and assign(k + 1, pos + len(img), images)
        for end in range(pos + 1, len(mid) + 1):
            images[c] = mid[pos:end]
            if assign(k + 1, end, images):
                del images[c]
                return True
            del images[c]
        return False

    for i in range(len(v) + 1):
        for j in range(i, len(v) + 1):
            mid = v[i:j]
            if assign(0, 0, {}):
                return True
    return False


def test_embeds_matches_oracle_exhaustively():
    us = [w for n in (1, 2, 3) for w in map("".join, itertools.product("xy", repeat=n))]
    vs = [w for n in range(5) for w in map("".join, itertools.product("xy", repeat=n))]
    for u in us:
        for v in vs:
            assert embeds(u, v) == _embeds_oracle(u, v), (u, v)


def test_embeds_matches_oracle_sampled():
    rng = random.Random(404)
    for _ in range(200):
        u = "".join(rng.choice("xyz") for _ in range(rng.randrange(1, 4)))
        v = "".join(rng.choice("xyz") for _ in range(rng.randrange(0, 6)))
        assert embeds(u, v) == _embeds_oracle(u, v), (u, v)


def test_embeds_quasi_order():
    rng = random.Random(77)
    words = ["".join(rng.choice("xy") for _ in range(rng.randrange(1, 5)))
             for _ in range(30)]
    for w in words:
        assert embeds(w, w)
    for u, v, w in itertools.product(words[:12], repeat=3):
        if embeds(u, v) and embeds(v, w):
            assert embeds(u, w)


def test_words_with_fixed_multiset_form_an_anti_chain():
    # ten words with three x's and two y's: none embeds in another
    words = set()
    for pos in itertools.combinations(range(5), 2):
        w = ["x"] * 5
        for i in pos:
            w[i] = "y"
        words.add("".join(w))
    assert len(words) == 10
    for u in words:
        for v in words:
            assert embeds(u, v) == (u == v), (u, v)


# the recursive matcher that the compiled one replaced, kept as the oracle
def _recursive_match_substitutions(pattern: str, window: str, allow_empty: bool = False):
    """Yield every letter->word map whose expansion of `pattern` is `window`.

    With allow_empty the maps are monoid-endomorphism images (empty words
    allowed); otherwise every image is nonempty.  Deterministic order:
    images are tried shortest first, scanning the pattern left to right.
    """
    lo = 0 if allow_empty else 1

    def rec(pi: int, wi: int, assign: dict):
        if pi == len(pattern):
            if wi == len(window):
                yield dict(assign)
            return
        # cheap lower bound on the remaining window demand
        need = 0
        for c in set(pattern[pi:]):
            need += pattern.count(c, pi) * (len(assign[c]) if c in assign else lo)
        if need > len(window) - wi:
            return
        c = pattern[pi]
        img = assign.get(c)
        if img is not None:
            if window.startswith(img, wi):
                yield from rec(pi + 1, wi + len(img), assign)
            return
        for ln in range(lo, len(window) - wi + 1 - (need - lo)):
            assign[c] = window[wi:wi + ln]
            yield from rec(pi + 1, wi + ln, assign)
        assign.pop(c, None)

    yield from rec(0, 0, {})


def _same_matches(pattern, window, allow_empty):
    new = list(match_substitutions(pattern, window, allow_empty))
    old = list(_recursive_match_substitutions(pattern, window, allow_empty))
    # equal lists of equal maps, each map also built in the same key order
    assert new == old, (pattern, window, allow_empty)
    assert [list(m) for m in new] == [list(m) for m in old], (pattern, window, allow_empty)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="xyz", max_size=6), st.text(alphabet="ab", max_size=9),
       st.booleans())
@example("", "", False)
@example("", "a", True)
@example("xyx", "", True)
@example("xxyxx", "aabaa", False)
@example("xyy", "abaa", False)
def test_matcher_matches_the_recursive_oracle(pattern, window, allow_empty):
    _same_matches(pattern, window, allow_empty)


def test_matcher_matches_the_recursive_oracle_on_a_w_family_word():
    word = max(enumerate_W((2, 3)), key=len)
    for side in (K_LHS, K_RHS):
        for i in range(len(word) + 1):
            for j in range(i, len(word) + 1):
                _same_matches(side, word[i:j], True)


# the patterns with no letter that occurs once, the only ones the letter-count
# test can refute; K's sides have counts (2, 4) and (3, 4)
_COUNTED = ("xx", "xxx", "xxyy", K_LHS, K_RHS)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_COUNTED), st.text(alphabet="abc", max_size=9), st.booleans())
@example("xxyy", "aabba", True)  # three a's: no sum of 2s
@example("xxx", "aaaab", True)
@example(K_RHS, "aab", False)
def test_matcher_with_the_count_test_matches_the_recursive_oracle(pattern, window,
                                                                   allow_empty):
    _same_matches(pattern, window, allow_empty)


def test_matcher_with_the_count_test_matches_the_oracle_on_sampled_w_family_words():
    assert _compile("xxyy")[1] == (2,) and _compile(K_RHS)[1] == (3, 4)
    # a letter that occurs once makes every count a sum: no test
    assert _compile("xxy")[1] == () and _compile("xyx")[1] == ()
    rng = random.Random(2023)
    words = enumerate_W((2, 3, 4))
    for _ in range(100):
        word = rng.choice(words)
        i, j = sorted(rng.sample(range(len(word) + 1), 2))
        for pattern in _COUNTED:
            _same_matches(pattern, word[i:j], rng.random() < 0.5)


def test_compile_cache_stays_bounded():
    maxsize = _compile.cache_info().maxsize
    assert maxsize is not None
    for n in range(1, maxsize + 50):
        u = bin(n)[2:].replace("0", "x").replace("1", "y")
        assert embeds(u, u)
    assert _compile.cache_info().currsize <= maxsize
