import itertools
import random
import time
import tracemalloc
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monvar import monoids
from monvar.lazy import gather, index_dtype
from monvar.monoids import (
    FiniteMonoid,
    InvalidTable,
    LikelyInfinite,
    Presentation,
    SearchCapExceeded,
    UnsupportedPresentation,
    cyclic_counter,
    cyclic_group,
    direct_product,
    find_counterexample,
    free_lrb_monoid,
    from_presentation,
    from_table,
    is_commutative,
    is_completely_regular,
    load_monoid,
    monoid_index_period,
    named_monoid,
    opposite,
    parse_presentation,
    parse_table,
    presentation,
    relatively_free,
)
from monvar.words import Identity, ParseError, format_word, initial_part, parse_identity, reverse

D2_PRES = presentation("a b", "a2=0", "b2=0", "bab=0")
R_PRES = presentation("a b", "a3=0", "b2=0", "ba=0")


def _ident(text):
    return parse_identity(text)


def test_presentation_builder_rejects():
    with pytest.raises(ValueError):
        presentation("a a", "a2=0")
    with pytest.raises(ValueError):
        presentation("a", "ab=0")
    with pytest.raises(ValueError):
        presentation("a", "a2=0=0")


def test_from_presentation_small_counter():
    m = from_presentation(presentation("a", "a2=0"))
    assert set(m.names) == {"1", "a", "0"}
    assert m.names[m.one] == "1" and m.names[m.zero] == "0"
    m.validate()


def test_from_presentation_d2_and_r():
    d2 = from_presentation(D2_PRES)
    assert set(d2.names) == {"1", "a", "b", "ab", "ba", "aba", "0"}
    r = from_presentation(R_PRES)
    assert set(r.names) == {"1", "a", "b", "a2", "ab", "a2b", "0"}
    for m in (d2, r):
        m.validate()
        assert m.names[m.zero] == "0"


def test_from_presentation_general_relations():
    klein = from_presentation(presentation("a b", "a2=1", "b2=1", "ab=ba"))
    assert len(klein) == 4
    klein.validate()
    assert find_counterexample(klein, _ident("x2=1")) is None
    assert find_counterexample(klein, _ident("xy=yx")) is None
    assert klein.zero is None


def test_from_presentation_likely_infinite():
    with pytest.raises(LikelyInfinite):
        from_presentation(presentation("a"), cap=20)
    with pytest.raises(LikelyInfinite):
        from_presentation(presentation("a b", "ab=ba"), cap=50)


def test_from_presentation_unsupported():
    # the oriented rules a5->a2, a4->a3 are not confluent
    with pytest.raises(UnsupportedPresentation):
        from_presentation(presentation("a", "a5=a2", "a4=a3"))


def test_from_presentation_refuses_a_broken_relation():
    # a4->a2 always wins over a4->a, leaving {1, a, a2, a3} with a4 = a2 != a;
    # the true monoid is {1, a}
    with pytest.raises(UnsupportedPresentation, match="relation a4 = a;"):
        from_presentation(presentation("a", "a4=a2", "a4=a"))
    # the zero relator hides a3 = a, leaving a3 = 0 != a
    with pytest.raises(UnsupportedPresentation, match="relation a3 = a;"):
        from_presentation(presentation("a", "a3=0", "a3=a"))


def test_from_presentation_refuses_a_generator_acting_unlike_its_element():
    # b -> a makes a the element of b, but ab -> c is applied before b -> a:
    # a*b = c while a*a = 0, although b = a and ab = c force c = 0
    pres = presentation("a b c", "ab=c", "b=a", "a2=0", "ac=0", "ca=0", "c2=0",
                        "cb=0")
    with pytest.raises(UnsupportedPresentation, match="generator 'b'"):
        from_presentation(pres)


def _pairwise_oracle(pres, cap):
    """The construction from_presentation used before the right Cayley graph:
    reduce u*v for all n^2 pairs of normal forms.  Returns the names, the
    unvalidated table, the zero and the element of each generator."""
    zero_relators = [lhs for lhs, rhs in pres.relations if rhs is None]
    rules = []
    for lhs, rhs in pres.relations:
        if rhs is None or lhs == rhs:
            continue
        big, small = sorted((lhs, rhs), key=lambda w: (len(w), w), reverse=True)
        rules.append((big, small))

    def reduce(word):
        while True:
            if any(r in word for r in zero_relators):
                return None
            for big, small in rules:
                k = word.find(big)
                if k >= 0:
                    word = word[:k] + small + word[k + len(big):]
                    break
            else:
                return word

    elems, seen, queue = [""], {""}, deque([""])
    while queue:
        base = queue.popleft()
        for g in pres.generators:
            nf = reduce(base + g)
            if nf is None or nf in seen:
                continue
            if len(elems) >= cap:
                raise LikelyInfinite(f"presentation produced more than {cap} normal forms")
            seen.add(nf)
            elems.append(nf)
            queue.append(nf)
    names = [format_word(w) for w in elems]
    zero = None
    if pres.has_zero:
        names.append("0")
        zero = len(names) - 1
    pos = {w: i for i, w in enumerate(elems)}
    n = len(names)
    table = np.empty((n, n), dtype=np.int32)
    if zero is not None:
        table[zero, :] = zero
        table[:, zero] = zero
    for i, u in enumerate(elems):
        for j, v in enumerate(elems):
            nf = reduce(u + v)
            table[i, j] = zero if nf is None else pos[nf]
    gen_elems = {g: zero if reduce(g) is None else pos[reduce(g)] for g in pres.generators}
    return names, table, zero, gen_elems


def _is_monoid_table(table, zero):
    t = table
    ident = np.arange(len(t))
    return (np.array_equal(t[0], ident) and np.array_equal(t[:, 0], ident)
            and (zero is None or ((t[zero] == zero).all() and (t[:, zero] == zero).all()))
            and np.array_equal(t[t], t[:, t]))  # (ab)c == a(bc) for all a, b, c


def _satisfies_relations(table, zero, gen_elems, pres):
    def value(word):
        i = 0
        for c in word:
            i = table[i, gen_elems[c]]
        return i
    return all(value(lhs) == (zero if rhs is None else value(rhs))
               for lhs, rhs in pres.relations)


def _random_presentation(rng):
    """1-3 generators, a power relation for each, random relations between
    letter pairs, and up to two random relations between short words."""
    gens = "abc"[:rng.randint(1, 3)]

    def word(lo, hi):
        return "".join(rng.choice(gens) for _ in range(rng.randint(lo, hi)))

    rels = []
    for g in gens:
        e = rng.randint(2, 5)
        rels.append((g * e, None if rng.random() < 0.4 else g * rng.randint(0, e - 1)))
    for x, y in itertools.permutations(gens, 2):
        if rng.random() < 0.5:
            rels.append((x + y, rng.choice((None, y + x, x, y))))
    for _ in range(rng.randint(0, 2)):
        rels.append((word(1, 4), None if rng.random() < 0.3 else word(0, 3)))
    return Presentation(tuple(gens), tuple(rels))


def test_from_presentation_matches_pairwise_oracle():
    rng = random.Random(409)
    cap = 60
    outcomes = {"built": 0, "refused": 0, "infinite": 0}
    for _ in range(400):
        pres = _random_presentation(rng)
        try:
            names, table, zero, gen_elems = _pairwise_oracle(pres, cap)
        except LikelyInfinite:
            with pytest.raises(LikelyInfinite):
                from_presentation(pres, cap=cap)
            outcomes["infinite"] += 1
            continue
        oracle_ok = (_is_monoid_table(table, zero)
                     and _satisfies_relations(table, zero, gen_elems, pres))
        try:
            m = from_presentation(pres, cap=cap)
        except UnsupportedPresentation:
            assert not oracle_ok, pres
            outcomes["refused"] += 1
            continue
        assert oracle_ok, pres
        assert m.names == tuple(names) and m.one == 0 and m.zero == zero
        # at most cap + 1 = 61 elements: the table is uint8
        assert m.table.dtype == np.uint8
        assert m.table.tobytes() == table.astype(np.uint8).tobytes()
        assert _satisfies_relations(m.table, m.zero, gen_elems, pres)
        # the cap counts the normal forms, the zero aside
        forms = len(m) - (zero is not None)
        from_presentation(pres, cap=forms)
        if forms > 1:
            with pytest.raises(LikelyInfinite):
                from_presentation(pres, cap=forms - 1)
        outcomes["built"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def _full_scan_message(names, t):
    for a in range(len(t)):
        left, right = t[t[a], :], t[a][t]
        if not np.array_equal(left, right):
            b, c = map(int, np.argwhere(left != right)[0])
            return f"associativity fails at ({names[a]!r}, {names[b]!r}, {names[c]!r})"
    return None


def test_validate_witness_matches_full_scan():
    rng = random.Random(131)
    failing = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        t = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)],
                     dtype=np.int32)
        t[0] = t[:, 0] = np.arange(n)
        names = ["1"] + [f"e{i}" for i in range(1, n)]
        expected = _full_scan_message(names, t)
        if expected is None:
            FiniteMonoid(names, t, one=0)
            continue
        failing += 1
        with pytest.raises(InvalidTable) as exc:
            FiniteMonoid(names, t, one=0)
        assert str(exc.value) == expected
    assert failing >= 200


def test_presented_monoid_scales_past_a_thousand_elements():
    gens = "abcd"
    rels = [f"{g}6=0" for g in gens]
    rels += [f"{b}{a}={a}{b}" for a, b in itertools.combinations(gens, 2)]
    start = time.perf_counter()
    m = from_presentation(presentation(" ".join(gens), *rels))
    m.validate()
    assert len(m) == 6 ** 4 + 1
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
def test_cayley_tables_are_the_same_for_every_transposition_block(monkeypatch, block):
    # D2, R and S(abc) are not commutative, so a block swapped wrongly shows
    pres = [D2_PRES, R_PRES,
            presentation("a b c", "a2=0", "b2=0", "c2=0", "ba=0", "cb=0", "ca=0")]
    wanted = [from_presentation(p).table for p in pres]
    monkeypatch.setattr(monoids, "_BLOCK", block)
    for p, table in zip(pres, wanted):
        assert from_presentation(p).table.tobytes() == table.tobytes()
    a = np.arange(7 * 7, dtype=np.uint8).reshape(7, 7)
    monoids._transpose_in_place(a)
    assert a.tobytes() == np.arange(49, dtype=np.uint8).reshape(7, 7).T.tobytes()


def test_a_presented_table_exists_once_while_it_is_built():
    # 3000 elements, three 1024-blocks a side: an 18 MB uint16 table, which
    # a transposed copy would double
    np.zeros(1)  # numpy's own first allocations are not the build's
    tracemalloc.start()
    try:
        m = cyclic_counter(2999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.table.dtype == np.uint16 and m.mul(2, 3) == 5 and m.mul(2998, 1) == 2999
    assert peak < 2 * m.table.nbytes


@pytest.mark.parametrize("block", [1, 2, 3, 5, 1024])
def test_commutativity_is_the_same_for_every_comparison_block(monkeypatch, block):
    monkeypatch.setattr(monoids, "_BLOCK", block)
    names = ("D2", "R", "Rop", "RxRop", "counter:6", "group:5", "lrb:2", "lrb:3")
    products = [direct_product(cyclic_counter(k), named_monoid("R")) for k in (1, 2, 4)]
    for m in [named_monoid(name) for name in names] + products:
        assert is_commutative(m) == np.array_equal(m.table, m.table.T)
    # one asymmetric pair of cells, in every place and so in every block pair
    rng = np.random.default_rng(block)
    upper = np.triu(rng.integers(0, 250, (7, 7), dtype=np.uint8))
    symmetric = upper + np.triu(upper, 1).T
    assert is_commutative(SimpleNamespace(table=symmetric))
    for i, j in itertools.permutations(range(7), 2):
        table = symmetric.copy()
        table[i, j] += 1
        assert not is_commutative(SimpleNamespace(table=table)), (i, j)


def test_commutativity_is_compared_without_a_table_sized_temporary():
    # 3000 elements: comparing the whole table with its transpose would
    # hold 9 M Booleans at once, one pair of 1024-blocks holds at most 1 M
    m = cyclic_counter(2999)
    tracemalloc.start()
    try:
        assert is_commutative(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.table.size // 4


def test_from_table_and_invalid_tables():
    sl = from_table(["1", "e"], [["1", "e"], ["e", "e"]], "1")
    assert sl.mul(sl.index("e"), sl.index("e")) == sl.index("e")
    assert sl.zero == sl.index("e")
    with pytest.raises(InvalidTable):
        from_table(["1", "e"], [["1", "e"], ["e", "1"]], "e")
    with pytest.raises(InvalidTable):  # left-zero pair is not associative with 1
        from_table(["1", "a", "b"],
                   [["1", "a", "b"], ["a", "a", "a"], ["b", "b", "a"]], "1")
    with pytest.raises(InvalidTable):
        from_table(["1", "x"], [["1", "q"], ["x", "x"]], "1")


def test_index_finds_each_name_and_refuses_unknown_or_repeated_ones():
    m = cyclic_counter(3)
    assert [m.index(name) for name in m.names] == list(range(len(m)))
    with pytest.raises(KeyError) as exc:
        m.index("b")
    assert exc.value.args[0] == "no element named 'b'"
    with pytest.raises(InvalidTable, match="element names are not distinct"):
        FiniteMonoid(["1", "1"], [[0, 1], [1, 1]], one=0)


def test_validate_reports_witness():
    table = np.array([[0, 1], [1, 0]], dtype=np.int32)
    m = FiniteMonoid(["1", "g"], table, one=0)
    bad = np.array([[0, 1, 2], [1, 2, 1], [2, 1, 1]], dtype=np.int32)
    with pytest.raises(InvalidTable, match="associativity"):
        FiniteMonoid(["1", "a", "b"], bad, one=0)
    assert "order 2" in repr(m)


def test_validate_range_checks_identity_and_zero():
    with pytest.raises(InvalidTable, match="identity index 0 is out of range"):
        FiniteMonoid([], np.zeros((0, 0)), one=0)
    with pytest.raises(InvalidTable, match="identity index 3 is out of range"):
        FiniteMonoid(["1"], [[0]], one=3)
    with pytest.raises(InvalidTable, match="zero index 5 is out of range"):
        FiniteMonoid(["1", "e"], [[0, 1], [1, 1]], one=0, zero=5)
    # the last row is the identity, so a wrapped -1 would pass the table checks
    with pytest.raises(InvalidTable, match="identity index -1 is out of range"):
        FiniteMonoid(["e", "1"], [[0, 0], [0, 1]], one=-1)


@pytest.mark.parametrize("entry", [257, -255])
def test_entries_that_would_wrap_are_refused(entry):
    # identity 0, idempotent 1, zero 2: 257 and -255 both wrap to 1 in uint8,
    # which would make the table valid
    rows = [[0, 1, 2], [1, entry, 2], [2, 2, 2]]
    with pytest.raises(InvalidTable, match="table entry out of range"):
        FiniteMonoid(["0", "1", "2"], rows, one=0)
    with pytest.raises(InvalidTable, match=f"table entry {entry} is not an element name"):
        from_table([0, 1, 2], rows, 0)


def test_direct_product_counts_and_law():
    r = from_presentation(R_PRES)
    rxr = direct_product(r, opposite(r))
    assert len(rxr) == 49
    assert rxr.names[rxr.one] == "(1,1)"
    assert rxr.names[rxr.zero] == "(0,0)"
    rxr.validate()
    # a product satisfies an identity iff both factors do
    rng = random.Random(83)
    c2, g2 = cyclic_counter(2), cyclic_group(2)
    prod = direct_product(c2, g2)
    for _ in range(60):
        w1 = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 6)))
        w2 = "".join(rng.choice("xy") for _ in range(rng.randrange(1, 6)))
        ident = parse_identity(f"{w1}={w2}") if w1 != w2 else _ident("x=x")
        both = (find_counterexample(c2, ident) is None
                and find_counterexample(g2, ident) is None)
        assert (find_counterexample(prod, ident) is None) == both, ident


def test_opposite_involution_and_duality():
    for m in (from_presentation(D2_PRES), free_lrb_monoid(3), cyclic_counter(3)):
        m.validate()
        op = opposite(m)
        op.validate()
        assert np.array_equal(opposite(op).table, m.table)
        assert op.one == m.one and op.zero == m.zero
        # M^op satisfies u=v iff M satisfies the reversed identity
        rng = random.Random(29)
        for _ in range(40):
            u = "".join(rng.choice("xyz") for _ in range(rng.randrange(1, 5)))
            v = "".join(rng.choice("xyz") for _ in range(rng.randrange(1, 5)))
            ident = parse_identity(f"{u}={v}")
            rev = parse_identity(f"{reverse(u)}={reverse(v)}")
            assert ((find_counterexample(op, ident) is None)
                    == (find_counterexample(m, rev) is None))


def test_free_lrb_monoid():
    assert len(free_lrb_monoid(2)) == 5
    lrb3 = free_lrb_monoid(3)
    assert len(lrb3) == 16
    lrb3.validate()
    assert find_counterexample(lrb3, _ident("xy=xyx")) is None
    assert find_counterexample(lrb3, _ident("x=x2")) is None
    assert find_counterexample(lrb3, _ident("xy=yx")) is not None
    assert monoid_index_period(lrb3) == (1, 1) or (
        monoid_index_period(lrb3).index == 1 and monoid_index_period(lrb3).period == 1)
    with pytest.raises(ValueError):
        free_lrb_monoid(0)
    with pytest.raises(ValueError):
        free_lrb_monoid(9)


def test_builtin_tables_match_pairwise_construction():
    for k in range(1, 5):
        elems = [""] + ["".join(p) for r in range(1, k + 1)
                        for p in itertools.permutations("xyztabcd"[:k], r)]
        pos = {w: i for i, w in enumerate(elems)}
        table = np.array([[pos[initial_part(u + v)] for v in elems] for u in elems],
                         dtype=np.int32)
        m = free_lrb_monoid(k)  # at most 65 elements
        assert m.table.dtype == np.uint8
        assert m.table.tobytes() == table.astype(np.uint8).tobytes()
    # order n + 1: 256 elements still fit uint8, 257 need uint16
    for n in (*range(1, 30), 255, 256):
        table = np.array([[n if i == n or j == n or i + j >= n else i + j
                           for j in range(n + 1)] for i in range(n + 1)], dtype=np.int32)
        dtype = np.uint8 if n < 256 else np.uint16
        m = cyclic_counter(n)
        assert m.table.dtype == dtype
        assert m.table.tobytes() == table.astype(dtype).tobytes()
        assert m.zero == n


def test_index_dtype_is_the_smallest_that_holds_every_index():
    # the entries of a table of `order` elements
    for order, dtype in ((1, np.uint8), (256, np.uint8), (257, np.uint16),
                         (65536, np.uint16), (65537, np.uint32)):
        assert index_dtype(order) is dtype
        assert np.iinfo(dtype).max >= order - 1


def test_position_dtype_is_the_smallest_unsigned_that_holds_every_position():
    # the flat positions of a table's cells follow the same rule, applied to
    # the table's size: the last position of a 65 536-element table,
    # 2^32 - 1, needs uint32
    for size, dtype in ((1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16),
                        (65537, np.uint32), (1 << 32, np.uint32), ((1 << 32) + 1, np.intp)):
        assert index_dtype(size) is dtype
        assert np.iinfo(dtype).max >= size - 1
    assert index_dtype(65536 ** 2) is np.uint32


# tables on both sides of 2^8 and 2^16 cells, square (16/17 and 256/257
# elements) or one row or column long, each cell holding its own position
_GATHER_SHAPES = ((16, 16), (17, 17), (256, 256), (257, 257), (1, 256), (1, 257),
                  (256, 1), (2, 128), (2, 129))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_GATHER_SHAPES), st.data())
def test_gather_reads_every_position_across_the_dtype_edges(shape, data):
    table = np.arange(shape[0] * shape[1], dtype=np.uint32).reshape(shape)

    def indices(bound, label):
        dtype = data.draw(st.sampled_from(
            [t for t in (np.uint8, np.uint16, np.intp) if np.iinfo(t).max >= bound - 1]),
            label=f"{label} dtype")
        # the last index is drawn often: it reaches the last positions
        values = st.one_of(st.just(bound - 1), st.integers(0, bound - 1))
        length = data.draw(st.integers(1, 6), label=f"{label} length")
        return np.array(data.draw(st.lists(values, min_size=length, max_size=length),
                                  label=label), dtype=dtype)

    rows, cols = indices(shape[0], "rows"), indices(shape[1], "cols")
    for r, c in ((rows[:, None], cols[None, :]), (rows, cols[:1]), (rows[:1], cols),
                 (int(rows[0]), cols)):
        assert np.array_equal(gather(table, r, c), table[r, c])


@pytest.mark.parametrize("n", [3, 300])
def test_gather_is_two_dimensional_indexing(n):
    rng = np.random.default_rng(n)
    table = rng.integers(0, n, (n, n)).astype(index_dtype(n))
    rows = rng.integers(0, n, (7, 1)).astype(table.dtype)
    cols = rng.integers(0, n, (1, 5))
    assert np.array_equal(gather(table, rows, cols), table[rows, cols])
    assert np.array_equal(gather(table, n - 1, cols), table[n - 1, cols])


@pytest.mark.parametrize("n", [255, 256])
def test_scan_agrees_with_the_oracle_on_both_sides_of_the_uint8_boundary(n):
    m = cyclic_counter(n)
    for text in ("x=x2", "xy=yx", "x3=x4", f"x{n}=x{n + 1}", f"x{n - 1}y=x{n}y", "xyx=x2y"):
        ident = parse_identity(text)
        assert find_counterexample(m, ident) == _first_violation(m, ident), text


# counter:15, 16, 255 and 256 have 16, 17, 256 and 257 elements: the flat
# positions of their tables need uint8, uint16, uint16 and uint32
@pytest.mark.parametrize("n", [15, 16, 255, 256])
def test_scan_agrees_with_the_lexicographic_scan_across_the_position_dtypes(n, monkeypatch):
    m = cyclic_counter(n)
    texts = ["x=x2", "xy=yx", f"x{n}=x{n + 1}", f"x{n - 1}y=x{n}y", f"xy{n - 1}=x2y{n - 1}",
             f"x{n - 1}=y{n - 1}"]
    if n < 20:  # three letters: n^3 cells for the pure-Python scan
        texts += ["xyz=zyx", f"x{n - 1}yz=x{n}z", "xz=yz2"]
    seen = set()
    for text in texts:
        ident = parse_identity(text)
        want = _first_violation(m, ident)
        seen.add(want is None)
        assert find_counterexample(m, ident) == want, text
        with monkeypatch.context() as patch:  # leading letters fixed, one chunk each
            patch.setattr(monoids, "_CHUNK_CELLS", len(m))
            assert find_counterexample(m, ident) == want, text
    assert seen == {True, False}


def test_direct_product_keeps_pair_indices_past_uint8():
    c15, c16 = cyclic_counter(15), cyclic_counter(16)
    p = direct_product(c15, c16)
    assert len(p) == 272 and p.table.dtype == np.uint16
    a, b = np.indices((272, 272))
    expect = c15.table[a // 17, b // 17].astype(np.int64) * 17 + c16.table[a % 17, b % 17]
    assert np.array_equal(p.table, expect)
    assert p.names[p.one] == "(1,1)" and p.names[p.zero] == "(0,0)"


@pytest.mark.parametrize("left, right, dtype", [
    ("counter:15", "counter:15", np.uint8),   # 256 elements
    ("group:1", "counter:255", np.uint8),     # |N| = 256 itself does not fit uint8
    ("counter:15", "counter:16", np.uint16),  # 272 elements
])
def test_direct_product_table_is_the_int64_construction(left, right, dtype):
    m, n = named_monoid(left), named_monoid(right)
    wide = (m.table[:, None, :, None].astype(np.int64) * len(n)
            + n.table[None, :, None, :]).reshape(len(m) * len(n), -1)
    p = direct_product(m, n)
    assert p.table.dtype == dtype
    assert p.table.tobytes() == wide.astype(dtype).tobytes()


def test_direct_product_builds_no_wider_table_than_it_stores():
    # 2015 elements: an 8 MB uint16 table, which an int64 intermediate
    # would make 31 MB
    m, n = free_lrb_monoid(4), cyclic_counter(30)
    tracemalloc.start()
    try:
        p = direct_product(m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.table.dtype == np.uint16
    assert peak < 2 * p.table.nbytes


def test_free_lrb_monoid_stops_below_the_element_cap():
    # lrb:7 has 13 700 elements, past from_presentation's 10 000
    with pytest.raises(ValueError, match="1 <= k <= 6"):
        free_lrb_monoid(7)
    assert len(free_lrb_monoid(6)) == 1957


def test_cyclic_group_matches_modular_addition():
    for m in range(1, 30):
        table = np.fromfunction(lambda i, j: (i + j) % m, (m, m), dtype=np.int64)
        g = cyclic_group(m)
        assert np.array_equal(g.table, table)
        assert g.names == ("1",) + tuple(f"g{i}" if i > 1 else "g" for i in range(1, m))
        assert g.one == 0 and g.zero is None


def test_cyclic_builtins_past_the_element_cap_are_likely_infinite():
    with pytest.raises(LikelyInfinite):
        cyclic_counter(10001)
    with pytest.raises(LikelyInfinite):
        cyclic_group(10001)


def test_cyclic_counter():
    c1 = cyclic_counter(1)
    assert set(c1.names) == {"1", "0"}
    c3 = cyclic_counter(3)
    assert c3.names == ("1", "a", "a2", "0")
    c3.validate()
    assert find_counterexample(c3, _ident("x3=x4")) is None
    assert find_counterexample(c3, _ident("x2=x3")) is not None
    assert find_counterexample(c3, _ident("x2=x3")) == {"x": "a"}
    assert is_commutative(c3)
    assert not is_completely_regular(cyclic_counter(2))
    with pytest.raises(ValueError):
        cyclic_counter(0)


def test_cyclic_group():
    g2 = cyclic_group(2)
    assert g2.names == ("1", "g")
    assert find_counterexample(g2, _ident("x2y=y")) is None
    assert find_counterexample(g2, _ident("x=x2")) is not None
    assert find_counterexample(g2, _ident("x=x2")) == {"x": "g"}
    g3 = cyclic_group(3)
    assert g3.names == ("1", "g", "g2")
    g3.validate()
    assert is_completely_regular(g3) and is_commutative(g3)
    with pytest.raises(ValueError):
        cyclic_group(0)


def test_index_period_frozen():
    assert monoid_index_period(cyclic_counter(2)) == monoid_index_period(cyclic_counter(2))
    ip = monoid_index_period(cyclic_counter(2))
    assert (ip.index, ip.period) == (2, 1)
    ip = monoid_index_period(cyclic_group(3))
    assert (ip.index, ip.period) == (1, 3)
    ip = monoid_index_period(free_lrb_monoid(3))
    assert (ip.index, ip.period) == (1, 1)
    ip = monoid_index_period(from_presentation(D2_PRES))
    assert (ip.index, ip.period) == (2, 1)


def test_d2_satisfies_x3_collapse():
    d2 = from_presentation(D2_PRES)
    assert find_counterexample(d2, _ident("x3=x2")) is None
    assert find_counterexample(d2, _ident("x2=x")) is not None
    w = find_counterexample(d2, _ident("xy=yx"))
    assert w is not None and set(w) == {"x", "y"}
    # a substituted counterexample really violates the identity
    i, j = d2.index(w["x"]), d2.index(w["y"])
    assert d2.mul(i, j) != d2.mul(j, i)


def test_satisfies_ignores_assignment_free_identities():
    assert find_counterexample(cyclic_group(2), _ident("1=1")) is None


def test_search_guard():
    rxr = direct_product(from_presentation(R_PRES),
                         opposite(from_presentation(R_PRES)))
    wide = parse_identity("abcdefg=gfedcba")
    with pytest.raises(SearchCapExceeded):
        find_counterexample(rxr, wide)
    # five letters over 49 elements blows the work cap too
    with pytest.raises(SearchCapExceeded):
        find_counterexample(rxr, parse_identity("abcde=edcba"))
    # four letters stay under it
    assert find_counterexample(rxr, parse_identity("x3yzt=yxzxtx")) is None


def _first_violation(m, ident):
    """Pure-Python oracle: the first violating assignment over the sorted
    letters, elements in table order, or None."""
    letters = sorted(ident.letters())
    table = m.table.tolist()

    def value(word, at):
        acc = m.one
        for c in word:
            acc = table[acc][at[c]]
        return acc

    for names in itertools.product(m.names, repeat=len(letters)):
        at = {c: m.index(x) for c, x in zip(letters, names)}
        if value(ident.lhs, at) != value(ident.rhs, at):
            return dict(zip(letters, names))
    return None


# a builtin model, an alphabet, a left word, and a right word that often
# extends a prefix of the left one, so that common prefixes are drawn
_SCAN_CASES = st.tuples(
    st.sampled_from(("D2", "R", "Rop", "counter:3", "group:4", "lrb:2", "lrb:3")),
    st.integers(1, 4).map(lambda k: "xyzt"[:k]),
    st.integers(1, 8),  # chunk cells: most draws span many chunks
    st.data())


def test_chunked_scan_matches_the_first_violation_oracle(monkeypatch):
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_SCAN_CASES)
    def check(drawn):
        name, alphabet, chunk, data = drawn
        words = st.text(alphabet=alphabet, max_size=6)
        u = data.draw(words, label="u")
        v = data.draw(st.one_of(words, st.builds(
            lambda i, w: (u[:i] + w)[:6], st.integers(0, len(u)), words)), label="v")
        m = _twin(named_monoid(name))  # a builtin may keep an F_k, read instead of a scan
        ident = Identity(u, v)
        expected = _first_violation(m, ident)
        seen.add(expected is None)
        assert find_counterexample(m, ident) == expected  # a single chunk
        with monkeypatch.context() as patch:
            patch.setattr(monoids, "_CHUNK_CELLS", chunk)
            assert find_counterexample(m, ident) == expected

    check()
    assert seen == {True, False}


def test_factor_decision_matches_the_full_scan():
    c2 = named_monoid("counter:2")
    # each product with the letters its pure-Python oracle scans in good time
    products = [(named_monoid("RxRop"), "xyz"),
                (direct_product(c2, named_monoid("group:3")), "xyzt"),
                (direct_product(named_monoid("RxRop"), c2), "xy")]
    assert products[2][0].factors[0].factors  # a nested product
    twins = [FiniteMonoid(p.names, p.table, p.one, p.zero) for p, _ in products]
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, len(products) - 1), st.data())
    def check(which, data):
        p, alphabet = products[which]
        alphabet = alphabet[:data.draw(st.integers(1, len(alphabet)), label="k")]
        words = st.text(alphabet=alphabet, max_size=3)
        if data.draw(st.booleans(), label="powers"):
            # u c^a w = u c^b w holds in some factors and fails in others
            pre, post = data.draw(words, label="pre"), data.draw(words, label="post")
            c = data.draw(st.sampled_from(alphabet), label="c")
            a, b = data.draw(st.integers(0, 6), label="a"), data.draw(st.integers(0, 6), label="b")
            ident = Identity(pre + c * a + post, pre + c * b + post)
        else:
            ident = Identity(data.draw(words, label="u"), data.draw(words, label="v"))
        expected = _first_violation(p, ident)
        seen.add(expected is None)
        assert find_counterexample(twins[which], ident) == expected
        assert find_counterexample(p, ident) == expected

    check()
    assert seen == {True, False}


def _twin(m):
    """A monoid equal to m that keeps no relatively free monoid."""
    return FiniteMonoid(m.names, m.table, m.one, m.zero)


def _seeded_monoids(count, seed=3101):
    """The first `count` random presentations of a seeded stream that give
    monoids of at most 13 elements (12 normal forms and a zero)."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        try:
            found.append(from_presentation(_random_presentation(rng), cap=12))
        except (LikelyInfinite, UnsupportedPresentation):
            pass
    return found


def test_relatively_free_answers_as_the_scan_does():
    # each model with the most generators of its F_k that the test builds: at
    # 257 elements F_2 is past the cell cap, so counter:255 and 256 stop at k = 1
    models = ([(named_monoid(name), k) for name, k in (
        ("D2", 3), ("R", 3), ("Rop", 3), ("RxRop", 2), ("group:4", 3), ("lrb:3", 3),
        ("counter:255", 1), ("counter:256", 1))] + [(m, 3) for m in _seeded_monoids(6)])
    keeping = {}  # (model, k) -> an equal monoid that keeps only its F_k
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, len(models) - 1), st.data())
    def check(which, data):
        m, most = models[which]
        k = data.draw(st.integers(1, most), label="k")
        if (which, k) not in keeping:
            keeping[which, k] = _twin(m)
            relatively_free(keeping[which, k], k)
        letters = data.draw(st.lists(st.sampled_from("abtxyz"), min_size=1, max_size=k,
                                     unique=True), label="letters")
        words = st.text(alphabet="".join(letters), max_size=6)
        if data.draw(st.booleans(), label="powers"):
            # powers up to past the order, for the counters' last elements
            pre, post = data.draw(words, label="pre"), data.draw(words, label="post")
            c = data.draw(st.sampled_from(letters), label="c")
            a, b = (data.draw(st.one_of(st.integers(0, 8), st.integers(250, 260)), label=e)
                    for e in "ab")
            ident = Identity(pre + c * a + post, pre + c * b + post)
        else:
            ident = Identity(data.draw(words, label="u"), data.draw(words, label="v"))
        plain = _twin(m)
        expected = _first_violation(plain, ident)
        seen.add(expected is None)
        assert find_counterexample(keeping[which, k], ident) == expected
        assert find_counterexample(plain, ident) == expected
        assert plain._free == {}  # checking builds no F_k

    check()
    assert seen == {True, False}


def test_relatively_free_is_kept_per_k_and_refused_past_the_cap():
    m = _twin(named_monoid("lrb:3"))
    f3 = relatively_free(m, 3)
    assert relatively_free(m, 3) is f3 and relatively_free(m, 2) is not f3
    # the free left regular band on three letters is lrb:3 itself
    assert len(f3) == 16 and f3.element("yxy", "xyz") == f3.element("yx", "xyz")
    assert len(relatively_free(_twin(named_monoid("group:3")), 2)) == 9
    assert [len(relatively_free(cyclic_counter(c), 1)) for c in (2, 3, 4, 5)] == [3, 4, 5, 6]
    rxr = _twin(named_monoid("RxRop"))  # 49^3 cells a vector, about 18 M in all
    with pytest.raises(SearchCapExceeded, match=f"cap of {monoids._FREE_CELLS} cells"):
        relatively_free(rxr, 3)
    assert rxr._free == {}
    # a vector past the cap is refused before anything is built
    with pytest.raises(SearchCapExceeded, match="cap of"):
        relatively_free(rxr, 5)
    # an identity with more letters than F_k has generators is scanned
    relatively_free(m, 1)
    ident = parse_identity("xyzt=yxzt")
    assert find_counterexample(m, ident) == _first_violation(m, ident) is not None


_CONSTRUCTIONS = {
    "from_presentation": lambda: from_presentation(R_PRES),
    "from_table": lambda: from_table(["1", "e"], [["1", "e"], ["e", "e"]], "1"),
    "direct_product": lambda: direct_product(cyclic_counter(2), cyclic_group(2)),
    "opposite": lambda: opposite(from_presentation(R_PRES)),
    "free_lrb_monoid": lambda: free_lrb_monoid(2),
    # a given array already in the stored dtype is kept, and made read-only
    "FiniteMonoid": lambda: FiniteMonoid(["1"], np.zeros((1, 1), dtype=np.uint8), 0),
}


@pytest.mark.parametrize("path", sorted(_CONSTRUCTIONS))
def test_monoid_tables_are_read_only_on_every_construction_path(path):
    m = _CONSTRUCTIONS[path]()
    with pytest.raises(ValueError, match="read-only"):
        m.table[0, 0] = m.table[0, 0]
    m.validate()


@pytest.mark.parametrize("text, witness", [
    ("xyzt=xyztzx", None),
    ("xyzt=yxzt", {"t": "1", "x": "x", "y": "y", "z": "1"}),
], ids=["holds", "fails"])
def test_model_check_memory_does_not_grow_with_the_cube(text, witness):
    # 65^4 = 17.8 M assignment cells; the chunked scan holds about 2^20
    m = free_lrb_monoid(4)
    tracemalloc.start()
    try:
        found = find_counterexample(m, parse_identity(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert found == witness


def test_parse_presentation_file(tmp_path):
    text = "# sample\ngens: a b\nrel: a2 = 0\nrel: b2 = 0\nrel: bab = 0\n"
    pres = parse_presentation(text)
    assert pres == D2_PRES
    with pytest.raises(ValueError):
        parse_presentation("rel: a2 = 0\n")
    with pytest.raises(ValueError):
        parse_presentation("gens: a\nrelation a2=0\n")


def test_parse_table_file():
    text = "1 e\n1 e\ne e\none: 1\nzero: e\n"
    m = parse_table(text)
    assert set(m.names) == {"1", "e"} and m.zero == m.index("e")
    with pytest.raises(ValueError):
        parse_table("1 e\n1 e\ne e\n")  # no one: line
    with pytest.raises(InvalidTable):
        parse_table("1 e\n1 e\ne e\none: 1\nzero: 1\n")


@pytest.mark.parametrize("key", ["one", "zero"])
def test_parse_table_refuses_a_repeated_one_or_zero_line(key):
    with pytest.raises(ParseError, match=f"^duplicate {key}: line$"):
        parse_table(f"1 e\n1 e\ne e\none: 1\n{key}: 1\n{key}: e\n")


def test_load_monoid_sniffs_format(tmp_path):
    pres_file = tmp_path / "r.pres"
    pres_file.write_text("gens: a b\nrel: a3 = 0\nrel: b2 = 0\nrel: ba = 0\n")
    assert len(load_monoid(pres_file)) == 7
    table_file = tmp_path / "sl.tab"
    table_file.write_text("1 e\n1 e\ne e\none: 1\n")
    m = load_monoid(table_file)
    assert len(m) == 2 and m.zero is not None
