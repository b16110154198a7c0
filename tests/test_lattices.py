import itertools
import tracemalloc
from collections.abc import Mapping, MutableMapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monvar import lattices
from monvar.lattices import (
    Check,
    CycleError,
    ElementReport,
    FiniteLattice,
    NotALattice,
    Partition,
    _element_report,
    all_partitions,
    classify_element,
    fixtures,
    is_cancellable_element,
    is_costandard_element,
    is_distributive_lattice,
    is_modular_element,
    is_modular_lattice,
    jezek_modular,
    named_lattice,
    parse_lattice,
    partition_lattice,
)
from monvar.words import ParseError


def _chain(n):
    names = [f"c{i}" for i in range(n)]
    return FiniteLattice.from_covers(names, [(names[i], names[i + 1])
                                             for i in range(n - 1)])


def test_from_covers_chain():
    lat = _chain(4)
    assert lat.bottom == "c0" and lat.top == "c3"
    assert lat.le("c0", "c2") and not lat.le("c2", "c0")
    assert lat.meet_of("c1", "c3") == "c1"
    assert lat.join_of("c1", "c2") == "c2"


def test_index_by_name_and_by_position():
    lat = _chain(3)
    assert [lat.index(name) for name in lat.names] == [0, 1, 2]
    assert lat.index(np.uint8(2)) == 2
    for element, message in (("q", "no element named 'q'"),
                             (3, "element index 3 out of range"),
                             (-1, "element index -1 out of range")):
        with pytest.raises(KeyError) as exc:
            lat.index(element)
        assert exc.value.args[0] == message
    with pytest.raises(ValueError, match="element names must be distinct"):
        FiniteLattice.from_covers(["a", "a"], [])


def test_from_covers_rejects_bowtie():
    # two maximal elements over two minimal ones: join of the minima is ambiguous
    with pytest.raises(NotALattice):
        FiniteLattice.from_covers("a b c d".split(),
                                  [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def test_from_covers_rejects_cycles():
    with pytest.raises(CycleError):
        FiniteLattice.from_covers(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        FiniteLattice.from_covers(["a"], [("a", "a")])


def test_from_covers_rejects_unknown_names():
    with pytest.raises(ValueError):
        FiniteLattice.from_covers(["a"], [("a", "q")])


def test_two_bottoms_rejected():
    with pytest.raises(NotALattice):
        FiniteLattice.from_covers(["a", "b", "t"], [("a", "t"), ("b", "t")])


def test_fixture_sizes():
    fx = fixtures()
    assert len(fx["fig1"]) == 10
    assert len(fx["fig2"]) == 11
    assert len(fx["chainD"]) == 4


def test_fixtures_is_a_read_only_mapping_parsed_on_first_read(monkeypatch):
    fx = fixtures()
    assert isinstance(fx, Mapping) and not isinstance(fx, MutableMapping)
    assert list(fx) == ["fig1", "fig2", "chainD"] and len(fx) == 3
    assert fixtures() is fx
    for name in fx:
        assert fx[name] is fx[name] is fixtures()[name] is named_lattice(name)
    with pytest.raises(TypeError):
        fx["fig1"] = fx["fig2"]
    with pytest.raises(KeyError):
        fx["part:3"]
    # a fresh mapping parses each file on the first read of its key, once
    calls = []
    parse = lattices.parse_lattice
    monkeypatch.setattr(lattices, "parse_lattice", lambda text: calls.append(text) or parse(text))
    fresh = type(fx)()
    assert len(fresh) == 3 and "fig2" in fresh and not calls
    lat = fresh["fig2"]
    assert len(calls) == 1 and len(lat) == 11
    assert fresh["fig2"] is lat and len(calls) == 1
    fresh["chainD"]
    assert len(calls) == 2


def test_meet_join_cohere_with_order():
    # x <= y iff meet is x iff join is y, on every bundled lattice
    for lat in (*fixtures().values(), partition_lattice(4), _chain(5)):
        n = len(lat)
        assert lat.meet.dtype == lat.join.dtype == np.uint8  # at most 256 elements
        for i, j in itertools.product(range(n), repeat=2):
            le = bool(lat.leq[i, j])
            assert le == (lat.meet[i, j] == i)
            assert le == (lat.join[i, j] == j)


@pytest.mark.parametrize("lat", [_chain(3), partition_lattice(3)], ids=["order", "blocks"])
def test_order_and_tables_are_read_only(lat):
    # both construction paths: tables from the order, and tables given with it
    for table in (lat.leq, lat.meet, lat.join):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = table[0, 0]


def _bound_oracle(n, below, i, j):
    """The one common lower bound that every other one lies below, or None."""
    bounds = [c for c in range(n) if below(c, i) and below(c, j)]
    best = [c for c in bounds if all(below(d, c) for d in bounds)]
    return best[0] if len(best) == 1 else None


def _subsets(m):
    return st.integers(0, 2 ** m - 1).map(
        lambda bits: frozenset(i for i in range(m) if bits >> i & 1))


# a ground size m, a family of subsets of range(m), whether to close it under
# intersection, and whether to complement every member (reversing the order)
_FAMILIES = st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(_subsets(m), min_size=2, max_size=8), st.booleans(), st.booleans()))


def test_tables_match_the_bound_oracle_on_set_families():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_FAMILIES)
    def check(drawn):
        m, family, close, dual = drawn
        sets = set(family) | {frozenset(range(m))}
        while close and (more := {a & b for a in sets for b in sets} - sets):
            sets |= more
        if dual:
            sets = {frozenset(range(m)) - s for s in sets}
        sets = sorted(sets, key=sorted)
        n = len(sets)
        names = ["s" + "".join(map(str, sorted(s))) for s in sets]
        pairs = list(itertools.combinations_with_replacement(range(n), 2))
        meets = {p: _bound_oracle(n, lambda a, b: sets[a] <= sets[b], *p) for p in pairs}
        joins = {p: _bound_oracle(n, lambda a, b: sets[b] <= sets[a], *p) for p in pairs}
        leq = [[a <= b for b in sets] for a in sets]
        missing = "meet" if None in meets.values() else "join" if None in joins.values() else None
        seen.add(missing)
        if missing:
            with pytest.raises(NotALattice, match=f"have no {missing}$"):
                FiniteLattice(names, leq)
            return
        lat = FiniteLattice(names, leq)
        for (i, j), k in meets.items():
            assert lat.meet[i, j] == lat.meet[j, i] == k
        for (i, j), k in joins.items():
            assert lat.join[i, j] == lat.join[j, i] == k

    check()
    assert seen == {None, "meet", "join"}


def _reference_report(lat, x):
    """The three element tests by their n x n formulas, reading columns and
    indexing with plain 2-d fancy indexing: the oracle for the kernel."""
    mx, jx = lat.meet[x], lat.join[:, x]
    lhs = lat.join[:, mx]  # [a, b] -> a v (x ^ b)

    def check(bad):
        if not bad.any():
            return Check(True)
        return Check(False, tuple(lat.names[int(k)] for k in np.argwhere(bad)[0]))

    same = (lat.join[x][:, None] == lat.join[x][None, :]) & (mx[:, None] == mx[None, :])
    return ElementReport(
        lat.names[x],
        modular=check((lhs != lat.meet[jx]) & lat.leq),  # [a, b] -> (a v x) ^ b
        cancellable=check(same & ~np.eye(len(lat), dtype=bool)),
        costandard=check(lhs != lat.meet[jx[:, None], lat.join]))  # (a v x) ^ (a v b)


def _downset_lattice(m, relations):
    """The down-sets of the order on range(m) generated by `relations`
    (pairs i < j), ordered by inclusion; a distributive lattice."""
    below = [1 << p for p in range(m)]  # below[p]: bit mask of the points <= p
    for lo, hi in sorted(relations, key=lambda r: r[1]):
        below[hi] |= below[lo]
    for p in range(m):  # close along the linear extension 0 < 1 < ... < m - 1
        for q in range(p):
            if below[p] >> q & 1:
                below[p] |= below[q]
    sets = [d for d in range(1 << m) if all(below[p] & ~d == 0 for p in range(m) if d >> p & 1)]
    return FiniteLattice([f"d{d}" for d in sets], [[a & ~b == 0 for b in sets] for a in sets])


_M3 = FiniteLattice.from_covers("0 a b c 1".split(), [("0", e) for e in "abc"]
                                + [(e, "1") for e in "abc"])
_N5 = FiniteLattice.from_covers("0 a b c 1".split(),
                                [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
_NAMED = ("fig1", "fig2", "chainD", "part:2", "part:3", "part:4", "part:5")


def _birkhoff(lat):
    """`lat`, once its distributivity is asserted: the down-sets of an order
    form a distributive lattice (Birkhoff 1937)."""
    assert is_distributive_lattice(lat) == Check(True)
    return lat


# down-set lattices of 17 to 120 elements: past 16 elements a uint8
# join[x] * n would wrap.  They are distributive, so `classify_element`
# answers them from that verdict; the tests below run the element kernel,
# `_element_report`, on them as well.
_DOWNSETS = st.integers(5, 7).flatmap(lambda m: st.lists(
    st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda r: r[0] < r[1]),
    max_size=m).map(lambda rel: _downset_lattice(m, rel))).filter(
    lambda lat: 17 <= len(lat) <= 120).map(_birkhoff)


def test_element_kernel_matches_the_n_by_n_formulas():
    lattices = {name: named_lattice(name) for name in _NAMED} | {"M3": _M3, "N5": _N5}
    seen = set()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.one_of(_DOWNSETS, st.sampled_from(sorted(lattices)).map(lattices.get)),
           st.data())
    def check(lat, data):
        elements = data.draw(st.lists(st.integers(0, len(lat) - 1), min_size=1,
                                      max_size=8, unique=True))
        for x in elements:
            want = _reference_report(lat, x)
            assert _element_report(lat, x) == want
            assert classify_element(lat, x) == want
            assert is_modular_element(lat, x) == want.modular
            assert is_cancellable_element(lat, x) == want.cancellable
            assert is_costandard_element(lat, x) == want.costandard
            seen.update((prop, getattr(want, prop).ok, len(lat) > 16)
                        for prop in ("modular", "cancellable", "costandard"))

    check()
    # both verdicts of each test, in lattices past 16 elements too, each
    # compared with the kernel
    assert seen == {(prop, ok, big) for prop in ("modular", "cancellable", "costandard")
                    for ok in (True, False) for big in (True, False)}


def _python_report(lat, x):
    """The three element tests by their definitions, over the tables as
    Python lists, each a loop over a then b: the first bad (a, b) is the
    witness."""
    n, meet, join, leq = len(lat), lat.meet.tolist(), lat.join.tolist(), lat.leq.tolist()

    def first(bad):
        pair = next(((a, b) for a in range(n) for b in range(n) if bad(a, b)), None)
        return Check(True) if pair is None else Check(False, tuple(lat.names[k] for k in pair))

    return ElementReport(
        lat.names[x],
        modular=first(lambda a, b: leq[a][b]
                      and meet[join[x][a]][b] != join[meet[x][b]][a]),
        cancellable=first(lambda a, b: a != b and join[x][a] == join[x][b]
                          and meet[x][a] == meet[x][b]),
        costandard=first(lambda a, b: join[a][meet[x][b]] != meet[join[a][x]][join[a][b]]))


def _seeded_downsets(seed, count):
    """Down-set lattices of 17 to 80 elements from seeded random posets."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        m = int(rng.integers(5, 8))
        rel = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.3]
        lat = _downset_lattice(m, rel)
        if 17 <= len(lat) <= 80:
            found.append(lat)
    return found


@pytest.mark.parametrize("name", ["fig1", "fig2", "chainD", "part:3", "part:4", "part:5",
                                  "downsets"])
def test_element_tests_match_a_loop_over_the_definitions(name):
    # part:5 has 52 elements, so its witnesses come through uint16 positions
    lats = _seeded_downsets(7, 3) if name == "downsets" else [named_lattice(name)]
    for lat in lats:
        for x in range(len(lat)):
            want = _python_report(lat, x)
            assert _element_report(lat, x) == want
            assert classify_element(lat, x) == want
            assert is_modular_element(lat, x) == want.modular
            assert is_cancellable_element(lat, x) == want.cancellable
            assert is_costandard_element(lat, x) == want.costandard


def _python_global_checks(lat):
    """Whole-lattice modularity and distributivity by their definitions,
    over the tables as Python lists, each a loop over the lead element and
    then a pair in row-major order: the first bad triple is the witness."""
    n, meet, join, leq = len(lat), lat.meet.tolist(), lat.join.tolist(), lat.leq.tolist()

    def first(bad):
        triple = next(((u, v, w) for u in range(n) for v in range(n) for w in range(n)
                       if bad(u, v, w)), None)
        return Check(True) if triple is None else \
            Check(False, tuple(lat.names[k] for k in triple))

    modular = first(lambda a, x, b: leq[a][b] and join[a][meet[x][b]] != meet[join[a][x]][b])
    distributive = first(lambda x, y, z: meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]])
    return modular, distributive


@pytest.mark.parametrize("name", ["fig1", "fig2", "chainD", "M3", "N5", "part:2", "part:3",
                                  "part:4", "part:5", "downsets"])
def test_global_checks_match_a_loop_over_the_definitions(name):
    typed = {"M3": _M3, "N5": _N5}
    if name == "downsets":
        lats = _seeded_downsets(7, 3)
    else:
        lats = [typed[name] if name in typed else named_lattice(name)]
    for lat in lats:
        modular, distributive = _python_global_checks(lat)
        assert is_modular_lattice(lat) == modular
        assert is_distributive_lattice(lat) == distributive
        assert distributive.ok or name != "downsets"  # Birkhoff


def test_distributivity_is_decided_once():
    lat = partition_lattice(4)
    verdict = is_distributive_lattice(lat)
    assert not verdict
    assert is_distributive_lattice(lat) is verdict
    assert not is_modular_lattice(lat)
    assert is_distributive_lattice(lat) is verdict


def test_passing_checks_share_one_object():
    lat = fixtures()["chainD"]
    # a chain is distributive: the report from its verdict and the kernel's
    for rep in (classify_element(lat, lat.top), _element_report(lat, lat.index(lat.top))):
        assert rep.modular is rep.cancellable is rep.costandard is is_modular_element(lat, 0)
    assert not hasattr(rep, "__dict__") and not hasattr(rep.modular, "__dict__")


def test_fig1_element_checks():
    lat = fixtures()["fig1"]
    assert is_cancellable_element(lat, "x")
    assert is_cancellable_element(lat, "y")
    bad = is_cancellable_element(lat, "xvy")
    assert not bad
    assert bad.witness == ("a", "c")
    # the witness pair means: join and meet with xvy agree on a and c
    a, c = bad.witness
    assert lat.join_of("xvy", a) == lat.join_of("xvy", c)
    assert lat.meet_of("xvy", a) == lat.meet_of("xvy", c)
    assert a != c


def test_fig1_is_not_modular_but_x_y_are_modular_elements():
    lat = fixtures()["fig1"]
    glob = is_modular_lattice(lat)
    assert not glob and glob.witness is not None
    a, x, b = glob.witness
    assert lat.le(a, b)
    assert lat.join_of(a, lat.meet_of(x, b)) != lat.meet_of(lat.join_of(a, x), b)
    assert is_modular_element(lat, "x")
    assert is_modular_element(lat, "y")


def test_fig2_modular_not_distributive():
    lat = fixtures()["fig2"]
    assert is_modular_lattice(lat)
    dist = is_distributive_lattice(lat)
    assert not dist
    x, y, z = dist.witness
    lhs = lat.meet_of(x, lat.join_of(y, z))
    rhs = lat.join_of(lat.meet_of(x, y), lat.meet_of(x, z))
    assert lhs != rhs
    assert lat.meet_of("D2", "R") == "D"
    assert lat.join_of("D2", "R") == "RvRop"


def test_chain_elements_have_every_property():
    lat = fixtures()["chainD"]
    for x, name in enumerate(lat.names):
        for rep in (classify_element(lat, name), _element_report(lat, x)):
            assert rep.modular and rep.cancellable and rep.costandard


def test_bottom_and_top_are_costandard():
    for lat in (*fixtures().values(), partition_lattice(3)):
        for name in (lat.bottom, lat.top):
            assert is_costandard_element(lat, name)
            assert is_cancellable_element(lat, name)
            assert is_modular_element(lat, name)


def test_costandard_implies_cancellable_implies_modular():
    lats = list(fixtures().values()) + [partition_lattice(k) for k in (2, 3, 4, 5)]
    for lat in lats:
        for name in lat.names:
            co = bool(is_costandard_element(lat, name))
            ca = bool(is_cancellable_element(lat, name))
            mo = bool(is_modular_element(lat, name))
            if co:
                assert ca, (lat, name)
            if ca:
                assert mo, (lat, name)


def test_fig1_join_is_modular_but_not_cancellable():
    lat = fixtures()["fig1"]
    assert is_modular_element(lat, "xvy")
    assert not is_cancellable_element(lat, "xvy")
    assert not is_costandard_element(lat, "xvy")


def test_partition_basics():
    p = Partition.of([[1, 2], [3], [4]])
    assert p.label == "12|3|4"
    assert str(p) == "12|3|4"
    assert p.ground_size == 4
    assert p.refines(Partition.of([[1, 2, 3], [4]]))
    assert not Partition.of([[1, 2, 3], [4]]).refines(p)
    with pytest.raises(ValueError):
        Partition.of([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Partition.of([[1], [3]])
    with pytest.raises(ValueError):
        Partition.of([[]])


def test_partition_counts_match_bell_numbers():
    assert [len(all_partitions(k)) for k in (1, 2, 3, 4, 5)] == [1, 2, 5, 15, 52]
    assert len(partition_lattice(4)) == 15
    with pytest.raises(ValueError):
        partition_lattice(0)
    with pytest.raises(ValueError):
        partition_lattice(7)


def _insertion_labels(k):
    """Every partition of 1..k, built by inserting each point into every block
    or a new one, sorted by its restricted-growth string."""
    parts = [[]]
    for e in range(1, k + 1):
        parts = ([[*p[:i], [*b, e], *p[i + 1:]] for p in parts for i, b in enumerate(p)]
                 + [[*p, [e]] for p in parts])

    def growth(p):
        block_of = {e: i for i, b in enumerate(sorted(p)) for e in b}
        return [block_of[e] for e in range(1, k + 1)]

    return ["|".join("".join(map(str, b)) for b in sorted(p)) for p in sorted(parts, key=growth)]


@pytest.mark.parametrize("k", range(1, 8))
def test_all_partitions_match_an_insertion_enumeration(k):
    assert [p.label for p in all_partitions(k)] == _insertion_labels(k)


def test_partition_lattice_structure():
    lat = partition_lattice(3)
    assert lat.bottom == "1|2|3"
    assert lat.top == "123"
    assert lat.meet_of("12|3", "13|2") == "1|2|3"
    assert lat.join_of("12|3", "13|2") == "123"


@pytest.mark.parametrize("k", range(1, 7))
def test_partition_tables_from_blocks_match_the_generic_tables(k):
    lat = partition_lattice(k)
    ref = FiniteLattice(lat.names, lat.leq)  # tables by _meet_table
    for got, want in ((lat.meet, ref.meet), (lat.join, ref.join)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("k", range(1, 6))
def test_partition_order_from_the_keys_is_refinement(k):
    lat = partition_lattice(k)
    parts = all_partitions(k)
    assert [p.label for p in parts] == list(lat.names)
    want = np.array([[p.refines(q) for q in parts] for p in parts])
    assert lat.leq.dtype == bool and np.array_equal(lat.leq, want)


def test_partition_lattice_builds_its_tables_row_by_row():
    # building every (n, n, k, k) block matrix at once peaks near 14 MB
    partition_lattice(6)
    tracemalloc.start()
    try:
        partition_lattice(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_partition_lattice_not_modular_for_k4():
    assert is_modular_lattice(partition_lattice(3))
    assert not is_modular_lattice(partition_lattice(4))


def test_jezek_rule_examples():
    assert jezek_modular(Partition.of([[1, 2, 3], [4]]))
    assert jezek_modular(Partition.of([[1], [2], [3], [4]]))
    assert not jezek_modular(Partition.of([[1, 2], [3, 4]]))


def test_jezek_rule_matches_brute_force():
    for k in (2, 3, 4, 5):
        lat = partition_lattice(k)
        for p in all_partitions(k):
            assert bool(is_modular_element(lat, p.label)) == jezek_modular(p), p.label


def test_double_block_partition_not_modular_element():
    lat = partition_lattice(4)
    chk = is_modular_element(lat, "12|34")
    assert not chk and chk.witness is not None


def test_parse_lattice():
    lat = parse_lattice("elems: a b\ncover: a < b\n# comment\n")
    assert lat.names == ("a", "b")
    with pytest.raises(ParseError):
        parse_lattice("cover: a < b\n")
    with pytest.raises(ParseError):
        parse_lattice("elems: a b\ncover: a < q\n")
    with pytest.raises(NotALattice):
        parse_lattice("elems: a b c d\n"
                      "cover: a < c\ncover: a < d\ncover: b < c\ncover: b < d\n")


def test_lattice_file_round_trip(tmp_path):
    from monvar.lattices import load_lattice

    f = tmp_path / "three.lat"
    f.write_text("elems: lo mid hi\ncover: lo < mid\ncover: mid < hi\n")
    lat = load_lattice(f)
    assert lat.top == "hi" and lat.bottom == "lo"
    assert np.all(lat.leq[lat.index("lo")])
