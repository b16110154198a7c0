"""Finite lattices given by cover relations, and element-wise special properties.

Provides brute-force (but vectorized) tests for modular, cancellable and
costandard elements, whole-lattice modularity/distributivity with witness
triples, partition lattices under refinement, and the bundled example
lattices shipped as data files, each parsed on its first read.

The meet and join tables of a lattice given by its order come from
`_meet_table`.  Those of a partition lattice come from the blocks: the meet
of two partitions is their common refinement and the join is the transitive
closure of their union (Ore, "Theory of equivalence relations", 1942), both
worked one table row at a time so temporaries stay O(n k^2).

A lattice's distributivity is decided once, on the first query that needs
it, and the verdict is kept on the lattice; the order and both tables are
read-only, so it cannot go stale.  In a distributive lattice every element
is neutral and so modular, cancellable and costandard (Birkhoff, "Rings of
sets", 1937), and the lattice is modular: `classify_element` and
`is_modular_lattice` answer such a lattice from its verdict, and the
element scans below run only on the others.  The whole-lattice scans read
the tables with `take`, which reads a compact index array directly, where
subscripting would first cast it to intp.

The meet and join tables are symmetric, so the element tests read rows of
them, never columns.  The modular failures of an element are its costandard
failures at a <= b, so `classify_element` builds one n x n matrix for both;
the cancellable test builds the n x n matrix of equal pairs (x v a, x ^ a).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources

from .lazy import gather, index_dtype, np
from .words import ParseError, data_lines


class NotALattice(ValueError):
    """The given order lacks a meet or join for some pair."""


class CycleError(ValueError):
    """The cover relation or order matrix is not antisymmetric."""


@dataclass(frozen=True, slots=True)
class Check:
    """Boolean verdict plus a counterexample (names) when the answer is no."""

    ok: bool
    witness: tuple | None = None

    def __bool__(self):
        return self.ok


_PASS = Check(True)  # every passing test returns this one object


class FiniteLattice:
    """A finite lattice over named elements.

    `leq` is the full reflexive-transitive order matrix; meet and join
    tables are derived on construction, in `index_dtype(len(names))`,
    raising NotALattice with the offending pair if either is missing
    somewhere (every meet is checked before any join).  `leq`, `meet` and
    `join` are read-only.
    """

    def __init__(self, names, leq):
        self._set_order(names, leq)
        self._set_tables(_meet_table(self.names, self.leq, "meet"),
                         _meet_table(self.names, self.leq.T, "join"))  # meets of the dual order

    @classmethod
    def _from_tables(cls, names, leq, meet, join) -> "FiniteLattice":
        """A lattice whose meet and join tables come with its construction:
        the order is checked as in __init__, the tables are taken as given."""
        lat = cls.__new__(cls)
        lat._set_order(names, leq)
        dtype = index_dtype(len(lat.names))
        lat._set_tables(meet.astype(dtype), join.astype(dtype))
        return lat

    def _set_order(self, names, leq):
        """Check that `leq` is a partial order on distinct `names`, and keep both."""
        names = tuple(names)
        if not names:
            raise ValueError("a lattice needs at least one element")
        if len(set(names)) != len(names):
            raise ValueError("element names must be distinct")
        n = len(names)
        leq = np.array(leq, dtype=bool)
        if leq.shape != (n, n):
            raise ValueError("order matrix shape does not match element count")
        if not leq.diagonal().all():
            raise ValueError("order matrix must be reflexive")
        both = leq & leq.T & ~np.eye(n, dtype=bool)
        if both.any():
            i, j = map(int, np.argwhere(both)[0])
            raise CycleError(f"{names[i]} and {names[j]} are mutually below each other")
        closed = _transitive_closure(leq)
        if not np.array_equal(closed, leq):
            raise ValueError("order matrix must be transitively closed")
        self.names = names
        self.leq = leq

    def _set_tables(self, meet, join):
        """Keep both tables and make them and the order read-only, so the
        distributivity verdict kept beside them cannot go stale."""
        for table in (self.leq, meet, join):
            table.flags.writeable = False
        self.meet, self.join = meet, join
        self._distributive = None  # the Check of is_distributive_lattice, once decided

    @classmethod
    def from_covers(cls, names, covers):
        """Build from a cover list of (lower, upper) name pairs."""
        names = tuple(names)
        idx = {name: i for i, name in enumerate(names)}
        rel = np.eye(len(names), dtype=bool)
        for lo, hi in covers:
            if lo not in idx or hi not in idx:
                missing = lo if lo not in idx else hi
                raise ValueError(f"cover mentions unknown element {missing!r}")
            if lo == hi:
                raise CycleError(f"cover {lo} < {hi} relates an element to itself")
            rel[idx[lo], idx[hi]] = True
        return cls(names, _transitive_closure(rel))

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"FiniteLattice({len(self)} elements)"

    def index(self, element) -> int:
        if isinstance(element, (int, np.integer)):
            if not 0 <= element < len(self):
                raise KeyError(f"element index {element} out of range")
            return int(element)
        try:
            return self.names.index(element)
        except ValueError:
            raise KeyError(f"no element named {element!r}") from None

    def le(self, a, b) -> bool:
        return bool(self.leq[self.index(a), self.index(b)])

    def meet_of(self, a, b) -> str:
        return self.names[self.meet[self.index(a), self.index(b)]]

    def join_of(self, a, b) -> str:
        return self.names[self.join[self.index(a), self.index(b)]]

    @property
    def bottom(self) -> str:
        return self.names[int(np.argmax(self.leq.all(axis=1)))]

    @property
    def top(self) -> str:
        return self.names[int(np.argmax(self.leq.all(axis=0)))]


def _transitive_closure(rel):
    closed = rel.copy()
    while True:
        nxt = closed | (closed @ closed)
        if np.array_equal(nxt, closed):
            return closed
        closed = nxt


def _meet_table(names, leq, what):
    """For each pair, the one common lower bound every other lower bound lies
    below; called with the transposed order it gives the joins."""
    n = len(names)
    below = leq.astype(np.int32)  # below[k, g]: k below g
    table = np.empty((n, n), dtype=index_dtype(n))
    for i in range(n):
        for j in range(i, n):
            low = leq[:, i] & leq[:, j]
            hits = low @ below  # hits[g] counts lower bounds below g
            cand = np.flatnonzero(low & (hits == low.sum()))
            if len(cand) != 1:
                raise NotALattice(f"{names[i]} and {names[j]} have no {what}")
            table[i, j] = table[j, i] = cand[0]
    return table


# ---------------------------------------------------------------------------
# element properties


def _verdict(lat: FiniteLattice, bad, *lead) -> Check:
    """Check(True) when nothing is bad, else the names of `lead` followed by
    the first bad index pair in row-major order."""
    if not bad.any():
        return _PASS
    a, b = divmod(int(bad.argmax()), bad.shape[1])
    return Check(False, tuple(lat.names[int(k)] for k in (*lead, a, b)))


def _costandard_failures(lat: FiniteLattice, x: int):
    """[a, b] -> a v (x ^ b) != (a v x) ^ (a v b).  Where a <= b, a v b = b,
    so those cells are the failures of the modular law (a v x) ^ b = a v (x ^ b).

    Both tables are symmetric, so every read is a row read and both sides
    come out contiguous with b as the row: row x ^ b of join is a v (x ^ b)
    over a, and the right side is one flat gather from the rows a v x of
    meet.  The matrix returned is the transposed view of their comparison,
    so its row-major order is that of (a, b)."""
    lhs = lat.join[lat.meet[x]]  # [b, a] -> a v (x ^ b)
    return (lhs != gather(lat.meet, lat.join[x][None, :], lat.join)).T


def _cancellable(lat: FiniteLattice, x: int) -> Check:
    """Joining and meeting with x must separate distinct elements: the
    witness is the first a != b with equal pairs (x v a, x ^ a) and
    (x v b, x ^ b), read off the n x n matrix of equal pairs."""
    jx, mx = lat.join[x], lat.meet[x]
    same = (jx[:, None] == jx) & (mx[:, None] == mx)
    np.fill_diagonal(same, False)
    return _verdict(lat, same)


@dataclass(frozen=True, slots=True)
class ElementReport:
    element: str
    modular: Check
    cancellable: Check
    costandard: Check


def classify_element(lat: FiniteLattice, element) -> ElementReport:
    """The three element tests in one pass.

    In a distributive lattice every element is neutral, so it passes all
    three (Birkhoff 1937; Gratzer, Lattice Theory: Foundation, 2011,
    III.2), and the report is read off the lattice's distributivity
    verdict.  Otherwise `_element_report` runs the element kernel."""
    x = lat.index(element)
    if is_distributive_lattice(lat):
        return ElementReport(lat.names[x], _PASS, _PASS, _PASS)
    return _element_report(lat, x)


def _element_report(lat: FiniteLattice, x: int) -> ElementReport:
    """The element kernel, on any lattice: the modular failures are the
    costandard failures at a <= b, so one matrix serves both."""
    bad = _costandard_failures(lat, x)
    costandard = _verdict(lat, bad)
    modular = costandard if costandard.ok else _verdict(lat, bad & lat.leq)
    return ElementReport(lat.names[x], modular, _cancellable(lat, x), costandard)


def is_modular_element(lat: FiniteLattice, element) -> Check:
    """a <= b must force (x v a) ^ b == (x ^ b) v a; witness is a bad (a, b)."""
    return classify_element(lat, element).modular


def is_cancellable_element(lat: FiniteLattice, element) -> Check:
    """Joining and meeting with the element must separate distinct elements."""
    return classify_element(lat, element).cancellable


def is_costandard_element(lat: FiniteLattice, element) -> Check:
    """a v (x ^ b) == (a v x) ^ (a v b) for all a, b; witness is a bad (a, b)."""
    return classify_element(lat, element).costandard


def is_modular_lattice(lat: FiniteLattice) -> Check:
    """Witness on failure is a triple (a, x, b) with a <= b breaking the law.

    A distributive lattice is modular, so its verdict answers first."""
    if is_distributive_lattice(lat):
        return _PASS
    for a in range(len(lat)):
        lhs = lat.join[a].take(lat.meet)  # [x, b] -> a v (x ^ b)
        rhs = lat.meet.take(lat.join[a], axis=0)  # [x, b] -> (a v x) ^ b
        if not (res := _verdict(lat, (lhs != rhs) & lat.leq[a][None, :], a)):
            return res
    return _PASS


def is_distributive_lattice(lat: FiniteLattice) -> Check:
    """Witness on failure is (x, y, z) with x ^ (y v z) != (x ^ y) v (x ^ z).

    The verdict is scanned over x, stopping at the first failing x, on the
    first call and kept on the lattice, so every later call returns the
    same object."""
    if lat._distributive is None:
        res = _PASS
        for x in range(len(lat)):
            mx = lat.meet[x]
            lhs = mx.take(lat.join)  # [y, z] -> x ^ (y v z)
            rhs = lat.join[mx][:, mx]  # [y, z] -> (x ^ y) v (x ^ z)
            if not (res := _verdict(lat, lhs != rhs, x)):
                break
        lat._distributive = res
    return lat._distributive


# ---------------------------------------------------------------------------
# partition lattices


@dataclass(frozen=True)
class Partition:
    """A set partition of {1, ..., k}, labelled like 12|3|4."""

    blocks: frozenset

    @classmethod
    def of(cls, blocks) -> "Partition":
        blocks = [list(b) for b in blocks]
        # the points counted as given, so a repeated block is a repeat
        seen = sorted(e for b in blocks for e in b)
        if not blocks or any(not b for b in blocks):
            raise ValueError("blocks must be nonempty")
        if seen != list(range(1, len(seen) + 1)):
            raise ValueError("blocks must partition 1..k without repeats or gaps")
        return cls(frozenset(frozenset(b) for b in blocks))

    @property
    def ground_size(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def label(self) -> str:
        parts = sorted(sorted(b) for b in self.blocks)
        return "|".join("".join(str(e) for e in b) for b in parts)

    def refines(self, other: "Partition") -> bool:
        return all(any(b <= c for c in other.blocks) for b in self.blocks)

    def __str__(self):
        return self.label


def all_partitions(k: int) -> list[Partition]:
    """Every partition of {1, ..., k}, in restricted-growth order."""
    if k < 1:
        raise ValueError("need k >= 1")
    growth = [()]
    for _ in range(k):  # each point joins a block or opens the next one
        growth = [g + (b,) for g in growth for b in range(max(g, default=-1) + 2)]
    return [Partition.of([e for e, c in enumerate(g, start=1) if c == b]
                         for b in range(max(g) + 1)) for g in growth]


def partition_lattice(k: int) -> FiniteLattice:
    """Partitions of {1..k} ordered by refinement (finer below coarser).

    The meet is the common refinement and the join the transitive closure
    of the union (Ore 1942), so both tables come from the blocks, not from
    the order: each partition is keyed by the bits of its k x k same-block
    matrix, p refines q iff the AND of their keys is the key of p, the
    meet's key is the AND of two keys, and the join's matrix is the
    closure of the OR of two matrices by Boolean squaring.  One
    searchsorted over the sorted keys maps keys back to indices.  The tables
    are filled one row at a time, so temporaries hold O(n k^2) cells,
    n = Bell(k) <= 203."""
    if not 1 <= k <= 6:
        raise ValueError("partition lattices are supported for 1 <= k <= 6")
    parts = all_partitions(k)
    block = np.array([[next(i for i, b in enumerate(p.blocks) if e in b)
                       for e in range(1, k + 1)] for p in parts])
    same = block[:, :, None] == block[:, None, :]  # same[p, e, f]: e, f share a block of p
    n = len(parts)
    bits = np.left_shift(1, np.arange(k * k, dtype=np.int64))  # k^2 <= 36 bits
    key = same.reshape(n, k * k) @ bits
    # p refines q iff every pair in one block of p is in one block of q
    leq = (key[:, None] & key) == key[:, None]
    order = np.argsort(key)
    sorted_key = key[order]
    meet = np.empty((n, n), dtype=index_dtype(n))
    join = np.empty_like(meet)
    for p in range(n):
        meet[p] = order[np.searchsorted(sorted_key, key[p] & key)]
        closure = (same[p] | same).view(np.uint8)
        for _ in range((k - 1).bit_length()):  # s squarings reach paths of 2^s >= k steps
            closure = (closure @ closure).astype(bool).view(np.uint8)
        join[p] = order[np.searchsorted(sorted_key, closure.reshape(n, k * k) @ bits)]
    return FiniteLattice._from_tables([p.label for p in parts], leq, meet, join)


def jezek_modular(p: Partition) -> bool:
    """Closed-form test for modular elements of a partition lattice:
    at most one block may have more than one point."""
    return sum(1 for b in p.blocks if len(b) > 1) <= 1


# ---------------------------------------------------------------------------
# file format and bundled examples


def parse_lattice(text: str) -> FiniteLattice:
    """Parse the cover-list format::

        elems: 0 a b 1
        cover: 0 < a
        cover: a < 1
        cover: 0 < b
        cover: b < 1

    Blank lines and # comments are skipped."""
    names = None
    covers = []
    for raw, line in data_lines(text):
        if line.startswith("elems:"):
            if names is not None:
                raise ParseError("duplicate elems: line")
            names = line[len("elems:"):].split()
            if not names:
                raise ParseError("elems: line lists no elements")
        elif line.startswith("cover:"):
            body = line[len("cover:"):]
            sides = [s.strip() for s in body.split("<")]
            if len(sides) != 2 or not all(sides):
                raise ParseError(f"cover line must read 'cover: a < b': {raw.strip()!r}")
            covers.append((sides[0], sides[1]))
        else:
            raise ParseError(f"unrecognized line: {raw.strip()!r}")
    if names is None:
        raise ParseError("missing elems: line")
    try:
        return FiniteLattice.from_covers(names, covers)
    except (NotALattice, CycleError):
        raise
    except ValueError as exc:  # unknown element names and the like
        raise ParseError(str(exc)) from None


def load_lattice(path) -> FiniteLattice:
    with open(path, encoding="utf-8") as fh:
        return parse_lattice(fh.read())


_FIXTURE_FILES = {"fig1": "fig1.lat", "fig2": "fig2.lat", "chainD": "chain_d.lat"}


class _Bundled(Mapping):
    """The bundled lattices, read-only: each is parsed from its data file on
    its first read and kept, so every read of a key returns one object."""

    def __init__(self):
        self._parsed = {}

    def __getitem__(self, key) -> FiniteLattice:
        if key not in self._parsed:
            path = resources.files("monvar") / "data" / _FIXTURE_FILES[key]
            self._parsed[key] = parse_lattice(path.read_text(encoding="utf-8"))
        return self._parsed[key]

    def __contains__(self, key):
        return key in _FIXTURE_FILES  # parses nothing, unlike Mapping's

    def __iter__(self):
        return iter(_FIXTURE_FILES)

    def __len__(self):
        return len(_FIXTURE_FILES)


_FIXTURES = _Bundled()


def fixtures() -> Mapping[str, FiniteLattice]:
    """The bundled example lattices, keyed fig1 / fig2 / chainD: one
    read-only Mapping that parses a lattice on its first read, so a caller
    that reads one of them parses only that file."""
    return _FIXTURES


def named_lattice(name: str) -> FiniteLattice:
    """A builtin lattice: fig1, fig2, chainD or part:<k>.

    A bundled lattice is the object `fixtures()` holds, parsed on its first
    read; part:<k> is built anew on each call.  Raises KeyError for any
    other name."""
    if name in _FIXTURE_FILES:
        return fixtures()[name]
    if name.startswith("part:"):
        try:
            k = int(name[len("part:"):])
        except ValueError:  # part:x is no family member
            raise KeyError(f"unknown lattice {name!r}") from None
        return partition_lattice(k)
    raise KeyError(f"unknown lattice {name!r}")
