"""Finite monoids: presentations, Cayley tables, products, model checking.

Elements are indices 0..n-1 with display names; tables are numpy
matrices in the smallest dtype that holds every index (`index_dtype`:
uint8 up to 256 elements, uint16 up to 65 536, uint32 above), each built
in that dtype rather than cast at the end.  Presentations with zero use
factor-exclusion normal forms (a word is zero iff it contains a relator
factor); general relations are oriented length-lexicographically and
applied to a fixpoint.  One breadth-first enumerator,
`_right_cayley_graph` (Froidure & Pin 1997), finds the elements and the
right Cayley graph of every monoid given by generators: the normal forms
of a presentation, the initial parts of the free left regular band and
the vectors of a relatively free monoid.  A table is composed from that
graph, and one that breaks a defining relation or associativity is
refused.  Associativity is checked with Light's test over a generating
set, O(n^2) per generator.
A stored table is read-only.  Identities are checked over the assignment
cube in lexicographic chunks of at most 2^20 cells, stopping at the first
violation, so memory does not grow with n^k.  `relatively_free(m, k)`
builds F_k(M), the k-generated free object of var M, as the vectors of
values over the n^k cube reached from the projections, and keeps it on
the monoid per k; it is refused past 2^23 cells of vectors.  While one
is kept, `find_counterexample` answers an identity of at most k letters
from it by two walks through its right Cayley graph, with the same
verdict and witness as the scan.  Nothing builds an F_k implicitly.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache

from .lazy import gather, index_dtype, np
from .words import Identity, ParseError, data_lines, format_word, initial_part, parse_word


class InvalidTable(ValueError):
    """Table fails associativity/neutrality/absorption, with witness."""


class UnsupportedPresentation(ValueError):
    """Presentation's oriented rules do not yield a closed normal-form table."""


class LikelyInfinite(RuntimeError):
    """Normal-form enumeration exceeded the element cap."""


class SearchCapExceeded(RuntimeError):
    """Brute-force assignment space beyond the desk-scale ceiling."""


@dataclass(frozen=True)
class Presentation:
    """Monoid presentation; a relation right side of None means zero."""

    generators: tuple[str, ...]
    relations: tuple[tuple[str, str | None], ...]

    def __post_init__(self):
        gens = set(self.generators)
        if len(self.generators) != len(gens):
            raise ParseError("repeated generator")
        for lhs, rhs in self.relations:
            used = set(lhs) | set(rhs or "")
            if not used <= gens:
                bad = "".join(sorted(used - gens))
                raise ParseError(f"relation uses letters outside the generators: {bad}")

    @property
    def has_zero(self) -> bool:
        return any(rhs is None for _, rhs in self.relations)


def presentation(gens: str, *rels: str) -> Presentation:
    """Convenience builder: presentation("a b", "a2=0", "ab=ba")."""
    parsed = []
    for rel in rels:
        if rel.count("=") != 1:
            raise ParseError(f"relation needs exactly one '=': {rel!r}")
        lhs, rhs = (side.strip() for side in rel.split("="))
        parsed.append((parse_word(lhs), None if rhs == "0" else parse_word(rhs)))
    return Presentation(tuple(gens.split()), tuple(parsed))


@dataclass(frozen=True)
class IndexPeriod:
    index: int
    period: int


class FiniteMonoid:
    """Validated multiplication table with named elements.

    `table` is stored in `index_dtype(len(names))`; the entries of the
    given table are range-checked before the cast, so none can wrap.  The
    stored table is read-only (a given array already in that dtype is
    stored as it is, and so is made read-only too), so the relatively free
    monoids kept beside it cannot go stale."""

    def __init__(self, names, table, one: int, zero: int | None = None):
        self.names = tuple(names)
        self.one = one
        self.zero = zero
        self.factors: tuple[FiniteMonoid, ...] = ()  # set by direct_product
        self._free: dict[int, RelativelyFree] = {}  # k -> F_k, kept by relatively_free
        if len(set(self.names)) != len(self.names):
            raise InvalidTable("element names are not distinct")
        table = np.asarray(table)
        self._check_entries(table)
        self.table = np.ascontiguousarray(table, dtype=index_dtype(len(self.names)))
        self.table.flags.writeable = False
        self._check_laws()

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"<FiniteMonoid of order {len(self)}, one={self.names[self.one]!r}>"

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no element named {name!r}") from None

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def validate(self):
        self._check_entries(self.table)
        self._check_laws()

    def _check_entries(self, t):
        n = len(self.names)
        if t.shape != (n, n):
            raise InvalidTable(f"table shape {t.shape} does not match {n} elements")
        if n and (t.min() < 0 or t.max() >= n):
            raise InvalidTable("table entry out of range")

    def _check_laws(self):
        n = len(self.names)
        t = self.table
        for role, k in (("identity", self.one), ("zero", self.zero)):
            if k is not None and not 0 <= k < n:
                raise InvalidTable(f"{role} index {k} is out of range for {n} elements")
        ident = np.arange(n, dtype=t.dtype)
        if not (np.array_equal(t[self.one], ident) and np.array_equal(t[:, self.one], ident)):
            bad = next(i for i in range(n)
                       if t[self.one, i] != i or t[i, self.one] != i)
            raise InvalidTable(
                f"{self.names[self.one]!r} is not a two-sided identity "
                f"(witness {self.names[bad]!r})")
        if self.zero is not None:
            z = self.zero
            if not ((t[z] == z).all() and (t[:, z] == z).all()):
                bad = next(i for i in range(n) if t[z, i] != z or t[i, z] != z)
                raise InvalidTable(
                    f"{self.names[z]!r} is not absorbing (witness {self.names[bad]!r})")
        # Light's test: (x*g)*y == x*(g*y) for every g of a generating set
        # already gives associativity (Clifford & Preston I, 1.2); blocks of
        # about 2^16 cells keep the temporaries in cache
        step = max(1, 2**16 // n)
        if all(np.array_equal(t[t[lo:lo + step, g]], np.take(t[lo:lo + step], t[g], axis=1))
               for g in _generating_set(t, self.one) for lo in range(0, n, step)):
            return
        for a in range(n):  # full scan, for the first witness in (a, b, c) order
            left = t[t[a], :]
            right = t[a][t]
            if not np.array_equal(left, right):
                b, c = map(int, np.argwhere(left != right)[0])
                raise InvalidTable(
                    "associativity fails at "
                    f"({self.names[a]!r}, {self.names[b]!r}, {self.names[c]!r})")


def _generating_set(t: np.ndarray, one: int) -> list[int]:
    """Greedy generators: each element, in index order, that right
    multiplication by the earlier picks does not reach from the identity."""
    reached = np.zeros(len(t), dtype=bool)
    reached[one] = True
    gens: list[int] = []
    for x in range(len(t)):
        if reached[x]:
            continue
        gens.append(x)
        # everything reached so far times x, then new elements times all picks
        frontier, by = np.flatnonzero(reached), [x]
        while frontier.size:
            fresh = np.zeros_like(reached)
            fresh[t[np.ix_(frontier, by)]] = True
            fresh &= ~reached
            reached |= fresh
            frontier, by = np.flatnonzero(fresh), gens
    return gens


# ---------------------------------------------------------------------------
# constructors


def from_table(names, table, identity_name: str) -> FiniteMonoid:
    """Build from a table of element names; the zero is found, not declared."""
    index = {nm: i for i, nm in enumerate(names)}
    if identity_name not in index:
        raise InvalidTable(f"identity element {identity_name!r} not among the names")
    rows = [[_lookup(index, entry) for entry in row] for row in table]
    m = FiniteMonoid(names, rows, index[identity_name])
    m.zero = _find_zero(m)
    return m


def _lookup(index, name):
    if name not in index:
        raise InvalidTable(f"table entry {name!r} is not an element name")
    return index[name]


def _find_zero(m: FiniteMonoid) -> int | None:
    t = m.table
    for z in range(len(m)):
        if (t[z] == z).all() and (t[:, z] == z).all():
            return z
    return None


def _right_cayley_graph(start, products, limit: float, refusal: Exception | None):
    """Breadth-first enumeration of a monoid given by generators (Froidure &
    Pin 1997): (elements, right, reached_by), elements in the order reached.

    Element 0 is the identity, keyed `start`; `products(key)` gives the keys
    of an element times each generator in turn, None for the zero, which is
    written -1 and kept out of the list.  `right[i][g]` is element i times
    generator g; `reached_by[j - 1] = (i, g)` says that element j was first
    reached as element i < j times generator g.  `refusal` is raised rather
    than list more than `limit` elements."""
    elements = [start]
    found = {start: 0, None: -1}
    right, reached_by = [], []
    for i, key in enumerate(elements):  # elements grows while it is read: the BFS queue
        row = []
        for g, product in enumerate(products(key)):
            j = found.get(product)
            if j is None:
                if len(elements) >= limit:
                    raise refusal
                j = found[product] = len(elements)
                elements.append(product)
                reached_by.append((i, g))
            row.append(j)
        right.append(row)
    return elements, right, reached_by


def _walk(right, word: str, letters) -> int:
    """The element `word` reaches in `right`, letters[g] read as generator g."""
    generator = {c: g for g, c in enumerate(letters)}
    i = 0
    for c in word:
        i = right[i][generator[c]]
    return i


def from_presentation(pres: Presentation, cap: int = 10000) -> FiniteMonoid:
    """Enumerate normal forms breadth-first and tabulate multiplication.

    Each relation u = v is oriented length-lexicographically, larger side to
    smaller, and the rules are applied to a fixpoint; a word containing the
    left side of a relation u = 0 is the zero, the last element.  Only the
    right multiples of each normal form by the generators are reduced
    (`_right_cayley_graph`).  A table that breaks a defining relation, on
    which a generator acts unlike its own normal form, or that is not
    associative is refused with UnsupportedPresentation: the oriented rules
    were not confluent.
    """
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
                return None  # the zero element
            for big, small in rules:
                k = word.find(big)
                if k >= 0:
                    word = word[:k] + small + word[k + len(big):]
                    break
            else:
                return word

    gens = pres.generators
    elems, right, reached_by = _right_cayley_graph(
        "", lambda w: [reduce(w + g) for g in gens], cap,
        LikelyInfinite(f"presentation produced more than {cap} normal forms"))
    names = [format_word(w) for w in elems]
    right = np.array(right, dtype=np.int32).reshape(len(elems), len(gens))
    zero = None
    if pres.has_zero:
        zero = len(names)
        names.append("0")
        right = np.vstack([right, np.full((1, len(gens)), zero, dtype=np.int32)])
        right[right < 0] = zero

    for lhs, rhs in pres.relations:
        if _walk(right, lhs, gens) != (zero if rhs is None else _walk(right, rhs, gens)):
            shown = "0" if rhs is None else format_word(rhs)
            raise UnsupportedPresentation(
                f"the table breaks the defining relation {format_word(lhs)} = {shown};"
                " the oriented rules are not confluent")
    table = _cayley_table(right, reached_by)
    for k, g in enumerate(gens):
        if not np.array_equal(table[:, right[0, k]], right[:, k]):
            raise UnsupportedPresentation(
                f"generator {g!r} acts unlike its normal form {names[right[0, k]]!r};"
                " the oriented rules are not confluent")
    try:
        return FiniteMonoid(names, table, one=0, zero=zero)
    except InvalidTable as exc:
        if pres.has_zero and not rules:
            raise  # factor exclusion is exact; a failure here is a real bug
        raise UnsupportedPresentation(
            f"oriented rules give a non-associative table: {exc}") from exc


def _cayley_table(right: np.ndarray, reached_by) -> np.ndarray:
    """Multiplication table from a right Cayley graph (`_right_cayley_graph`),
    right as an n x generators array; a last element missing from reached_by
    is the zero, which right sends to itself.  Built in index_dtype(n), column
    by column, then transposed in place, so the table exists once."""
    n = len(right)
    dtype = index_dtype(n)
    action = np.ascontiguousarray(right.T, dtype=dtype)
    table = np.full((n, n), n - 1, dtype=dtype)
    table[0] = np.arange(n)
    for j, (i, k) in enumerate(reached_by, 1):
        table[j] = action[k][table[i]]  # x * elem_j = (x * elem_i) * gen_k
    _transpose_in_place(table)
    return table


# the side of the blocks a square table is transposed by: one block of
# 2^20 cells at most is copied at a time, and a table of up to 1024
# elements is a single block
_BLOCK = 1 << 10


def _block_pairs(a: np.ndarray):
    """Each block on or above the diagonal of the square array a, with its
    mirror image below it (the block itself on the diagonal), as views."""
    n = len(a)
    for i in range(0, n, _BLOCK):
        for j in range(i, n, _BLOCK):
            yield a[i:i + _BLOCK, j:j + _BLOCK], a[j:j + _BLOCK, i:i + _BLOCK]


def _transpose_in_place(a: np.ndarray) -> None:
    """Transpose the square array a, swapping one pair of blocks at a time."""
    for upper, lower in _block_pairs(a):
        held = upper.T.copy()
        upper[...] = lower.T  # on the diagonal numpy copies the overlapping source first
        lower[...] = held


def direct_product(m: FiniteMonoid, n: FiniteMonoid) -> FiniteMonoid:
    """M x N on pairs (a,b), ordered by a then b, with m and n as its factors.

    var(M x N) = var M v var N, so find_counterexample decides a holding
    identity on the factors and scans the product only for a witness."""
    names = [f"({a},{b})" for a in m.names for b in n.names]
    nn = len(n)
    # (a,b)(c,d) has index ac*|N| + bd < |M||N|, so the table is built in
    # the dtype it is stored in; the offsets ac*|N| are read from the |M|
    # multiples of |N|, as |N| itself need not fit that dtype (1 x 256)
    offsets = np.arange(0, len(names), nn, dtype=index_dtype(len(names)))
    table = (offsets[m.table][:, None, :, None]
             + n.table[None, :, None, :]).reshape(len(names), len(names))
    one = m.one * nn + n.one
    zero = None
    if m.zero is not None and n.zero is not None:
        zero = m.zero * nn + n.zero
    p = FiniteMonoid(names, table, one, zero)
    p.factors = (m, n)
    return p


def opposite(m: FiniteMonoid) -> FiniteMonoid:
    return FiniteMonoid(m.names, m.table.T.copy(), m.one, m.zero)


_INJECTIVE_LETTERS = "xyztabcd"


def free_lrb_monoid(k: int) -> FiniteMonoid:
    """Words with all-distinct letters over k letters; u*v = initial_part(uv)."""
    if not 1 <= k <= 6:  # lrb:7 has 13 700 elements, past from_presentation's cap
        raise ValueError("free_lrb_monoid needs 1 <= k <= 6")
    letters = _INJECTIVE_LETTERS[:k]
    elems, right, reached_by = _right_cayley_graph(
        "", lambda w: [initial_part(w + c) for c in letters], math.inf, None)
    return FiniteMonoid(["1"] + elems[1:], _cayley_table(np.array(right), reached_by), one=0)


def cyclic_counter(n: int) -> FiniteMonoid:
    """The n+1 element monoid 1, a, ..., a^(n-1), 0 with a^n = 0."""
    if n < 1:
        raise ValueError("cyclic_counter needs n >= 1")
    return from_presentation(presentation("a", f"a{n}=0"))


def cyclic_group(m: int) -> FiniteMonoid:
    """The cyclic group 1, g, ..., g^(m-1) with g^m = 1."""
    if m < 1:
        raise ValueError("cyclic_group needs m >= 1")
    return from_presentation(presentation("g", f"g{m}=1"))


@lru_cache(maxsize=None)
def named_monoid(name: str) -> FiniteMonoid:
    """A builtin monoid: D2, R, Rop, RxRop, counter:<n>, group:<m> or lrb:<k>.

    Raises KeyError for any other name."""
    if name == "D2":
        return from_presentation(presentation("a b", "a2=0", "b2=0", "bab=0"))
    if name == "R":
        return from_presentation(presentation("a b", "a3=0", "b2=0", "ba=0"))
    if name == "Rop":
        return opposite(named_monoid("R"))
    if name == "RxRop":
        return direct_product(named_monoid("R"), named_monoid("Rop"))
    for prefix, build in (("counter:", cyclic_counter), ("group:", cyclic_group),
                          ("lrb:", free_lrb_monoid)):
        if name.startswith(prefix):
            try:
                size = int(name[len(prefix):])
            except ValueError:  # counter:x is no family member
                raise KeyError(f"unknown monoid {name!r}") from None
            return build(size)
    raise KeyError(f"unknown monoid {name!r}")


# ---------------------------------------------------------------------------
# identity checking by exhaustive assignment


def _guard(m: FiniteMonoid, letters, allow_large: bool):
    n, k = len(m), len(letters)
    if not allow_large and n**k > 2 * 10**8:
        raise SearchCapExceeded(
            f"assignment space {n}^{k} = {n**k} cells is past the limit of"
            " 2*10^8 cells; `monoid satisfies --allow-large` lifts it")


_CHUNK_CELLS = 1 << 20
# the most cells the vectors of one relatively free monoid may hold: F_3 of
# lrb:4 (16 vectors of 65^3 cells) fits, F_3 of RxRop (about 18 M) does not
_FREE_CELLS = 1 << 23


class RelativelyFree:
    """F_k(M), the k-generated free object of var M (Birkhoff 1935).

    An element is the vector of the values that one word over k letters
    takes under every assignment of the letters to elements of M: n^k
    cells, the assignments in lexicographic order with the letters sorted,
    stored as bytes in the table's dtype.  Element 0 is the constant vector
    of `m.one`, generator g is the cube's g-th projection, each right
    multiple is one gather, and `right` is the right Cayley graph of
    `_right_cayley_graph`.  Two words over k letters are the same element
    iff M satisfies the identity between them.  The build is refused with
    SearchCapExceeded once the vectors would pass _FREE_CELLS cells."""

    def __init__(self, m: FiniteMonoid, k: int):
        if k < 0:
            raise ValueError("relatively_free needs k >= 0")
        self.monoid, self.k = m, k
        self._shape = (len(m),) * k
        cells = math.prod(self._shape)
        refusal = SearchCapExceeded(
            f"F_{k} of a monoid of order {len(m)} needs more than"
            f" the cap of {_FREE_CELLS} cells")
        if cells > _FREE_CELLS:
            raise refusal
        dtype = m.table.dtype
        projections = np.indices(self._shape, dtype=dtype).reshape(k, cells)

        def products(vector):
            vector = np.frombuffer(vector, dtype=dtype)
            return [gather(m.table, vector, p).tobytes() for p in projections]

        self._vectors, self.right, _ = _right_cayley_graph(
            np.full(cells, m.one, dtype=dtype).tobytes(), products,
            _FREE_CELLS // cells, refusal)

    def __len__(self):
        return len(self._vectors)

    def element(self, word: str, letters) -> int:
        """The element of `word`, the g-th of `letters` sent to generator g."""
        return _walk(self.right, word, letters)

    def counterexample(self, ident: Identity) -> dict[str, str] | None:
        """find_counterexample's answer for an identity of at most k letters.

        The sorted letters go to the first generators, so the later letters
        of the cube are free: the first cell where the two sides' vectors
        differ holds the lexicographically first violating assignment."""
        letters = sorted(ident.letters())
        if len(letters) > self.k:
            raise ValueError(f"{len(letters)} letters are more than F_{self.k} has")
        i, j = self.element(ident.lhs, letters), self.element(ident.rhs, letters)
        if i == j:
            return None
        left, right = (np.frombuffer(self._vectors[e], dtype=self.monoid.table.dtype)
                       for e in (i, j))
        cell = np.unravel_index(int((left != right).argmax()), self._shape)
        return {c: self.monoid.names[int(a)] for c, a in zip(letters, cell)}


def relatively_free(m: FiniteMonoid, k: int) -> RelativelyFree:
    """F_k(M), built on the first call for each k and kept on m; every later
    call returns the same object, and find_counterexample reads it for
    identities of at most k letters."""
    free = m._free.get(k)
    if free is None:
        free = m._free[k] = RelativelyFree(m, k)
    return free


def find_counterexample(m: FiniteMonoid, ident: Identity,
                        allow_large: bool = False) -> dict[str, str] | None:
    """First violating assignment (letters sorted, elements in table order).

    The assignment cube is scanned in chunks of at most _CHUNK_CELLS cells:
    the fewest leading letters that make the rest fit are fixed to each
    tuple of values in lexicographic order, and the remaining letters span
    one axis each of the chunk.  Each side up to its first fixed letter is
    evaluated once for all chunks, the common prefix of the two sides is
    evaluated once for both, and the scan stops at the first chunk with a
    violation, so the witness is the lexicographically first one.

    A product satisfies an identity iff every factor does (identities are
    preserved by products), so the factors are checked first, each under
    its own guard.  Only when one fails is the product's cube guarded and
    scanned, for the product's own first witness.

    A monoid that keeps an F_k (`relatively_free`) with at least as many
    generators as the identity has letters answers from it instead: the
    same verdict and the same witness, without a scan."""
    if ident.trivial:
        return None
    if m._free:  # the kept F_k with the fewest generators that covers the letters
        j = len(ident.letters())
        free = next((f for k, f in sorted(m._free.items()) if k >= j), None)
        if free is not None:
            return free.counterexample(ident)
    if m.factors and all(find_counterexample(f, ident, allow_large) is None
                         for f in m.factors):
        return None
    letters = sorted(ident.letters())
    _guard(m, letters, allow_large)
    n, k = len(m), len(letters)
    lead = next(j for j in range(k + 1) if n ** (k - j) <= _CHUNK_CELLS)
    shape = (n,) * (k - lead)
    # in the table's dtype: an intp axis would widen every gathered position
    axes = {c: np.arange(n, dtype=m.table.dtype).reshape([n if j == i else 1
                                                          for j in range(k - lead)])
            for i, c in enumerate(letters[lead:])}
    fixed = {}

    def times(acc, word):
        for c in word:
            a = fixed.get(c)
            # a fixed letter is a scalar: gather from its column
            acc = gather(m.table, acc, axes[c]) if a is None else np.take(m.table[:, a], acc)
        return acc

    lhs, rhs = ident.lhs, ident.rhs
    # hl, hr: where each side meets its first fixed letter; s: how much of
    # the common prefix lies before it
    common = len(os.path.commonprefix([lhs, rhs]))
    hl, hr = (next((i for i, c in enumerate(w) if c in letters[:lead]), len(w))
              for w in (lhs, rhs))
    s = min(common, hl, hr)
    start = times(m.one, lhs[:s])
    left0, right0 = times(start, lhs[s:hl]), times(start, rhs[s:hr])
    for values in itertools.product(range(n), repeat=lead):
        fixed = dict(zip(letters, values))
        left, right = left0, right0
        if common > s:  # then hl == hr == s, and the sides agree up to common
            left = right = times(left0, lhs[s:common])
        # every free letter occurs on some side, so diff spans the chunk
        diff = times(left, lhs[max(common, hl):]) != times(right, rhs[max(common, hr):])
        if diff.any():
            cell = np.unravel_index(diff.argmax(), shape)
            return {c: m.names[int(i)] for c, i in zip(letters, values + cell)}
    return None


# ---------------------------------------------------------------------------
# structural predicates


def _element_index_period(m: FiniteMonoid, x: int) -> tuple[int, int]:
    seen = {}
    cur = x
    k = 1
    while cur not in seen:
        seen[cur] = k
        cur = m.mul(cur, x)
        k += 1
    return seen[cur], k - seen[cur]


def monoid_index_period(m: FiniteMonoid) -> IndexPeriod:
    """Least (n, m) with x^n = x^(n+m) for every element x."""
    idx, per = 1, 1
    for x in range(len(m)):
        i, p = _element_index_period(m, x)
        idx = max(idx, i)
        per = math.lcm(per, p)
    return IndexPeriod(idx, per)


def is_completely_regular(m: FiniteMonoid) -> bool:
    """Every x has some k >= 1 with x^(k+1) = x."""
    return monoid_index_period(m).index == 1


def is_commutative(m: FiniteMonoid) -> bool:
    """Whether the table is its own transpose, compared one pair of blocks
    at a time, so no n x n temporary is made."""
    return all(np.array_equal(upper, lower.T) for upper, lower in _block_pairs(m.table))


# ---------------------------------------------------------------------------
# file formats


def parse_presentation(text: str) -> Presentation:
    """Lines 'gens: a b' then 'rel: <word> = <word|0>'; '#' comments."""
    gens = None
    rels = []
    for raw, line in data_lines(text):
        if line.startswith("gens:"):
            if gens is not None:
                raise ParseError("duplicate gens: line")
            gens = line[len("gens:"):].strip()
        elif line.startswith("rel:"):
            rels.append(line[len("rel:"):].strip())
        else:
            raise ParseError(f"unrecognized presentation line: {raw!r}")
    if gens is None:
        raise ParseError("presentation file needs a gens: line")
    return presentation(gens, *rels)


def parse_table(text: str) -> FiniteMonoid:
    """Names line, n rows of n names, 'one: <name>', optional 'zero: <name>'."""
    lines = [line for _, line in data_lines(text)]
    if not lines:
        raise ParseError("empty table file")
    names = lines[0].split()
    n = len(names)
    if len(lines) < n + 2:
        raise ParseError(f"table file needs {n} rows plus a one: line")
    rows = []
    for ln in lines[1:n + 1]:
        row = ln.split()
        if len(row) != n:
            raise ParseError(f"table row has {len(row)} entries, expected {n}")
        rows.append(row)
    declared = {}  # "one" / "zero" -> element name
    for ln in lines[n + 1:]:
        key, colon, value = ln.partition(":")
        if not colon or key not in ("one", "zero"):
            raise ParseError(f"unrecognized table line: {ln!r}")
        if key in declared:
            raise ParseError(f"duplicate {key}: line")
        declared[key] = value.strip()
    if "one" not in declared:
        raise ParseError("table file needs a one: line")
    m = from_table(names, rows, declared["one"])
    zero_name = declared.get("zero")
    if zero_name is not None:
        z = m.index(zero_name)
        if m.zero != z:
            raise InvalidTable(f"declared zero {zero_name!r} is not absorbing")
    return m


def load_monoid(path) -> FiniteMonoid:
    """Load a presentation or table file, sniffing the format."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    _, first = next(data_lines(text), (None, ""))
    if first.startswith("gens:"):
        return from_presentation(parse_presentation(text))
    return parse_table(text)
