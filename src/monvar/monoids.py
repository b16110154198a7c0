"""Finite monoids: presentations, Cayley tables, products, model checking.

Elements are indices 0..n-1 with display names; tables are numpy int
matrices.  Presentations with zero use factor-exclusion normal forms
(a word is zero iff it contains a relator factor); general relations
are oriented length-lexicographically and applied to a fixpoint.  The
table is composed from the right Cayley graph of the normal forms
(Froidure & Pin 1997), and a table that breaks a defining relation or
associativity is refused.  Associativity is checked with Light's test
over a generating set, O(n^2) per generator.  Identities are checked
over the assignment cube in lexicographic chunks of at most 2^20 cells,
stopping at the first violation, so memory does not grow with n^k.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    """Validated multiplication table with named elements."""

    def __init__(self, names, table, one: int, zero: int | None = None):
        self.names = tuple(names)
        self.table = np.asarray(table, dtype=np.int32)
        self.one = one
        self.zero = zero
        self._index = {nm: i for i, nm in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise InvalidTable("element names are not distinct")
        self.validate()

    def __len__(self):
        return len(self.names)

    def __repr__(self):
        return f"<FiniteMonoid of order {len(self)}, one={self.names[self.one]!r}>"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no element named {name!r}") from None

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def validate(self):
        n = len(self.names)
        t = self.table
        if t.shape != (n, n):
            raise InvalidTable(f"table shape {t.shape} does not match {n} elements")
        if n and (t.min() < 0 or t.max() >= n):
            raise InvalidTable("table entry out of range")
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


def from_presentation(pres: Presentation, cap: int = 10000) -> FiniteMonoid:
    """Enumerate normal forms breadth-first and tabulate multiplication.

    Each relation u = v is oriented length-lexicographically, larger side to
    smaller, and the rules are applied to a fixpoint; a word containing the
    left side of a relation u = 0 is the zero.  Only the right multiples of
    each normal form by the generators are reduced (the right Cayley graph);
    every table column is composed from the column of the element's BFS
    parent.  A table that breaks a defining relation, on which a generator
    acts unlike its own normal form, or that is not associative is refused
    with UnsupportedPresentation: the oriented rules were not confluent.
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
    elems = [""]
    pos = {"": 0}
    right = []  # right[i][k]: index of elems[i]*gens[k], -1 for the zero
    reached_by = []  # reached_by[j - 1] = (i, k): elems[j] was found as elems[i]*gens[k]
    for i, base in enumerate(elems):  # elems grows while it is read: the BFS queue
        row = []
        for k, g in enumerate(gens):
            nf = reduce(base + g)
            if nf is not None and nf not in pos:
                if len(elems) >= cap:
                    raise LikelyInfinite(
                        f"presentation produced more than {cap} normal forms")
                pos[nf] = len(elems)
                elems.append(nf)
                reached_by.append((i, k))
            row.append(-1 if nf is None else pos[nf])
        right.append(row)

    names = [format_word(w) for w in elems]
    right = np.array(right, dtype=np.int32).reshape(len(elems), len(gens))
    zero = None
    if pres.has_zero:
        zero = len(names)
        names.append("0")
        right = np.vstack([right, np.full((1, len(gens)), zero, dtype=np.int32)])
        right[right < 0] = zero

    letter = {g: k for k, g in enumerate(gens)}

    def walk(word):
        i = 0
        for c in word:
            i = int(right[i, letter[c]])
        return i

    for lhs, rhs in pres.relations:
        if walk(lhs) != (zero if rhs is None else walk(rhs)):
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
    """Multiplication table from the right Cayley graph of a monoid.

    right[i, k] is element i times generator k; reached_by[j - 1] = (i, k)
    says that element j is element i < j times generator k.  Element 0 is
    the identity.  A last element that reached_by does not list is the zero,
    and right must send it to itself."""
    n = len(right)
    action = np.ascontiguousarray(right.T)
    cols = np.full((n, n), n - 1, dtype=np.int32)
    cols[0] = np.arange(n)
    for j, (i, k) in enumerate(reached_by, 1):
        cols[j] = action[k][cols[i]]  # x * elem_j = (x * elem_i) * gen_k
    return np.ascontiguousarray(cols.T)


def direct_product(m: FiniteMonoid, n: FiniteMonoid) -> FiniteMonoid:
    names = [f"({a},{b})" for a in m.names for b in n.names]
    nn = len(n)
    table = (m.table[:, None, :, None].astype(np.int64) * nn
             + n.table[None, :, None, :]).reshape(len(names), len(names))
    one = m.one * nn + n.one
    zero = None
    if m.zero is not None and n.zero is not None:
        zero = m.zero * nn + n.zero
    return FiniteMonoid(names, table, one, zero)


def opposite(m: FiniteMonoid) -> FiniteMonoid:
    return FiniteMonoid(m.names, m.table.T.copy(), m.one, m.zero)


_INJECTIVE_LETTERS = "xyztabcd"


def free_lrb_monoid(k: int) -> FiniteMonoid:
    """Words with all-distinct letters over k letters; u*v = initial_part(uv)."""
    if not 1 <= k <= 6:  # lrb:7 has 13 700 elements, past from_presentation's cap
        raise ValueError("free_lrb_monoid needs 1 <= k <= 6")
    letters = _INJECTIVE_LETTERS[:k]
    elems = [""]
    for r in range(1, k + 1):
        elems.extend("".join(p) for p in itertools.permutations(letters, r))
    pos = {w: i for i, w in enumerate(elems)}
    right = np.array([[pos[initial_part(w + c)] for c in letters] for w in elems],
                     dtype=np.int32)
    reached_by = [(pos[w[:-1]], letters.index(w[-1])) for w in elems[1:]]
    return FiniteMonoid(["1"] + elems[1:], _cayley_table(right, reached_by), one=0)


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
            return build(int(name[len(prefix):]))
    raise KeyError(f"unknown monoid {name!r}")


# ---------------------------------------------------------------------------
# identity checking by exhaustive assignment


def _guard(m: FiniteMonoid, letters, allow_large: bool):
    if not allow_large and len(m) ** len(letters) > 2 * 10**8:
        raise SearchCapExceeded(
            f"assignment space {len(m)}^{len(letters)} is too large;"
            " pass allow_large=True to force the search")


_CHUNK_CELLS = 1 << 20


def find_counterexample(m: FiniteMonoid, ident: Identity,
                        allow_large: bool = False) -> dict[str, str] | None:
    """First violating assignment (letters sorted, elements in table order).

    The assignment cube is scanned in chunks of at most _CHUNK_CELLS cells:
    the fewest leading letters that make the rest fit are fixed to each
    tuple of values in lexicographic order, and the remaining letters span
    one axis each of the chunk.  Each side up to its first fixed letter is
    evaluated once for all chunks, the common prefix of the two sides is
    evaluated once for both, and the scan stops at the first chunk with a
    violation, so the witness is the lexicographically first one."""
    letters = sorted(ident.letters())
    if not letters:
        return None
    _guard(m, letters, allow_large)
    n, k = len(m), len(letters)
    lead = next(j for j in range(k + 1) if n ** (k - j) <= _CHUNK_CELLS)
    shape = (n,) * (k - lead)
    axes = {c: np.arange(n, dtype=m.table.dtype).reshape(
                [n if j == i else 1 for j in range(k - lead)])
            for i, c in enumerate(letters[lead:])}
    fixed = {}

    def times(acc, word):
        for c in word:
            a = fixed.get(c)
            # a fixed letter is a scalar: gather from its column
            acc = m.table[acc, axes[c]] if a is None else np.take(m.table[:, a], acc)
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
    return bool(np.array_equal(m.table, m.table.T))


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
