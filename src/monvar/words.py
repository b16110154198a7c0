"""Free-monoid word algebra and the limits of the word-level work.

Words are plain Python strings over the lowercase alphabet; the empty
string is the identity of concatenation.  The text form used everywhere
groups maximal runs of a letter as letter+exponent ("xxxy" prints as
"x3y") and writes the empty word as "1".  `parse_word` refuses a word
longer than `MAX_WORD_LEN` before it builds it.

`Bounds`, the search limits that `deduction` and the CLI read their
defaults from, lives here beside `MAX_WORD_LEN` and `MATCH_MEMO_CAP`, the
cap of deduction's match memo, so every limit a word meets is stated in
one module.  This module runs nothing beyond `re` and the interpreter's
own start-up modules (no `dataclasses`), so a command that only compares
words, such as `monvar preceq`, runs this module alone.
"""

from __future__ import annotations

import itertools
import re
import sys
from collections import Counter
from functools import lru_cache

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class ParseError(ValueError):
    """Text does not match the word/identity/file grammar."""


class _Frozen:
    """Instances whose attributes are set once, by __init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# limits

# the longest word parse_word builds (2^20 letters); no search bound comes
# near it, so a longer word could only be compared, never searched
MAX_WORD_LEN = 1 << 20

# the most windows that deduction's match memo holds (2^15); one more empties
# it.  The 24 rounds of the benchmark's deduce stream fill about 18 000, a
# long derivation search more
MATCH_MEMO_CAP = 1 << 15


class Bounds(_Frozen):
    """Search limits; `derivable` and the CLI take their defaults from here."""

    max_len = 24
    max_depth = 48

    def __init__(self, max_len: int = max_len, max_depth: int = max_depth):
        for bound, value in (("max_len", max_len), ("max_depth", max_depth)):
            if value < 0:
                raise ValueError(f"{bound} must be at least 0, got {value}")
            object.__setattr__(self, bound, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.max_len, self.max_depth) == (other.max_len, other.max_depth)

    def __hash__(self):
        return hash((self.max_len, self.max_depth))

    def __repr__(self):
        return f"Bounds(max_len={self.max_len!r}, max_depth={self.max_depth!r})"


def data_lines(text: str):
    """Yield (raw, line) per non-blank line; line is raw minus its '#' comment, stripped."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield raw, line


# ---------------------------------------------------------------------------
# text form

_TERM = re.compile(r"([a-z])([0-9]*)")


def parse_word(text: str) -> str:
    """Parse the exponent-grouped text form; "1" denotes the empty word.

    The term lengths are summed before the word is built, so a word longer
    than MAX_WORD_LEN raises ParseError without taking its memory."""
    s = "".join(text.split())
    if s == "1":
        return ""
    if not s:
        raise ParseError("empty word text (write '1' for the empty word)")
    terms = []
    pos = length = 0
    for m in _TERM.finditer(s):
        if m.start() != pos:
            break
        pos = m.end()
        letter, digits = m.group(1), m.group(2)
        try:
            exp = int(digits) if digits else 1
        except ValueError:  # past int()'s digit limit
            exp = sys.maxsize + 1
        if exp > sys.maxsize:  # no string index reaches it
            raise ParseError(f"exponent too large in {m.group(0)!r}")
        if exp < 1:
            raise ParseError(f"exponent must be positive in {m.group(0)!r}")
        length += exp
        if length > MAX_WORD_LEN:
            raise ParseError(f"word longer than MAX_WORD_LEN = {MAX_WORD_LEN} letters"
                             f" at {m.group(0)!r}")
        terms.append(letter * exp)
    if pos != len(s):
        raise ParseError(f"cannot parse word text {text!r} at {s[pos:]!r}")
    return "".join(terms)


def format_word(word: str) -> str:
    """Canonical display: maximal runs grouped, empty word shown as "1"."""
    if not word:
        return "1"
    parts = []
    for letter, run in itertools.groupby(word):
        n = len(list(run))
        parts.append(letter if n == 1 else f"{letter}{n}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# identities and substitutions


class Identity(_Frozen):
    """An unordered pair of words: u = v and v = u are the same identity."""

    def __init__(self, lhs: str, rhs: str):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def __eq__(self, other):
        if not isinstance(other, Identity):
            return NotImplemented
        return {self.lhs, self.rhs} == {other.lhs, other.rhs}

    def __hash__(self):
        return hash(frozenset((self.lhs, self.rhs)))

    @property
    def trivial(self) -> bool:
        return self.lhs == self.rhs

    def letters(self) -> set[str]:
        return set(self.lhs) | set(self.rhs)

    def __str__(self):
        return f"{format_word(self.lhs)}={format_word(self.rhs)}"

    def __repr__(self):
        return f"Identity({format_word(self.lhs)!r}, {format_word(self.rhs)!r})"


def parse_identity(text: str) -> Identity:
    if text.count("=") != 1:
        raise ParseError(f"identity text must contain exactly one '=': {text!r}")
    lhs, rhs = text.split("=")
    return Identity(parse_word(lhs), parse_word(rhs))


class Substitution:
    """Letter-to-word map extending to an endomorphism; unmapped letters fix.

    Equal maps are equal substitutions; being mutable, none is hashable."""

    def __init__(self, mapping: dict[str, str]):
        self.mapping = mapping

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mapping == other.mapping

    __hash__ = None

    def __repr__(self):
        return f"Substitution(mapping={self.mapping!r})"

    def image(self, letter: str) -> str:
        return self.mapping.get(letter, letter)

    def __call__(self, word: str) -> str:
        return apply_substitution(self, word)


def apply_substitution(subst: Substitution, word: str) -> str:
    return "".join(subst.image(c) for c in word)


# ---------------------------------------------------------------------------
# basic operations


def content(word: str) -> set[str]:
    return set(word)


def occ(word: str, letter: str) -> int:
    return word.count(letter)


def delete_letters(word: str, letters) -> str:
    drop = set(letters)
    return "".join(c for c in word if c not in drop)


def initial_part(word: str) -> str:
    """Subword of first occurrences, in order of first appearance."""
    return "".join(dict.fromkeys(word))


def reverse(word: str) -> str:
    return word[::-1]


# ---------------------------------------------------------------------------
# pattern matching and the embedding quasi-order


@lru_cache(maxsize=512)
def feasible_lengths(occs: tuple[int, ...], up_to: int) -> frozenset[int]:
    """The numbers from 0 to up_to that are sums of members of occs.

    A substitution that sends a pattern to a word puts k copies of a letter's
    image into the word for each pattern letter with k occurrences.  So, with
    occs the pattern's occurrence counts, the word's length and the number of
    times any one letter occurs in it are such sums."""
    feasible = {0}
    for n in range(1, up_to + 1):
        if any(n - o in feasible for o in occs if o <= n):
            feasible.add(n)
    return frozenset(feasible)


@lru_cache(maxsize=512)
def _compile(pattern: str) -> tuple:
    """The steps of `pattern` for the matcher, and its letter-count test.

    Per position, a step is (letter, count, earlier, later).  At a repeated
    letter count is 0: its image is already fixed.  At a letter's first
    occurrence, count is its number of occurrences in the suffix from there,
    earlier holds the (letter, count) pairs of the suffix's letters introduced
    before it, in first-occurrence order, and later is the number of suffix
    occurrences of letters introduced after it.

    The test is the sorted occurrence counts of the pattern's letters, or ()
    when some letter occurs once, since every count is then a sum of them."""
    first = {}
    for i, c in enumerate(pattern):
        first.setdefault(c, i)
    steps = []
    for i, c in enumerate(pattern):
        if first[c] < i:
            steps.append((c, 0, (), 0))
            continue
        counts = Counter(pattern[i:])
        earlier = tuple((d, k) for d, k in counts.items() if first[d] < i)
        later = sum(k for d, k in counts.items() if first[d] > i)
        steps.append((c, counts[c], earlier, later))
    occs = sorted(set(Counter(pattern).values()))
    return tuple(steps), tuple(occs) if occs[:1] != [1] else ()


def match_substitutions(pattern: str, window: str, allow_empty: bool = False):
    """Yield every letter->word map whose expansion of `pattern` is `window`.

    With allow_empty the maps are monoid-endomorphism images (empty words
    allowed); otherwise every image is nonempty.  Deterministic order:
    images are tried shortest first, scanning the pattern left to right.

    A letter's first occurrence only tries image lengths that leave room for
    the rest of the pattern (the images fixed so far, and the shortest
    allowed image per occurrence of a letter still open), so what is left of
    the pattern never needs more than what is left of the window.  The last
    letter to appear has its length forced by that room, after which the
    rest of the pattern spells out exactly the rest of the window.

    Before that, each letter of the window must occur a number of times that
    is a sum of the pattern's occurrence counts (see feasible_lengths), or
    nothing matches.  The sums are read up to the next power of two above the
    window's length, so long windows share a few cached sets.
    """
    if not pattern:
        if not window:
            yield {}
        return
    lo = 0 if allow_empty else 1
    steps, occs = _compile(pattern)
    if occs and not feasible_lengths(occs, 1 << len(window).bit_length()).issuperset(
            map(window.count, set(window))):
        return
    n, end = len(pattern), len(window)
    assign = {}
    choices = []  # [position, window index, image length, longest length]
    pi = wi = 0
    while True:
        while pi < n:
            c, k, earlier, later = steps[pi]
            if not k:
                img = assign[c]
                if not window.startswith(img, wi):
                    break
                pi += 1
                wi += len(img)
                continue
            room = end - wi - lo * later
            for d, kd in earlier:
                room -= kd * len(assign[d])
            if later:
                ln, hi = lo, room // k
                if ln > hi:
                    break
            else:  # the last letter to appear: the room fixes its length
                ln, odd = divmod(room, k)
                if odd or ln < lo:
                    break
                hi = ln
            choices.append([pi, wi, ln, hi])
            assign[c] = window[wi:wi + ln]
            pi += 1
            wi += ln
        else:
            yield dict(assign)
        # backtrack to the innermost first occurrence with a longer image left
        while choices:
            top = choices[-1]
            top[2] += 1
            if top[2] <= top[3]:
                pi, wi = top[0], top[1]
                assign[pattern[pi]] = window[wi:wi + top[2]]
                pi += 1
                wi += top[2]
                break
            del assign[pattern[top[0]]]
            choices.pop()
        else:
            return


def embeds(u: str, v: str) -> bool:
    """Decide the embedding quasi-order: is v = a*xi(u)*b for some semigroup
    endomorphism xi and (possibly empty) words a, b?"""
    if not u:
        raise ValueError("embeds is defined for nonempty first arguments")
    n = len(v)
    for i in range(n + 1):
        for j in range(i + len(u), n + 1):
            if next(match_substitutions(u, v[i:j]), None) is not None:
                return True
    return False
