"""Free-monoid word algebra.

Words are plain Python strings over the lowercase alphabet; the empty
string is the identity of concatenation.  The text form used everywhere
groups maximal runs of a letter as letter+exponent ("xxxy" prints as
"x3y") and writes the empty word as "1".
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class ParseError(ValueError):
    """Text does not match the word/identity/file grammar."""


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
    """Parse the exponent-grouped text form; "1" denotes the empty word."""
    s = "".join(text.split())
    if s == "1":
        return ""
    if not s:
        raise ParseError("empty word text (write '1' for the empty word)")
    out = []
    pos = 0
    for m in _TERM.finditer(s):
        if m.start() != pos:
            break
        pos = m.end()
        letter, digits = m.group(1), m.group(2)
        exp = int(digits) if digits else 1
        if exp < 1:
            raise ParseError(f"exponent must be positive in {m.group(0)!r}")
        out.append(letter * exp)
    if pos != len(s):
        raise ParseError(f"cannot parse word text {text!r} at {s[pos:]!r}")
    return "".join(out)


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


@dataclass(frozen=True, eq=False)
class Identity:
    """An unordered pair of words: u = v and v = u are the same identity."""

    lhs: str
    rhs: str

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


@dataclass
class Substitution:
    """Letter-to-word map extending to an endomorphism; unmapped letters fix."""

    mapping: dict[str, str]

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


def match_substitutions(pattern: str, window: str, allow_empty: bool = False):
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
