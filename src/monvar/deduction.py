"""One-step equational rewriting and bounded derivation search.

A step rewrites w = a*xi(s)*b into a*xi(t)*b for an identity s=t of the
system (either orientation) and a monoid endomorphism xi.  Derivability
is searched breadth-first under explicit length and depth bounds, and
the answer distinguishes an exhausted closure (a genuine "no" within the
length bound) from a truncated one ("unknown").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .words import (
    ALPHABET,
    Identity,
    ParseError,
    data_lines,
    match_substitutions,
    parse_identity,
)

YES = "yes"
NO = "no-within-bounds"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Bounds:
    """Search limits; `derivable` and the CLI take their defaults from here."""

    max_len: int = 24
    max_depth: int = 48


class DerivationError(ValueError):
    """A derivation step fails to reconstruct; carries the step index."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class IdentitySystem:
    identities: frozenset[Identity]
    name: str | None = None

    def ordered(self) -> tuple[Identity, ...]:
        return tuple(sorted(self.identities,
                            key=lambda i: (len(i.lhs), i.lhs, len(i.rhs), i.rhs)))

    def __iter__(self):
        return iter(self.ordered())

    def __len__(self):
        return len(self.identities)

    def __str__(self):
        inner = ", ".join(str(i) for i in self.ordered())
        return f"{{{inner}}}"


def system(*specs, name: str | None = None) -> IdentitySystem:
    """Build an IdentitySystem from Identity objects and/or "u=v" strings."""
    idents = frozenset(
        s if isinstance(s, Identity) else parse_identity(s) for s in specs
    )
    return IdentitySystem(idents, name)


def parse_identity_system(text: str, name: str | None = None) -> IdentitySystem:
    """File format: one identity per line, '#' comments, optional 'name:' header."""
    idents = []
    named = False
    for _, line in data_lines(text):
        if line.startswith("name:"):
            if named:
                raise ParseError("duplicate name: line")
            named = True
            name = line[len("name:"):].strip()
            continue
        idents.append(parse_identity(line))
    if not idents:
        raise ParseError("identity-system text contains no identities")
    return IdentitySystem(frozenset(idents), name)


def load_identity_system(path) -> IdentitySystem:
    with open(path, encoding="utf-8") as fh:
        return parse_identity_system(fh.read())


# ---------------------------------------------------------------------------
# rewrite steps


@dataclass(frozen=True)
class RewriteStep:
    """One application of an identity: prefix * xi(side) * suffix."""

    prefix: str
    identity: Identity
    flipped: bool  # False rewrites lhs->rhs, True rewrites rhs->lhs
    mapping: tuple[tuple[str, str], ...]  # xi restricted to the identity's letters
    suffix: str

    @property
    def pattern(self) -> str:
        return self.identity.rhs if self.flipped else self.identity.lhs

    @property
    def replacement(self) -> str:
        return self.identity.lhs if self.flipped else self.identity.rhs

    def _expand(self, word: str) -> str:
        images = dict(self.mapping)
        return "".join(images[c] for c in word)

    @property
    def source(self) -> str:
        return self.prefix + self._expand(self.pattern) + self.suffix

    @property
    def target(self) -> str:
        return self.prefix + self._expand(self.replacement) + self.suffix

    def _key(self):
        # Identity equality is unordered, so compare the oriented sides
        return (self.prefix, self.pattern, self.replacement, self.mapping, self.suffix)

    def __eq__(self, other):
        if not isinstance(other, RewriteStep):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class Derivation:
    words: tuple[str, ...]
    steps: tuple[RewriteStep, ...]

    def __len__(self):
        return len(self.steps)


def check_derivation(deriv: Derivation, sys: IdentitySystem, strict: bool = False) -> bool:
    """True iff every step uses an identity of the system and reconstructs
    its source and target words.  With strict=True a failing step raises
    DerivationError carrying its index."""
    if not deriv.words or len(deriv.words) != len(deriv.steps) + 1:
        if strict:
            raise DerivationError("word/step counts do not line up", -1)
        return False
    for i, step in enumerate(deriv.steps):
        if step.identity not in sys.identities:
            if strict:
                raise DerivationError(f"step {i} uses an identity outside the system", i)
            return False
        if step.source != deriv.words[i] or step.target != deriv.words[i + 1]:
            if strict:
                raise DerivationError(f"step {i} does not reconstruct its words", i)
            return False
    return True


# ---------------------------------------------------------------------------
# one-step rewriting


@lru_cache(maxsize=None)
def _matches(pattern: str, window: str) -> tuple:
    """All endomorphism restrictions (sorted item tuples) with image == window."""
    return tuple(
        tuple(sorted(m.items()))
        for m in match_substitutions(pattern, window, allow_empty=True)
    )


@lru_cache(maxsize=None)
def _feasible_lengths(occs: tuple[int, ...], up_to: int) -> frozenset[int]:
    """Window lengths expressible as a nonnegative combination of occs."""
    feasible = {0}
    for n in range(1, up_to + 1):
        if any(n - o in feasible for o in occs if o <= n):
            feasible.add(n)
    return frozenset(feasible)


def _fresh_images(fresh: tuple[str, ...], counts: dict, budget: int):
    """Assignments for target-side letters absent from the matched side."""
    if not fresh:
        yield {}
        return
    first, rest = fresh[0], fresh[1:]
    cnt = counts[first]
    for ln in range(budget // cnt + 1):
        for tup in itertools.product(ALPHABET, repeat=ln):
            img = "".join(tup)
            for tail in _fresh_images(rest, counts, budget - cnt * ln):
                yield {first: img, **tail}


def expand(word: str, sys: IdentitySystem, max_len: int):
    """All one-step rewrites of `word` with length <= max_len.

    Returns (targets, truncated): targets maps each reachable word to the
    first RewriteStep producing it in deterministic scan order; truncated
    is True when some rewrite was dropped for exceeding max_len (so the
    successor set is not exhaustive beyond the bound).
    """
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
            # every word matches the empty window, and a fresh letter's image
            # can always outgrow the bound
            truncated = truncated or bool(fresh)
            for i in range(n + 1):
                for j in range(i, n + 1):
                    if j - i not in lengths:
                        continue
                    for items in _matches(s, word[i:j]):
                        images = dict(items)
                        base = (n - (j - i)) + sum(
                            t.count(c) * len(images[c]) for c in shared
                        )
                        if base > max_len:
                            truncated = True
                            continue
                        for extra in _fresh_images(fresh, counts, max_len - base):
                            full = {**images, **extra} if extra else images
                            out = word[:i] + "".join(full[c] for c in t) + word[j:]
                            if out not in targets:
                                mapping = tuple(sorted(full.items())) if extra else items
                                targets[out] = RewriteStep(word[:i], ident, flipped,
                                                           mapping, word[j:])
    return targets, truncated


def one_step_rewrites(word: str, sys: IdentitySystem, max_len: int) -> set[str]:
    targets, _ = expand(word, sys, max_len)
    return set(targets)


# ---------------------------------------------------------------------------
# bounded derivation search


@dataclass
class SearchResult:
    status: str  # YES, NO or UNKNOWN
    derivation: Derivation | None = None
    explored: int = 0


def derivable(u: str, v: str, sys: IdentitySystem,
              max_len: int = Bounds.max_len,
              max_depth: int = Bounds.max_depth) -> SearchResult:
    """Breadth-first search for a derivation u ->* v within the bounds.

    YES carries a witness derivation.  NO means the rewrite closure of u
    was exhausted without truncation, a sound proof of non-derivability.
    UNKNOWN means the length or depth bound cut the search short.
    """
    if u == v:
        return SearchResult(YES, Derivation((u,), ()), explored=1)
    parents: dict[str, tuple[str, RewriteStep] | None] = {u: None}
    frontier = [u]
    truncated = len(v) > max_len
    for _ in range(max_depth):
        if not frontier:
            break
        frontier.sort(key=lambda w: (len(w), w))
        nxt = []
        for word in frontier:
            succ, cut = expand(word, sys, max_len)
            truncated = truncated or cut
            for tgt in sorted(succ, key=lambda w: (len(w), w)):
                if tgt in parents:
                    continue
                parents[tgt] = (word, succ[tgt])
                if tgt == v:
                    return SearchResult(YES, _reconstruct(parents, v),
                                        explored=len(parents))
                nxt.append(tgt)
        frontier = nxt
    if frontier:  # depth budget ran out with work left
        return SearchResult(UNKNOWN, explored=len(parents))
    return SearchResult(UNKNOWN if truncated else NO, explored=len(parents))


def _reconstruct(parents, goal: str) -> Derivation:
    words = [goal]
    steps = []
    cur = goal
    while parents[cur] is not None:
        prev, step = parents[cur]
        steps.append(step)
        words.append(prev)
        cur = prev
    return Derivation(tuple(reversed(words)), tuple(reversed(steps)))
