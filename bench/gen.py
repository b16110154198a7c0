"""Seeded input generators for the four benchmark workloads.

Everything here is plain Python and never imports monvar: the program under
test only ever sees the generated inputs.  Each workload is an endless stream
of rounds; a round has a fixed composition (so every seed loads the layers in
the same proportions) and the seed picks the concrete instances.  Queries are
distinct within a stream.

A query is a JSON-friendly dict with a ``kind`` and the fields the runner and
the oracles need; ``expect`` records what the independent construction
guarantees about the answer.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random

# ---------------------------------------------------------------------------
# word helpers (independent of monvar.words)


def initial_part(word: str) -> str:
    return "".join(dict.fromkeys(word))


def capped_counts(word: str, letters: str, cap: int) -> tuple:
    return tuple(min(word.count(c), cap) for c in letters)


def random_word(rng: random.Random, letters: str, length: int, full: bool = True) -> str:
    """A random word of the given length; with full, every letter occurs."""
    while True:
        w = "".join(rng.choice(letters) for _ in range(length))
        if not full or set(w) == set(letters):
            return w


def fmt(word: str) -> str:
    """Exponent-grouped text form ("xxy" -> "x2y", "" -> "1")."""
    if not word:
        return "1"
    parts = []
    for c, run in itertools.groupby(word):
        n = len(list(run))
        parts.append(c if n == 1 else f"{c}{n}")
    return "".join(parts)


def unfmt(text: str) -> str:
    """Inverse of fmt for the forms used in this file."""
    if text == "1":
        return ""
    out, i = [], 0
    while i < len(text):
        c = text[i]
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        out.append(c * (int(text[i + 1:j]) if j > i + 1 else 1))
        i = j
    return "".join(out)


# ---------------------------------------------------------------------------
# deduce: identities against the deduction-only catalog entries

# Bases of the deduction-only entries, as the survey states them.  The
# generator rewrites with these to build identities that hold by construction.
BASES = {
    "D": ("x2=x3", "x2y=xyx", "xyx=yx2"),
    "E": ("x2=x3", "x2y=xyx", "x2y2=y2x2"),
    "Q": ("yxyzxy=yxzxyxz",),
    "K": ("y2xt2z2y2t2xz2=y2xt2z2xy2t2xz2",),
    "B2": ("x2=x3",),
    "Z:1:y": ("x2=x3", "xy=x2y"),
}
D_SINGLE = "x3yz=yxzx"
# Entries whose registered refutation models include the 3-element counter
# (a^2 = 0), so identities whose occurrence counts capped at 2 differ fail.
COUNTER2_MEMBERS = ("D", "E", "K", "B2")
DEDUCE_BOUNDS = (7, 10)        # (max_len, max_depth) for every deduce query
DERIVE_BOUNDS = (8, 6)         # the D <-> x3yz=yxzx interderivations


def _pairs(basis):
    out = []
    for text in basis:
        lhs, rhs = (unfmt(s) for s in text.split("="))
        out += [(lhs, rhs), (rhs, lhs)]
    return out


def rewrite_step(rng, basis, letters, max_len):
    """Pick an instance a*s(l)*b -> a*s(r)*b of a basis identity l=r.

    Returns (source, target) with both no longer than max_len, or None."""
    lhs, rhs = rng.choice(_pairs(basis))
    sigma = {c: "".join(rng.choice(letters) for _ in range(rng.choice((0, 1, 1, 1, 2))))
             for c in sorted(set(lhs + rhs))}
    pre = random_word(rng, letters, rng.randint(0, 2), full=False)
    suf = random_word(rng, letters, rng.randint(0, 2), full=False)
    src = pre + "".join(sigma[c] for c in lhs) + suf
    tgt = pre + "".join(sigma[c] for c in rhs) + suf
    if src == tgt or max(len(src), len(tgt)) > max_len:
        return None
    return src, tgt


def derived_pair(rng, basis, letters, max_len):
    """u, v with v one or two basis rewrites away from u (so u = v holds)."""
    while True:
        first = rewrite_step(rng, basis, letters, max_len)
        if first is None:
            continue
        u, v = first
        if rng.random() < 0.5:
            # a second, independent step in a fresh prefix: w*u -> w'*v, with
            # both intermediate words w'*u and w*v within the length bound
            second = rewrite_step(rng, basis, letters, max_len)
            if second is None:
                continue
            w, w2 = second
            if max(len(w2 + u), len(w + v)) > max_len:
                continue
            u, v = w + u, w2 + v
        if u != v and len(u) <= max_len and len(v) <= max_len:
            return u, v


# The searching classes start from one fixed word shape per entry and class:
# the cost of a truncated search is set by the closure of the left side, so a
# fixed shape (renamed by the seed) keeps the work per round the same for
# every seed, while the seed draws the right side and the renaming.
# D's shapes use two letters: over three, one D search costs as much as all the
# other entries' searches together and would set the tail on its own.
HEAVY_CLASSES = ("fails-content", "fails-count", "same-invariants")
SHAPES = {(v, c): random_word(random.Random(f"shape:{v}:{c}"), "xy" if v == "D" else "xyz", 5)
          for v in BASES for c in HEAVY_CLASSES}


def _deduce_query(rng, variety, cls):
    max_len, _ = DEDUCE_BOUNDS
    if cls == "yes":
        letters = rng.choice(("xy", "xyz"))
        u, v = derived_pair(rng, BASES[variety], letters, max_len)
        return {"kind": "decide", "variety": variety, "lhs": u, "rhs": v,
                "cls": cls, "expect": "holds"}
    shape = SHAPES[variety, cls]
    letters = "".join(rng.sample("xyz", len(set(shape))))
    u = shape.translate(str.maketrans("xyz"[:len(letters)], letters))
    if cls == "fails-content":
        # drop a letter: content differs, so the 2-element semilattice refutes
        keep = letters.replace(rng.choice(letters), "")
        v = random_word(rng, keep, rng.randint(2, 6))
        expect = "fails"
    elif cls == "fails-count":
        # same content, occurrence counts capped at 2 differ: the counter refutes
        while True:
            v = random_word(rng, letters, rng.randint(len(letters), 6))
            if capped_counts(u, letters, 2) != capped_counts(v, letters, 2):
                break
        expect = "fails"
    else:
        # same content and capped counts: the refuters are silent, the search
        # decides it or the answer is an honest unknown
        while True:
            v = "".join(rng.sample(u, len(u)))
            if v != u:
                break
        expect = "any"
    return {"kind": "decide", "variety": variety, "lhs": u, "rhs": v,
            "cls": cls, "expect": expect}


def deduce_round(rng, first, fresh):
    queries = []
    for variety in BASES:
        fail_cls = "fails-count" if variety in COUNTER2_MEMBERS else "fails-content"
        # three quick derived identities per entry put the median inside their
        # cost body rather than between two classes
        for cls in ("yes", "yes", "yes", "fails-content", fail_cls, "same-invariants"):
            queries.append(fresh(lambda: _deduce_query(rng, variety, cls)))
    # derivations between the three-identity basis of D and its one-identity
    # form, under a random renaming of the letters
    for direction in ("to-basis", "to-single"):
        queries.append(fresh(lambda: _derive_query(rng, direction)))
    for _ in range(2):
        queries.append(fresh(lambda: {
            "kind": "embeds", "lhs": random_word(rng, "xy", rng.randint(2, 3), full=False),
            "rhs": random_word(rng, "xyz", rng.randint(4, 7), full=False),
            "cls": "embeds", "expect": "oracle"}))
    return queries


def _derive_query(rng, direction):
    """A derivation between the three-identity basis of D and its
    one-identity form, under a random renaming of the letters."""
    ren = dict(zip("xyzt", rng.sample("abcdexyzt", 4)))
    if direction == "to-basis":
        lhs, rhs = (unfmt(s) for s in rng.choice(BASES["D"]).split("="))
        system = "D-single"
    else:
        lhs, rhs = (unfmt(s) for s in D_SINGLE.split("="))
        system = "D"
    if rng.random() < 0.5:
        lhs, rhs = rhs, lhs
    return {"kind": "derive", "system": system, "lhs": "".join(ren[c] for c in lhs),
            "rhs": "".join(ren[c] for c in rhs), "cls": direction, "expect": "yes"}


# ---------------------------------------------------------------------------
# models: presentations and model checks


def commutative_presentation(exps, gens="abcd"):
    """g^e = 0 for the i-th generator g and i-th exponent e; all commute."""
    gens = gens[:len(exps)]
    rels = [f"{g}{e}=0" for g, e in zip(gens, exps)]
    rels += [f"{b}{a}={a}{b}" for a, b in itertools.combinations(gens, 2)]
    return " ".join(gens), rels


def count_avoiding(gens: str, relators, limit: int):
    """Relator-avoiding words over gens (the empty word included); None when
    there are more than limit of them or words of length 40 survive."""
    count, layer = 1, [""]
    for _ in range(40):
        nxt = []
        for w in layer:
            for g in gens:
                x = w + g
                if not any(x.endswith(r) for r in relators):
                    nxt.append(x)
        if not nxt:
            return count, max(len(w) for w in layer)
        count += len(nxt)
        if count > limit:
            return None
        layer = nxt
    return None


def zero_relator_presentation(rng, lo, hi):
    """Random finite presentation whose relations all equal 0, with
    lo <= order <= hi (order counts the zero).

    Generators get a random order; every out-of-order pair yx is a relator
    and so is a power of each generator, which keeps the monoid finite.  A
    few random in-order words are relators too."""
    while True:
        gens = rng.choice(("ab", "abc"))
        perm = rng.sample(gens, len(gens))
        rels = {g * rng.randint(2, 9) for g in gens}
        rels |= {y + x for i, x in enumerate(perm) for y in perm[i + 1:]}
        for _ in range(rng.randint(0, 2)):
            w = sorted(random_word(rng, gens, rng.randint(2, 4), full=False), key=perm.index)
            rels.add("".join(w))
        rels = [r for r in sorted(rels) if not any(s != r and s in r for s in rels)]
        got = count_avoiding(gens, rels, hi)
        if got is None:
            continue
        count, longest = got
        if lo <= count + 1 <= hi:
            return {"gens": " ".join(gens), "rels": [f"{fmt(r)}=0" for r in rels],
                    "order": count + 1, "longest": longest}


@functools.lru_cache(maxsize=None)
def _exponent_tuples(k, products):
    return [t for t in itertools.product(range(2, 17), repeat=k) if math.prod(t) in products]


def _check(model, u, v, cls, expect, order):
    return {"kind": "check", "model": model, "lhs": u, "rhs": v, "cls": cls,
            "expect": expect, "order": order}


RVROP_BASIS = ("x4=x3", "x3yzt=yxzxtx", "xyzxty=yxzxty", "xzxyty=xzyxty", "xtyzxy=xtyzyx")


def _commutative_build(rng, k, products):
    """Exponents whose product is one of `products`, so every draw for a slot
    builds a monoid of nearly the same order."""
    exps = rng.choice(_exponent_tuples(k, products))
    # seeded generator letters: isomorphic presentations, distinct inputs
    gens, rels = commutative_presentation(exps, "".join(rng.sample("abcdefgh", k)))
    return {"kind": "present", "gens": gens, "rels": rels, "order": math.prod(exps) + 1,
            "exponent": max(exps), "family": "commutative", "cls": f"commutative-{k}",
            "expect": "oracle"}


def _zero_build(rng):
    zr = zero_relator_presentation(rng, 100, 130)
    return {"kind": "present", "gens": zr["gens"], "rels": zr["rels"], "order": zr["order"],
            "longest": zr["longest"], "family": "zero", "cls": "zero-relator",
            "expect": "oracle"}


def model_key(build) -> str:
    """How check queries refer to a monoid built earlier in the stream."""
    return "present:" + build["gens"] + ":" + ",".join(build["rels"])


def _built_checks(rng, b):
    """Three holding and three failing 2-letter checks: these quick checks are
    most of a round, which puts the median inside their cost body."""
    out = []
    key = model_key(b)
    for cls in ("holds", "fails") * 3:
        letters = "xy"
        if b["family"] == "commutative":
            e = b["exponent"]
            u = random_word(rng, letters, rng.randint(len(letters), len(letters) + 3))
            if cls == "holds":
                v = "".join(rng.sample(u, len(u)))
                c = rng.choice(letters)
                v += c * (e if u.count(c) >= e else 0)
            else:
                v = random_word(rng, letters, rng.randint(len(letters), len(letters) + 3))
            expect = ("holds" if capped_counts(u, letters, e) == capped_counts(v, letters, e)
                      else "fails")
        elif cls == "holds":
            # every letter at least n times on each side: both sides are 0
            # unless every letter is 1
            n = b["longest"] + 1
            u = "".join(c * n for c in letters)
            v = "".join(c * (n + rng.randint(0, 1)) for c in rng.sample(letters, len(letters)))
            expect = "holds"
        else:
            # x occurs once in u, so x -> a generator and the rest -> 1 makes
            # the left side nonzero while the right side is 0
            n = b["longest"] + 1
            u = "x" + random_word(rng, letters[1:], rng.randint(0, 2), full=False)
            v = u + "x" * n
            expect = "fails"
        if u != v:
            out.append(_check(key, u, v, f"{b['cls']}-{cls}", expect, b["order"]))
    return out


def _named_checks(rng):
    out = []
    for name, order, letters in (("lrb:3", 16, "xyzt"), ("lrb:4", 65, "xyz")):
        for cls in ("holds", "fails"):
            u = random_word(rng, letters, rng.randint(len(letters), len(letters) + 3))
            if cls == "holds":
                v = u + "".join(rng.choice(u) for _ in range(rng.randint(1, 2)))
            else:
                v = random_word(rng, letters, rng.randint(len(letters), len(letters) + 3))
            expect = "holds" if initial_part(u) == initial_part(v) else "fails"
            out.append(_check(name, u, v, f"lrb-{cls}", expect, order))
    m = rng.randint(2, 7)
    for cls in ("holds", "fails"):
        letters = "xyztw"
        u = random_word(rng, letters, rng.randint(len(letters), len(letters) + 3))
        if cls == "holds":
            v = "".join(rng.sample(u, len(u))) + rng.choice(u) * m
        else:
            v = random_word(rng, letters, rng.randint(len(letters), len(letters) + 3))
        expect = ("holds" if all((u.count(c) - v.count(c)) % m == 0 for c in letters)
                  else "fails")
        out.append(_check(f"group:{m}", u, v, f"group-{cls}", expect, m))
    for cls in ("holds", "fails"):
        letters = "xyz"
        if cls == "holds":
            u, v = derived_pair(rng, RVROP_BASIS, letters, 12)
        else:
            # content differs, and R x Rop contains the semilattice {1, 0}
            u = random_word(rng, letters, rng.randint(len(letters), 5))
            v = random_word(rng, letters[:-1], rng.randint(1, 5), full=False)
        out.append(_check("RvRop", u, v, f"rvrop-{cls}", cls, 49))
    return out


def models_round(rng, first, fresh):
    builds = [fresh(lambda k=k, p=p: _commutative_build(rng, k, p))
              for k, p in ((2, tuple(range(55, 81))), (3, (120, 126)), (4, (120,)))]
    builds.append(fresh(lambda: _zero_build(rng)))
    checks = [q for b in builds for q in _built_checks(rng, b)] + _named_checks(rng)
    queries = builds + [q for q in checks if fresh.novel(q)]
    if first:
        # one holding 4-letter identity on lrb:4: 65^4 = 17.8 M assignment cells
        perm = rng.sample("xyzt", 4)
        u = "".join(perm)
        v = u + "".join(rng.choice(perm) for _ in range(2))
        queries.append(_check("lrb:4", u, v, "lrb-big", "holds", 65))
    return queries


# ---------------------------------------------------------------------------
# lattices: partition lattices and down-set lattices of random posets


def random_poset(rng, width: int, size: int, p_cross: float):
    """A poset on `size` points covered by `width` chains, with random
    relations between chains that respect one linear extension.

    Returns (chains, below) where below[p] is the set of points under p."""
    order = list(range(size))
    chain_of = [rng.randrange(width) for _ in order]
    chains = [[p for p in order if chain_of[p] == c] for c in range(width)]
    chains = [c for c in chains if c]
    below = {p: set() for p in order}
    for c in chains:
        for i in range(1, len(c)):
            below[c[i]].add(c[i - 1])
    for p in order:
        for q in range(p):
            if chain_of[p] != chain_of[q] and rng.random() < p_cross:
                below[p].add(q)
    for p in order:  # transitive closure along the linear extension
        for q in sorted(below[p]):
            below[p] |= below[q]
    return chains, below


def down_sets(chains, below):
    """All down-sets, each given as the tuple of chain-prefix lengths."""
    out = []
    for cut in itertools.product(*(range(len(c) + 1) for c in chains)):
        members = {p for c, k in zip(chains, cut) for p in c[:k]}
        if all(below[p] <= members for p in members):
            out.append(cut)
    return out


def downset_lattice_text(rng, lo, hi):
    while True:
        chains, below = random_poset(rng, 3, rng.randint(lo // 10 + 3, hi // 10 + 4),
                                     rng.uniform(0.05, 0.3))
        ideals = down_sets(chains, below)
        if lo <= len(ideals) <= hi:
            break
    names = {cut: "d" + "_".join(map(str, cut)) for cut in ideals}
    present = set(ideals)
    lines = ["elems: " + " ".join(names[c] for c in ideals)]
    for cut in ideals:
        for i in range(len(cut)):
            up = cut[:i] + (cut[i] + 1,) + cut[i + 1:]
            if up in present:
                lines.append(f"cover: {names[cut]} < {names[up]}")
    return "\n".join(lines) + "\n", len(ideals)


def lattices_round(rng, first, fresh):
    queries = []
    if first:
        queries += [{"kind": "partition", "k": k, "cls": f"part:{k}", "expect": "oracle"}
                    for k in (4, 5, 6)]
    # narrow size bands keep the build work per round the same for every seed;
    # two of the largest per round put the tail inside their cost body
    for lo, hi in ((30, 40), (70, 80), (110, 120), (110, 120)):
        queries.append(fresh(lambda: _downset_query(rng, lo, hi)))
    return queries


def _downset_query(rng, lo, hi):
    text, size = downset_lattice_text(rng, lo, hi)
    return {"kind": "downset", "text": text, "size": size, "cls": f"downset-{lo}-{hi}",
            "expect": "oracle"}


# ---------------------------------------------------------------------------
# streams

ROUNDS = {"deduce": deduce_round, "models": models_round, "lattices": lattices_round}


class Fresh:
    """Keeps the queries of one stream distinct."""

    def __init__(self):
        self.seen = set()

    def novel(self, q) -> bool:
        key = json.dumps({k: v for k, v in q.items() if k != "cls"}, sort_keys=True)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def __call__(self, draw):
        """Draw until the query is new."""
        for _ in range(1000):
            q = draw()
            if self.novel(q):
                return q
        raise RuntimeError(f"no fresh query of class {q['cls']} after 1000 draws")


def rounds(workload: str, seed: int):
    """Endless stream of rounds for an in-process workload."""
    rng = random.Random(f"{workload}:{seed}")
    fresh = Fresh()
    i = 0
    while True:
        yield ROUNDS[workload](rng, i == 0, fresh)
        i += 1


def cli_order(pool_sizes: dict, seed: int):
    """Per-category shuffled indices into the golden invocation pool."""
    rng = random.Random(f"cli:{seed}")
    return {cat: rng.sample(range(n), n) for cat, n in sorted(pool_sizes.items())}
