"""Independent checks of monvar's answers.

Nothing here calls monvar's algorithms: words are matched, derivation steps
replayed and identities evaluated with separate code.  Monoids are read only
through their public ``names``, ``table``, ``one`` and ``index``.
"""

from __future__ import annotations


def evaluate(m, word: str, assignment: dict) -> int:
    """Value of `word` in monoid m under letter -> element-name assignment."""
    acc = m.one
    for c in word:
        acc = int(m.table[acc, m.index(assignment[c])])
    return acc


def violates(m, lhs: str, rhs: str, assignment: dict) -> bool:
    """False also when the assignment names elements m does not have."""
    if not set(assignment.values()) <= set(m.names):
        return False
    return evaluate(m, lhs, assignment) != evaluate(m, rhs, assignment)


def holds_everywhere(m, lhs: str, rhs: str) -> bool:
    """Brute force over all assignments, for the small refutation models."""
    letters = sorted(set(lhs + rhs))
    names = m.names

    def rec(i, assign):
        if i == len(letters):
            return not violates(m, lhs, rhs, assign)
        for nm in names:
            assign[letters[i]] = nm
            if not rec(i + 1, assign):
                return False
        return True

    return rec(0, {})


def _images_match(pattern: str, window: str, assign: dict) -> bool:
    """Backtracking search for nonempty letter images spelling `window`."""
    if not pattern:
        return not window
    c = pattern[0]
    if c in assign:
        img = assign[c]
        return window.startswith(img) and _images_match(pattern[1:], window[len(img):], assign)
    for n in range(1, len(window) - len(pattern) + 2):
        assign[c] = window[:n]
        if _images_match(pattern[1:], window[n:], assign):
            return True
    assign.pop(c, None)
    return False


def embeds(u: str, v: str) -> bool:
    """v = a * xi(u) * b for a semigroup endomorphism xi and words a, b."""
    return any(_images_match(u, v[i:j], {})
               for i in range(len(v) + 1) for j in range(i + len(u), len(v) + 1))


def derivation_ok(deriv, basis_pairs: set, u: str, v: str) -> bool:
    """Replay every step: each uses a basis identity (either orientation)
    and turns its source word into its target word, from u to v."""
    words = deriv.words
    if not words or words[0] != u or words[-1] != v or len(words) != len(deriv.steps) + 1:
        return False
    for i, step in enumerate(deriv.steps):
        ident = (step.identity.lhs, step.identity.rhs)
        if ident not in basis_pairs and ident[::-1] not in basis_pairs:
            return False
        pattern, repl = (ident[1], ident[0]) if step.flipped else ident
        images = dict(step.mapping)
        if any(c not in images for c in pattern + repl):
            return False
        src = step.prefix + "".join(images[c] for c in pattern) + step.suffix
        tgt = step.prefix + "".join(images[c] for c in repl) + step.suffix
        if src != words[i] or tgt != words[i + 1]:
            return False
    return True


def bell(k: int) -> int:
    row = [1]
    for _ in range(k - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def partition_modular(label: str) -> bool:
    """Jezek's rule from the label alone: at most one block has two points."""
    return sum(1 for block in label.split("|") if len(block) > 1) <= 1
