"""Capture the golden output of the CLI invocation pool.

    python3 bench/capture_golden.py

Builds a fixed pool of representative ``monvar`` invocations (30 per
category, from a fixed generator seed), runs each once and stores its exit
code and exact stdout in ``bench/golden/cli_pool.json``.  The cli workload
compares every invocation against this file, so re-capture only when the
CLI's output is meant to change.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import monvar  # noqa: E402
from run import child_env, monvar_cmd  # noqa: E402

PER_CATEGORY = 30
MAX_WALL_S = 1.5  # keeps one round of the cli workload short
NAMED = (["D2", "R", "Rop", "RxRop"] + [f"counter:{n}" for n in range(2, 10)]
         + [f"group:{m}" for m in range(2, 10)] + [f"lrb:{k}" for k in range(1, 5)])
PRESENTATIONS = sorted(f"bench/golden/pres/{p.name}" for p in (HERE / "golden" / "pres").iterdir()
                       if p.name != "comm_a6_4gen.txt")
CHECK_VARIETIES = ("LRB", "SL", "COM", "C2", "C3", "A2", "A3", "D2", "R", "Rop", "RvRop", "T",
                   "B2", "D", "E", "Q", "K", "Z:1:y")
DEDUCTION_ONLY = ("B2", "D", "E", "Q", "K", "Z:1:y")
LATTICES = ("fig1", "fig2", "chainD", "part:3", "part:4", "part:5")


def identity(rng, letters, lo=1, hi=5):
    while True:
        u = gen.random_word(rng, letters, rng.randint(lo, hi), full=False)
        v = gen.random_word(rng, letters, rng.randint(lo, hi), full=False)
        if u != v:
            return f"{gen.fmt(u)}={gen.fmt(v)}"


def lattice_names(source):
    if source.startswith("part:"):
        return monvar.partition_lattice(int(source[5:])).names
    return monvar.fixtures()[source].names


def candidates(rng, cat):
    if cat == "check":
        v = rng.choice(CHECK_VARIETIES)
        args = ["check", v, identity(rng, rng.choice(("xy", "xyz")))]
        return args + (["--max-len", "6", "--max-depth", "6"] if v in DEDUCTION_ONLY else [])
    if cat == "derive":
        v = rng.choice(("D", "E", "B2", "Z:1:y"))
        u, w = gen.derived_pair(rng, gen.BASES[v], rng.choice(("xy", "xyz")), 7)
        return ["derive", gen.fmt(u), gen.fmt(w), "--system", v, "--max-len", "7",
                "--max-depth", "4"]
    if cat == "monoid-build":
        return ["monoid", "build", rng.choice(NAMED + PRESENTATIONS)]
    if cat == "monoid-satisfies":
        m = rng.choice([n for n in NAMED if n != "lrb:4"])
        return ["monoid", "satisfies", m, identity(rng, rng.choice(("xy", "xyz")))]
    if cat == "monoid-info":
        return ["monoid", "info", rng.choice(NAMED + PRESENTATIONS)]
    if cat == "lattice":
        src = rng.choice(LATTICES)
        mode = rng.choice(("list", "global", "count", "element", "element-flags"))
        if mode == "list":
            return ["lattice", src]
        if mode == "global":
            return ["lattice", src, "--global"]
        if mode == "count":
            return ["lattice", src, "--count-modular"]
        args = ["lattice", src, "--element", rng.choice(lattice_names(src))]
        if mode == "element-flags":
            args += rng.sample(["--modular", "--cancellable", "--costandard"], rng.randint(1, 3))
        return args
    if cat == "preceq":
        u = gen.random_word(rng, rng.choice(("x", "xy", "xyz")), rng.randint(1, 3), full=False)
        v = gen.random_word(rng, "xyz", rng.randint(2, 7), full=False)
        return ["preceq", gen.fmt(u), gen.fmt(v)]
    raise ValueError(cat)


def capture(args):
    t = time.perf_counter()
    p = subprocess.run(monvar_cmd(*args), cwd=ROOT, env=child_env(), capture_output=True,
                       timeout=120)
    return {"rc": p.returncode, "stdout": p.stdout.decode("utf-8")}, time.perf_counter() - t


def main():
    from run import CLI_CATEGORIES

    rng = random.Random("cli-pool")
    entries = []
    for cat in CLI_CATEGORIES:
        seen = set()
        while len(seen) < PER_CATEGORY:
            args = candidates(rng, cat)
            if tuple(args) in seen:
                continue
            got, wall = capture(args)
            if got["rc"] not in (0, 1, 2) or wall > MAX_WALL_S:
                continue  # the pool holds quick, answered invocations only
            seen.add(tuple(args))
            entries.append({"cat": cat, "args": args, **got})
            print(cat, " ".join(args), got["rc"], flush=True)
    pool = {"entries": entries,
            "probes": {"cold_start": {"args": ["preceq", "xy", "yx"],
                                      **capture(["preceq", "xy", "yx"])[0]},
                       "verify_paper": {"args": ["verify-paper"],
                                        **capture(["verify-paper"])[0]}}}
    out = HERE / "golden" / "cli_pool.json"
    out.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} invocations to {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
