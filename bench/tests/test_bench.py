"""Self-tests of the benchmark: seeded inputs, emitted metrics, refusal
without the package.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
IN_PROCESS = ("deduce", "models", "lattices")


def first_rounds(workload, seed, n=3):
    return list(itertools.islice(gen.rounds(workload, seed), n))


def pool_sizes():
    pool = json.loads((BENCH / "golden" / "cli_pool.json").read_text(encoding="utf-8"))
    sizes = {}
    for entry in pool["entries"]:
        sizes[entry["cat"]] = sizes.get(entry["cat"], 0) + 1
    return sizes


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_same_seed_same_inputs(workload):
    assert first_rounds(workload, 7) == first_rounds(workload, 7)


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_different_seed_different_inputs(workload):
    assert first_rounds(workload, 7) != first_rounds(workload, 8)


def test_cli_order_follows_the_seed():
    sizes = pool_sizes()
    assert gen.cli_order(sizes, 3) == gen.cli_order(sizes, 3)
    assert gen.cli_order(sizes, 3) != gen.cli_order(sizes, 4)


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_queries_distinct_within_a_stream(workload):
    keys = [json.dumps({k: v for k, v in q.items() if k != "cls"}, sort_keys=True)
            for r in first_rounds(workload, 11, 6) for q in r]
    assert len(keys) == len(set(keys))


def test_generators_respect_their_construction():
    rng = __import__("random").Random(1)
    for _ in range(50):
        u, v = gen.derived_pair(rng, gen.BASES["D"], "xyz", gen.DEDUCE_BOUNDS[0])
        assert u != v and max(len(u), len(v)) <= gen.DEDUCE_BOUNDS[0]
        zr = gen.zero_relator_presentation(rng, 50, 260)
        assert 50 <= zr["order"] <= 260
        text, size = gen.downset_lattice_text(rng, 25, 60)
        assert 25 <= size <= 60 and text.startswith("elems:")


def test_oracles_on_known_answers():
    assert [oracle.bell(k) for k in range(1, 7)] == [1, 2, 5, 15, 52, 203]
    assert oracle.embeds("xy", "yx") and not oracle.embeds("xx", "xyz")
    assert oracle.partition_modular("12|3|4") and not oracle.partition_modular("12|34")


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(trace, section):
    p = run_bench("deduce", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = run_bench("deduce", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert "correct" not in p.stdout
