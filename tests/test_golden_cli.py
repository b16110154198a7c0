"""Replay the recorded CLI invocations in-process and compare their output.

``bench/golden/cli_pool.json`` holds the exit code and exact stdout of every
invocation the benchmark's cli workload runs.  Each is replayed through
``cli.main`` from the repository root, where the pool's relative paths
resolve.  The ``verify_paper`` probe is replayed on its own, so a failure
names it.
"""

import json
from pathlib import Path

from monvar.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _pool():
    return json.loads((ROOT / "bench" / "golden" / "cli_pool.json")
                      .read_text(encoding="utf-8"))


def test_golden_invocations_replay_identically(capsys, monkeypatch):
    pool = _pool()
    cases = pool["entries"] + [pool["probes"]["cold_start"]]
    assert len(cases) == 211
    monkeypatch.chdir(ROOT)
    mismatched = []
    for case in cases:
        code = main(list(case["args"]))
        if (code, capsys.readouterr().out) != (case["rc"], case["stdout"]):
            mismatched.append(" ".join(case["args"]))
    assert not mismatched, mismatched


def test_verify_paper_replays_identically(capsys):
    probe = _pool()["probes"]["verify_paper"]
    assert probe["args"] == ["verify-paper"]
    code = main(list(probe["args"]))
    assert (code, capsys.readouterr().out) == (probe["rc"], probe["stdout"])
