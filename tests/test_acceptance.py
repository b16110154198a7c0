"""Acceptance gate: fourteen end-to-end criteria with pinned time budgets.

Criteria 01-11 time the eleven checks of ``monvar.verify.CHECKS``, which hold
every assertion; criterion 12 runs ``monvar verify-paper`` through the CLI;
criterion 13 runs ``monvar check`` where a rule names the witness; criterion
14 counts the modular elements of the largest bundled lattice, part:6.
Each test prints one pass/fail line (run with -s or -rA to see them all).
"""

import time

import pytest

from monvar import cli
from monvar.varieties import lookup
from monvar.verify import CHECKS

_CHECKS = {name: (anchor, check) for name, anchor, check in CHECKS}

# check name -> (criterion number, budget in seconds); the budgets are a
# ceiling and are never raised
CRITERIA = {
    "fig1-join-not-cancellable": (1, 1.0),
    "fig2-modular-not-distributive": (2, 1.0),
    "partition-modular-criterion": (3, 10.0),
    "lrb-initial-part-rule": (4, 30.0),
    "abelian-occurrence-rule": (5, 10.0),
    "presented-monoid-bases": (6, 60.0),
    "d-single-identity-basis": (7, 30.0),
    "p-to-q-commutation-chain": (8, 30.0),
    "w-family-one-step-stability": (9, 120.0),
    "isoterm-power-criterion": (10, 5.0),
    "word-algebra-laws": (11, 10.0),
}


def _report(num, label, limit, fn):
    t0 = time.perf_counter()
    detail = None
    try:
        detail = fn() or ""
    finally:
        dt = time.perf_counter() - t0
        status = "pass" if detail is not None and dt <= limit else "FAIL"
        suffix = f" [{detail}]" if detail else ""
        print(f"ACCEPTANCE {num:02d} {status} ({dt:.2f}s, limit {limit}s) {label}{suffix}")
    assert dt <= limit, f"criterion {num} took {dt:.2f}s, over its {limit}s budget"


def _criterion(name):
    """Time the verify check `name` under the budget of its criterion."""
    num, limit = CRITERIA[name]
    anchor, check = _CHECKS[name]
    _report(num, anchor, limit, check)


def test_every_verify_check_has_a_budget():
    assert sorted(CRITERIA) == sorted(_CHECKS)


def test_criterion_01_fig1_cancellable_elements():
    _criterion("fig1-join-not-cancellable")


def test_criterion_02_fig2_modular_not_distributive():
    _criterion("fig2-modular-not-distributive")


def test_criterion_03_partition_modular_rule():
    _criterion("partition-modular-criterion")


def test_criterion_04_lrb_rule_vs_free_model():
    _criterion("lrb-initial-part-rule")


def test_criterion_05_abelian_rule_vs_groups():
    _criterion("abelian-occurrence-rule")


def test_criterion_06_basis_identities_hold_in_models():
    _criterion("presented-monoid-bases")


def test_criterion_07_single_identity_basis_for_d():
    _criterion("d-single-identity-basis")


def test_criterion_08_transcribed_commutation_chain():
    _criterion("p-to-q-commutation-chain")


def test_criterion_09_w_family_closed_under_one_step():
    _criterion("w-family-one-step-stability")


def test_criterion_10_isoterm_power_criterion():
    _criterion("isoterm-power-criterion")


def test_criterion_11_word_algebra_laws():
    _criterion("word-algebra-laws")


# CLI runs whose witness a decision rule names -> budget in seconds; a scan of
# the assignment cube took 0.2-0.8 s on each
RULE_WITNESS_RUNS = {
    ("check", "SL", "bcdefghijklmnopqrstuvwxyz=abcdefghijklmnopqrstuvwxyz"): 0.1,
    ("check", "A2", "bcdefghijklmnopqrstuvwxyz=abcdefghijklmnopqrstuvwxyz"): 0.1,
    ("check", "C2", "bcdefghijklmnop=abcdefghijklmnop"): 0.1,
}


@pytest.mark.parametrize("argv", RULE_WITNESS_RUNS)
def test_criterion_13_rule_witnesses_are_built(capsys, argv):
    assert lookup(argv[1]).model is not None  # built before the clock starts

    def body():
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        assert code == 1 and "counterexample: a -> " in out
        return "exit 1 with the witness"

    _report(13, f"monvar {' '.join(argv)[:40]}", RULE_WITNESS_RUNS[argv], body)


def test_criterion_12_verify_paper_command(capsys):
    def body():
        code = cli.main(["verify-paper"])
        out = capsys.readouterr().out
        checks = [ln for ln in out.splitlines() if ln.startswith("CHECK ")]
        assert code == 0
        assert len(checks) == 11
        assert all(ln.endswith(" pass") for ln in checks)
        return "exit 0, all 11 checks pass"

    _report(12, "the verify-paper command reruns every check", 300.0, body)


def test_criterion_14_largest_partition_lattice(capsys):
    def body():
        code = cli.main(["lattice", "part:6", "--count-modular"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "58 of 203 elements are modular\n"
        return "exit 0, 58 of 203 modular"

    _report(14, "monvar lattice part:6 --count-modular", 1.0, body)
