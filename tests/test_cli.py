"""Exit codes and printed output of the command line front end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import monvar
from monvar.cli import main

SRC = str(Path(monvar.__file__).resolve().parents[1])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_holds(capsys):
    code, out, _ = run(capsys, "check", "LRB", "xy=xyx")
    assert code == 0
    assert "holds" in out


def test_check_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check", "C2", "x=x2")
    assert code == 1
    assert "fails" in out
    assert "x -> a" in out


def test_check_com_witness_beyond_search_cap_is_built(capsys):
    # 201^4 cells is past the guard, but the rule names the witness
    code, out, _ = run(capsys, "check", "COM", "x200yzt=yzt")
    assert code == 1
    assert "counterexample: t -> 1, x -> a, y -> 1, z -> 1" in out
    code, out, _ = run(capsys, "check", "COM", "x30yzt=yzt")
    assert code == 1
    assert "counterexample: t -> 1, x -> a, y -> 1, z -> 1" in out


def test_lrb_failure_names_its_counterexample_in_the_model(capsys):
    code, out, _ = run(capsys, "check", "LRB", "xy=yx")
    assert code == 1
    assert out == ("LRB |- xy=yx: fails\n  initial parts differ: xy vs yx\n"
                   "  counterexample: x -> x, y -> y\n")


def test_check_rule_verdict_searches_its_model_up_to_the_guard(capsys):
    # 16^6 cells: inside the shared 2*10^8 guard, so the witness is printed
    code, out, _ = run(capsys, "check", "LRB", "xyztab=yxztab")
    assert code == 1
    assert "counterexample: a -> 1, b -> 1, t -> 1, x -> x, y -> y, z -> 1" in out
    # 16^7 cells: past the guard, the rule's verdict stands without a witness
    code, out, _ = run(capsys, "check", "LRB", "xyztabc=yxztabc")
    assert code == 1
    assert "fails" in out
    assert "counterexample:" not in out


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@pytest.mark.parametrize("variety, letters, image", [
    ("SL", _LETTERS, "e"), ("A2", _LETTERS, "g"), ("C2", _LETTERS[:16], "a")])
def test_check_rule_witness_over_many_letters(capsys, variety, letters, image):
    # the witness sends the missing letter a to the generator: a cube of 2^26
    # or 3^16 cells holds it, and the rule names it without a scan
    code, out, _ = run(capsys, "check", variety, f"{letters[1:]}={letters}")
    assert code == 1
    rest = ", ".join(f"{c} -> 1" for c in letters[1:])
    assert out.splitlines()[-1] == f"  counterexample: a -> {image}, {rest}"


def test_check_com_witness_past_the_element_cap_is_built(capsys):
    # counter:20001 is past from_presentation's cap, but the witness comes
    # from the occurrence counts capped at 20001, with no table
    code, out, _ = run(capsys, "check", "COM", "x20000=1")
    assert code == 1
    assert out.splitlines()[-1] == "  counterexample: x -> a"


def test_check_group_identity(capsys):
    code, out, _ = run(capsys, "check", "A2", "x2y=y")
    assert code == 0


@pytest.mark.parametrize("variety, ident, code, stdout", [
    ("COM", "xyx=x2y", 0, "COM |- xyx=x2y: holds\n  equal occurrence counts\n"),
    ("COM", "x2y=xy", 1, "COM |- x2y=xy: fails\n  occurrence counts differ at x\n"
                         "  counterexample: x -> a, y -> 1\n"),
    ("C3", "x4y=yx3", 0, "C3 |- x4y=yx3: holds\n  occurrence counts agree capped at 3\n"),
    ("C3", "x2y=xy", 1, "C3 |- x2y=xy: fails\n  occurrence counts differ capped at 3\n"
                        "  counterexample: x -> a, y -> 1\n"),
    ("LRB", "xy=xyx", 0, "LRB |- xy=xyx: holds\n  equal initial parts (xy)\n"),
    ("A2", "x2y=y", 0, "A2 |- x2y=y: holds\n  occurrence counts agree mod 2\n"),
])
def test_check_prints_each_rule_reason(capsys, variety, ident, code, stdout):
    assert run(capsys, "check", variety, ident)[:2] == (code, stdout)


def test_check_unknown_verdict(capsys):
    code, out, _ = run(capsys, "check", "K", "y2xy2=xy4",
                       "--max-len", "6", "--max-depth", "2")
    assert code == 2
    assert "unknown" in out


def test_check_mon_is_rejected_with_explanation(capsys):
    code, _, err = run(capsys, "check", "MON", "x=x")
    assert code == 64
    assert "trivial" in err or "MON" in err


def test_check_unknown_variety(capsys):
    code, _, err = run(capsys, "check", "XYZZY", "x=x")
    assert code == 65
    # a Z family name whose parameter is no integer is an unknown name too
    code, out, err = run(capsys, "check", "Z:a:x", "x=y")
    assert code == 65 and not out
    assert err == "error: unknown variety 'Z:a:x'\n"


def test_check_bad_identity(capsys):
    code, _, err = run(capsys, "check", "SL", "xy")
    assert code == 65
    # an exponent past the index size names its term, with no traceback
    code, out, err = run(capsys, "check", "D", "x99999999999999999999=y")
    assert code == 65 and not out
    assert err == "error: exponent too large in 'x99999999999999999999'\n"


def test_derive_two_step(capsys, tmp_path):
    f = tmp_path / "sigma.ids"
    f.write_text("x3yz = yxzx\n")
    code, out, _ = run(capsys, "derive", "x2y", "yx2", "--system", str(f),
                       "--max-len", "8", "--max-depth", "6")
    assert code == 0
    assert "2 steps" in out
    assert out.splitlines()[1:] == ["  x2y", "  x3y", "  yx2"]


def test_derive_no_within_bounds(capsys, tmp_path):
    f = tmp_path / "cube.ids"
    f.write_text("x2 = x3\n")
    code, out, _ = run(capsys, "derive", "x", "y", "--system", str(f))
    assert code == 1
    assert "no" in out


def test_derive_unknown_at_depth_zero(capsys, tmp_path):
    f = tmp_path / "cube.ids"
    f.write_text("x2 = x3\n")
    code, out, _ = run(capsys, "derive", "x2", "x3", "--system", str(f),
                       "--max-depth", "0")
    assert code == 2
    assert "unknown" in out


def test_derive_with_a_repeated_name_line_exits_65(capsys, tmp_path):
    f = tmp_path / "cube.ids"
    f.write_text("name: A\nname: B\nx2 = x3\n")
    code, out, err = run(capsys, "derive", "x2", "x3", "--system", str(f))
    assert code == 65 and not out
    assert err == "error: duplicate name: line\n"


def test_derive_named_system(capsys):
    code, out, _ = run(capsys, "derive", "x3yz", "yxzx", "--system", "D",
                       "--max-len", "8", "--max-depth", "6")
    assert code == 0


def test_derive_system_takes_a_catalog_name_before_a_file(capsys, tmp_path, monkeypatch):
    (tmp_path / "D").write_text("xy=yx\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "derive", "xy", "yx", "--system", "D")
    assert code == 1 and out.startswith("no-within-bounds")


def test_derive_from_a_model_defined_variety_exits_65(capsys):
    code, out, err = run(capsys, "derive", "xy", "yx", "--system", "R")
    assert code == 65 and not out
    assert err == "error: variety R is model-defined and has no identity basis to derive from\n"


def test_running_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setattr(monvar.varieties, "decide_identity", exhausted)
    code, out, err = run(capsys, "check", "COM", "x2=1")
    assert code == 3 and not out
    assert err == "resource limit: out of memory\n"


@pytest.mark.parametrize("argv, term", [
    (["check", "COM", "x999999999999999=1"], "x999999999999999"),
    (["check", "D", "x999999999=y"], "x999999999"),
    (["preceq", "x99999999", "y"], "x99999999"),
    # the terms' lengths are summed: each half fits, the word does not
    (["preceq", "x", "y524288x524288y"], "y"),
    # family parameters are word lengths too: x^m of A<m>, x^(n+2) of Z:<n>:<v>
    (["check", "A999999999", "x=x"], "x999999999"),
    (["check", "Z:999999999:y", "x=y"], "x1000000001"),
])
def test_words_past_the_length_limit_exit_65_before_they_are_built(capsys, argv, term):
    code, out, err = run(capsys, *argv)
    assert code == 65 and not out
    assert err == f"error: word longer than MAX_WORD_LEN = 1048576 letters at {term!r}\n"


def test_preceq(capsys):
    code, out, _ = run(capsys, "preceq", "xy", "yx")
    assert code == 0
    code, out, _ = run(capsys, "preceq", "x2", "xy")
    assert code == 1
    code, _, err = run(capsys, "preceq", "1", "xy")
    assert code == 65


def test_monoid_build(capsys):
    code, out, _ = run(capsys, "monoid", "build", "D2")
    assert code == 0
    assert "7 elements" in out
    assert "aba" in out


def test_monoid_build_from_file(capsys, tmp_path):
    f = tmp_path / "free.pres"
    f.write_text("gens: a\n")
    code, _, err = run(capsys, "monoid", "build", str(f))
    assert code == 3  # free on one generator: the enumeration cap trips


def test_monoid_satisfies(capsys):
    code, out, _ = run(capsys, "monoid", "satisfies", "RxRop", "x3yzt=yxzxtx")
    assert code == 0
    code, out, _ = run(capsys, "monoid", "satisfies", "counter:2", "x=x2")
    assert code == 1
    assert "x -> a" in out


def test_monoid_satisfies_a_trivial_identity_past_the_guard(capsys):
    # 65^5 cells, but both sides are the same word: nothing is scanned
    code, out, err = run(capsys, "monoid", "satisfies", "lrb:4", "abcde=abcde")
    assert code == 0 and not err
    assert out == "lrb:4 satisfies abcde=abcde\n"


def test_guard_message_names_the_cube_the_limit_and_the_flag(capsys):
    code, out, err = run(capsys, "monoid", "satisfies", "lrb:4", "abcde=edcba")
    assert code == 3 and not out
    assert "65^5 = 1160290625 cells" in err
    assert "2*10^8 cells" in err
    assert "monoid satisfies --allow-large" in err


def test_products_decide_holding_identities_on_their_factors(capsys):
    # 49^5 cells on RxRop, 7^5 on each of R and Rop: the identity holds in both
    code, out, _ = run(capsys, "check", "RvRop", "x4yzta=x3yzta")
    assert code == 0
    assert "holds in the generating monoid of order 49" in out
    # a failing identity still needs the product's own cube for its witness
    code, out, err = run(capsys, "monoid", "satisfies", "RxRop", "xyzta=yxzta")
    assert code == 3 and not out
    assert "49^5" in err


def test_monoid_info(capsys):
    code, out, _ = run(capsys, "monoid", "info", "counter:2")
    assert code == 0
    assert "index 2" in out and "period 1" in out
    code, out, _ = run(capsys, "monoid", "info", "group:3")
    assert "period 3" in out


def test_monoid_builtins_past_the_element_cap(capsys):
    code, out, err = run(capsys, "monoid", "info", "counter:20000")
    assert code == 3 and not out
    assert "more than 10000" in err
    code, out, err = run(capsys, "monoid", "info", "lrb:8")
    assert code == 65 and not out
    assert err == "error: free_lrb_monoid needs 1 <= k <= 6\n"


def test_monoid_table_with_a_repeated_one_line_exits_65(capsys, tmp_path):
    table = tmp_path / "two.tab"
    table.write_text("1 e\n1 e\ne e\none: 1\none: e\n")
    code, out, err = run(capsys, "monoid", "info", str(table))
    assert code == 65 and not out
    assert err == "error: duplicate one: line\n"


def test_monoid_unknown_name(capsys):
    code, _, err = run(capsys, "monoid", "build", "nosuch")
    assert code == 65


def test_lattice_global(capsys):
    code, out, _ = run(capsys, "lattice", "fig2", "--global")
    assert code == 0
    assert "modular: yes" in out
    assert "distributive: no" in out
    assert "D2" in out and "Rop" in out


def test_lattice_element_flag(capsys):
    code, out, _ = run(capsys, "lattice", "fig1", "--element", "x", "--cancellable")
    assert code == 0
    code, out, _ = run(capsys, "lattice", "fig1", "--element", "x∨y", "--cancellable")
    assert code == 1
    assert "witness" in out


@pytest.mark.parametrize("flags", [(), ("--modular",)])
def test_lattice_unknown_element(capsys, flags):
    # with or without a property flag, the one report names the element
    code, out, err = run(capsys, "lattice", "fig1", "--element", "nosuch", *flags)
    assert (code, out, err) == (65, "", "error: no element named 'nosuch'\n")


def test_lattice_element_report(capsys):
    code, out, _ = run(capsys, "lattice", "fig1", "--element", "xvy")
    assert code == 0
    assert "modular: yes" in out
    assert "cancellable: no" in out


def test_lattice_classify_all(capsys):
    code, out, _ = run(capsys, "lattice", "chainD")
    assert code == 0
    assert out.count("cancellable=yes") == 4


def test_lattice_count_modular(capsys):
    code, out, _ = run(capsys, "lattice", "part:4", "--count-modular")
    assert code == 0
    assert "12 of 15" in out


def test_lattice_flag_without_element_is_usage_error(capsys):
    code, _, err = run(capsys, "lattice", "fig1", "--cancellable")
    assert code == 64


def test_lattice_bad_file(capsys, tmp_path):
    f = tmp_path / "bow.lat"
    f.write_text("elems: a b c d\ncover: a < c\ncover: a < d\n"
                 "cover: b < c\ncover: b < d\n")
    code, _, err = run(capsys, "lattice", str(f), "--global")
    assert code == 65
    code, _, err = run(capsys, "lattice", str(tmp_path / "missing.lat"), "--global")
    assert code == 65


def test_lattice_part_out_of_range(capsys):
    code, _, err = run(capsys, "lattice", "part:7", "--count-modular")
    assert code == 65


@pytest.mark.parametrize("flag", ["--max-len", "--max-depth"])
@pytest.mark.parametrize("command", [("check", "D", "x2y=xyx"),
                                     ("derive", "x2y", "xyx", "--system", "D")])
def test_negative_or_non_integer_bounds_are_usage_errors(capsys, command, flag):
    for value in ("-1", "-2", "1.5", "many"):
        code, out, err = run(capsys, *command, flag, value)
        assert (code, out) == (64, ""), value
        assert f"argument {flag}: " in err
    code, _, _ = run(capsys, *command, flag, "0")
    assert code != 64


def test_usage_error_on_unknown_command(capsys):
    assert main(["frobnicate"]) == 64
    capsys.readouterr()


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("CHECK ")]
    assert len(lines) == 11
    assert all(ln.endswith(" pass") for ln in lines)


def test_deterministic_output(capsys):
    first = run(capsys, "lattice", "part:5", "--count-modular")
    second = run(capsys, "lattice", "part:5", "--count-modular")
    assert first == second
    a = run(capsys, "check", "COM", "xyx=x2y")
    b = run(capsys, "check", "COM", "xyx=x2y")
    assert a == b


def test_verify_paper_reports_a_broken_fact_under_python_O():
    # python -O strips assert statements; a check must still fail when
    # its fact is false
    script = "\n".join([
        "import sys",
        "from monvar import cli, verify",
        "from monvar.lattices import Check",
        "verify.is_modular_lattice = lambda lat: Check(False, ('a', 'b', 'c'))",
        "verify.CHECKS = [c for c in verify.CHECKS if c[0] == 'fig2-modular-not-distributive']",
        "sys.exit(cli.main(['verify-paper']))",
    ])
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert "CHECK fig2-modular-not-distributive fail" in lines
    assert "       expected a modular lattice, witness ('a', 'b', 'c')" in lines


def test_verify_paper_builds_a_failure_message_inside_a_loop(monkeypatch, capsys):
    # the text is built only when the check fails, and then in full
    from monvar import verify
    from monvar.words import format_word
    monkeypatch.setattr(verify, "one_step_rewrites", lambda word, ksys, max_len: ["xx"])
    monkeypatch.setattr(verify, "CHECKS", [c for c in verify.CHECKS
                                           if c[0] == "w-family-one-step-stability"])
    code, out, _ = run(capsys, "verify-paper")
    assert code == 1
    first = format_word(verify.enumerate_W((2, 3))[0])
    assert f"       {first} rewrites outside the family to x2" in out.splitlines()


# word-level commands never touch a table, so they never execute numpy; a
# fresh interpreter each, since monoids and catalog entries are cached per
# process
@pytest.mark.parametrize("argv, loads_numpy", [
    (["preceq", "xy", "yx"], False),
    (["derive", "x3y", "x4y", "--system", "D", "--max-len", "7", "--max-depth", "4"], False),
    (["check", "D", "x3y=x4y"], False),
    (["monoid", "info", "D2"], True),
    # refutations in the cyclic commutative models come from occurrence counts
    (["check", "Q", "y3=x"], False),
    (["check", "COM", "x20000=1"], False),
    # and so do the verdicts and witnesses of SL, A<m> and C<n>, whose
    # generating monoids are built only when read
    (["check", "SL", "x2=x2y"], False),
    (["check", "A3", "y=x"], False),
    (["check", "C2", "x=x2"], False),
    # catalog models are built on first read: an LRB verdict that holds and a
    # derivation from a model entry's basis read none, a failure names its
    # counterexample in the LRB model
    (["check", "LRB", "xy=xyx"], False),
    (["derive", "x3", "x2", "--system", "D2"], False),
    (["check", "LRB", "xy=yx"], True),
])
def test_only_table_commands_execute_numpy(argv, loads_numpy):
    script = "\n".join([
        "import sys",
        "from monvar.cli import main",
        "code = main(sys.argv[1:])",
        "print('numpy._core' in sys.modules)",
        "sys.exit(code)",
    ])
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode in (0, 1) and not done.stderr, done.stderr  # holds or fails
    assert done.stdout.splitlines()[-1] == str(loads_numpy)


# bench/spans.py Tracer.install reads sys.modules["monvar.<module>"] for each
# traced module, so importing the package registers all six; their code runs
# only when a command reads them.  A module not yet executed still has the
# lazy loader's own type, and reading its type does not load it.  The script
# prints the exit code, whether the command imported dataclasses (a site
# hook may have imported it before monvar), and each module that ran.
_CONTRACT = """
import sys, types
SUBMODULES = ("words", "deduction", "monoids", "varieties", "lattices", "verify")
def ran(name):
    return type(sys.modules.get(name)) is types.ModuleType
had_dataclasses = "dataclasses" in sys.modules
import monvar
assert all("monvar." + m in sys.modules for m in SUBMODULES)
assert not any(ran("monvar." + m) for m in SUBMODULES)
from monvar.cli import main
code = main(sys.argv[1:])
print(code, "dataclasses" in sys.modules and not had_dataclasses,
      *[m for m in SUBMODULES if ran("monvar." + m)], *(["numpy"] if ran("numpy") else []))
"""


# every command runs words, and nothing outside the modules it may run
@pytest.mark.parametrize("argv, code, may_run", [
    (["preceq", "xy", "yx"], 0, {"words"}),
    # a failure may run monoids to name its exception, but no numpy
    (["preceq", "x0", "y"], 65, {"words", "monoids"}),
    (["monoid", "info", "D2"], 0, {"words", "monoids", "numpy"}),
    (["lattice", "fig2"], 0, {"words", "lattices", "numpy"}),
    (["derive", "x3y", "x4y", "--system", "D", "--max-len", "7", "--max-depth", "4"], 0,
     {"words", "deduction", "varieties"}),
    (["check", "Q", "y3=x"], 1, {"words", "deduction", "varieties"}),
    (["check", "SL", "x2=x2y"], 1, {"words", "deduction", "varieties"}),
])
def test_import_registers_every_submodule_and_preceq_runs_only_the_word_ones(
        argv, code, may_run):
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", _CONTRACT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()[-1].split()
    assert printed[0] == str(code)
    assert "words" in printed[2:] and set(printed[2:]) <= may_run
    if may_run == {"words"}:  # the word layer alone imports no dataclasses
        assert printed[1] == "False"
