"""Each builtin name and each default bound has one home in the package."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import monvar
from monvar import cli
from monvar.words import Bounds
from monvar.lattices import FiniteLattice, named_lattice
from monvar.monoids import FiniteMonoid, named_monoid

PACKAGE = Path(monvar.__file__).parent


def _private_imports(path):
    """(module, name) for each _-prefixed name imported from another monvar module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("monvar"):
            continue
        found += [(node.module, a.name) for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    offenders = {p.name: _private_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


# the package's public names, by the submodule that defines each
_PUBLIC = {
    "words": "ALPHABET Bounds Identity ParseError Substitution apply_substitution content"
             " delete_letters embeds format_word initial_part occ parse_identity parse_word"
             " reverse",
    "deduction": "NO UNKNOWN YES Derivation DerivationError IdentitySystem RewriteStep"
                 " SearchResult check_derivation derivable expand load_identity_system"
                 " one_step_rewrites parse_identity_system system",
    "monoids": "FiniteMonoid IndexPeriod InvalidTable LikelyInfinite Presentation"
               " SearchCapExceeded UnsupportedPresentation cyclic_counter cyclic_group"
               " direct_product find_counterexample free_lrb_monoid from_presentation"
               " from_table is_commutative is_completely_regular load_monoid"
               " monoid_index_period named_monoid opposite parse_presentation parse_table"
               " presentation relatively_free",
    "varieties": "FAILS HOLDS Verdict VarietySpec catalog decide_identity enumerate_W"
                 " is_isoterm_power lookup membership_in_W model_contains_basis variety_A"
                 " variety_B variety_C variety_Z",
    "lattices": "Check CycleError ElementReport FiniteLattice NotALattice Partition"
                " all_partitions classify_element fixtures is_cancellable_element"
                " is_costandard_element is_distributive_lattice is_modular_element"
                " is_modular_lattice load_lattice jezek_modular named_lattice parse_lattice"
                " partition_lattice",
    "verify": "VerificationReport commutation_chain run_verification",
}


def test_the_package_surface_is_its_submodules_public_names():
    homes = {name: module for module, names in _PUBLIC.items() for name in names.split()}
    assert len(homes) == 91 and sorted(monvar.__all__) == sorted(homes)
    for name, module in homes.items():
        assert getattr(monvar, name) is getattr(getattr(monvar, module), name), name
    assert set(homes) <= set(dir(monvar))
    namespace = {}
    exec("from monvar import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(homes)
    with pytest.raises(AttributeError):
        monvar.no_such_name
    with pytest.raises(ImportError):
        exec("from monvar import no_such_name", {})


def test_the_package_reads_a_name_from_its_submodule_on_every_access(monkeypatch):
    # nothing is cached in the package, so a name replaced on its submodule
    # (here, or by a tracing wrapper) is seen at once and restored with it
    original = monvar.lookup
    with monkeypatch.context() as patch:
        patch.setattr(monvar.varieties, "lookup", len)
        assert monvar.lookup is len
    assert monvar.lookup is original
    assert "lookup" not in vars(monvar)


def test_numpy_is_bound_in_one_module():
    # every other module takes the lazily loaded numpy from that one
    binders = [p.name for p in sorted(PACKAGE.rglob("*.py"))
               if "import numpy" in p.read_text(encoding="utf-8")]
    assert len(binders) == 1, binders


# the catalog's monoid constructors and basis constants: verify reads the
# bases and models it checks through lookup instead
_CATALOG_INTERNALS = {"named_monoid", "cyclic_counter", "cyclic_group", "free_lrb_monoid",
                      "D_BASIS", "E_BASIS", "D2_BASIS", "RVROP_BASIS", "K_IDENTITY"}


def test_verify_reads_bases_and_models_from_the_catalog():
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert imported & _CATALOG_INTERNALS == set()


def _subparser(*path):
    parser = cli._build_parser()
    for name in path:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


def _option(parser, dest):
    return next(a for a in parser._actions if a.dest == dest)


def test_bound_defaults_come_from_bounds():
    defaults = Bounds()
    assert monvar.Bounds is monvar.words.Bounds is monvar.deduction.Bounds \
        is monvar.varieties.Bounds
    assert repr(defaults) == "Bounds(max_len=24, max_depth=48)"
    assert (Bounds.max_len, Bounds.max_depth) == (24, 48)
    # frozen, and equal and hashable by value
    assert Bounds(24, 48) == defaults and hash(Bounds(max_len=24)) == hash(defaults)
    assert len({Bounds(7, 10), Bounds(7, 10), defaults}) == 2
    assert Bounds(7, 10) != (7, 10)
    with pytest.raises(AttributeError, match="cannot assign to field 'max_len'"):
        defaults.max_len = 7
    assert defaults.max_len == 24
    params = inspect.signature(monvar.derivable).parameters
    assert params["max_len"].default == defaults.max_len
    assert params["max_depth"].default == defaults.max_depth
    for command in ("check", "derive"):
        parser = _subparser(command)
        assert _option(parser, "max_len").default == defaults.max_len
        assert _option(parser, "max_depth").default == defaults.max_depth


@pytest.mark.parametrize("variety, monoid", [
    ("D2", "D2"), ("R", "R"), ("Rop", "Rop"), ("RvRop", "RxRop"), ("LRB", "lrb:3"),
    ("C3", "counter:3"), ("A2", "group:2"), ("T", "group:1"),
])
def test_catalog_models_are_the_named_monoids(variety, monoid):
    assert monvar.lookup(variety).model is named_monoid(monoid)


# bench/spans.py buckets traced verdicts by these rule tags
_RULE_TAGS = {"LRB-ini", "COM-occ", "SL-content", "Cn-cappedocc", "Am-modocc",
              "finite-model", "deduction-only"}


def test_catalog_rule_tags_are_the_strings_the_trace_layer_reads():
    specs = [*monvar.catalog().values(),
             *(monvar.lookup(name) for name in ("C4", "B3", "A5", "Z:1:y"))]
    assert {spec.rule for spec in specs} <= _RULE_TAGS
    by_tag = {}
    for spec in specs:
        by_tag.setdefault(spec.rule, set()).add(spec.name)
    assert by_tag["finite-model"] == {"T", "D2", "R", "Rop", "RvRop"}
    assert by_tag["deduction-only"] == {"MON", "D", "E", "K", "Q", "B2", "B3", "Z:1:y"}


def test_every_traced_name_resolves_to_a_callable():
    # a traced benchmark run installs its wrappers through these names
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, (module, attr) in spans.TRACED.items():
        owner = importlib.import_module(module)
        if "." in attr:  # a method, looked up on its class
            cls_name, method = attr.split(".")
            target = vars(getattr(owner, cls_name)).get(method)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"{name}: {module}.{attr} does not resolve"


def _builtins(help_text):
    """Names listed as 'builtin (a, b, family:<n>) or a file', families at 3."""
    listed = re.search(r"builtin \((.*)\) or a file", help_text).group(1)
    return [re.sub(r"<\w>", "3", name) for name in listed.split(", ")]


def test_every_builtin_in_the_cli_help_resolves():
    for action in ("build", "satisfies", "info"):
        names = _builtins(_option(_subparser("monoid", action), "source").help)
        assert names == ["D2", "R", "Rop", "RxRop", "counter:3", "group:3", "lrb:3"]
        for name in names:
            assert isinstance(named_monoid(name), FiniteMonoid)
    names = _builtins(_option(_subparser("lattice"), "source").help)
    assert names == ["fig1", "fig2", "chainD", "part:3"]
    for name in names:
        assert isinstance(named_lattice(name), FiniteLattice)


def test_unknown_builtin_names_raise_keyerror_and_exit_65(capsys):
    for resolve in (named_monoid, named_lattice):
        with pytest.raises(KeyError):
            resolve("nosuch")
    assert cli.main(["monoid", "info", "nosuch"]) == 65
    assert cli.main(["lattice", "nosuch"]) == 65
    assert "neither a builtin lattice nor a readable file" in capsys.readouterr().err
    # a family name whose parameter is no integer is an unknown name too
    for name in ("counter:x", "group:", "lrb:y"):
        with pytest.raises(KeyError, match="unknown monoid"):
            named_monoid(name)
        assert cli.main(["monoid", "info", name]) == 65
        assert capsys.readouterr().err == (
            f"error: {name!r} is neither a builtin monoid nor a readable file\n")
    with pytest.raises(KeyError, match="unknown lattice"):
        named_lattice("part:x")
    assert cli.main(["lattice", "part:x"]) == 65
    assert capsys.readouterr().err == (
        "error: 'part:x' is neither a builtin lattice nor a readable file\n")
    # integers out of range keep their own messages
    assert cli.main(["monoid", "info", "counter:0"]) == 65
    assert "cyclic_counter needs n >= 1" in capsys.readouterr().err
    assert cli.main(["lattice", "part:7"]) == 65
    assert "supported for 1 <= k <= 6" in capsys.readouterr().err
