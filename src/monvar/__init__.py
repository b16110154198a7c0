"""Workbench for equational reasoning about monoid varieties.

Words over a fixed alphabet, identities and bounded one-step deduction;
finite monoids from presentations or tables with brute-force identity
checking; a catalog of named varieties with exact or bounded word
problems; and finite lattices with tests for modular, cancellable and
costandard elements.

Importing the package runs none of its submodules.  Each is bound here
and in `sys.modules` from the start, and its code runs when an attribute
of it is first read; a public name such as `monvar.lookup` is read from
its submodule on every access, so a command runs only the modules it
touches.
"""

from .lazy import load_on_first_use

# each submodule and the public names the package re-exports from it
_PUBLIC = {
    "words": (
        "ALPHABET", "Bounds", "Identity", "ParseError", "Substitution",
        "apply_substitution", "content", "delete_letters", "embeds", "format_word",
        "initial_part", "occ", "parse_identity", "parse_word", "reverse",
    ),
    "deduction": (
        "NO", "UNKNOWN", "YES", "Derivation", "DerivationError", "IdentitySystem",
        "RewriteStep", "SearchResult", "check_derivation", "derivable",
        "expand", "load_identity_system", "one_step_rewrites", "parse_identity_system",
        "system",
    ),
    "monoids": (
        "FiniteMonoid", "IndexPeriod", "InvalidTable", "LikelyInfinite", "Presentation",
        "SearchCapExceeded", "UnsupportedPresentation", "cyclic_counter", "cyclic_group",
        "direct_product", "find_counterexample", "free_lrb_monoid", "from_presentation",
        "from_table", "is_commutative", "is_completely_regular", "load_monoid",
        "monoid_index_period", "named_monoid", "opposite", "parse_presentation",
        "parse_table", "presentation", "relatively_free",
    ),
    "varieties": (
        "FAILS", "HOLDS", "Verdict", "VarietySpec", "catalog", "decide_identity",
        "enumerate_W", "is_isoterm_power", "lookup", "membership_in_W",
        "model_contains_basis", "variety_A", "variety_B", "variety_C", "variety_Z",
    ),
    "lattices": (
        "Check", "CycleError", "ElementReport", "FiniteLattice", "NotALattice",
        "Partition", "all_partitions", "classify_element", "fixtures",
        "is_cancellable_element", "is_costandard_element", "is_distributive_lattice",
        "is_modular_element", "is_modular_lattice", "load_lattice", "jezek_modular",
        "named_lattice", "parse_lattice", "partition_lattice",
    ),
    "verify": ("VerificationReport", "commutation_chain", "run_verification"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = list(_HOME)

words = load_on_first_use(__name__ + ".words")
deduction = load_on_first_use(__name__ + ".deduction")
monoids = load_on_first_use(__name__ + ".monoids")
varieties = load_on_first_use(__name__ + ".varieties")
lattices = load_on_first_use(__name__ + ".lattices")
verify = load_on_first_use(__name__ + ".verify")

__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: a name replaced on its submodule (a test's
    # monkeypatch, a tracing wrapper) is seen here at once and restored
    # with it
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *__all__})
