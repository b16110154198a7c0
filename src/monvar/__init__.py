"""Workbench for equational reasoning about monoid varieties.

Words over a fixed alphabet, identities and bounded one-step deduction;
finite monoids from presentations or tables with brute-force identity
checking; a catalog of named varieties with exact or bounded word
problems; and finite lattices with tests for modular, cancellable and
costandard elements.
"""

from .words import (
    ALPHABET,
    Identity,
    ParseError,
    Substitution,
    apply_substitution,
    content,
    delete_letters,
    embeds,
    format_word,
    initial_part,
    occ,
    parse_identity,
    parse_word,
    reverse,
)
from .deduction import (
    NO,
    UNKNOWN,
    YES,
    Bounds,
    Derivation,
    DerivationError,
    IdentitySystem,
    RewriteStep,
    SearchResult,
    check_derivation,
    derivable,
    expand,
    load_identity_system,
    one_step_rewrites,
    parse_identity_system,
    system,
)
from .monoids import (
    FiniteMonoid,
    IndexPeriod,
    InvalidTable,
    LikelyInfinite,
    Presentation,
    SearchCapExceeded,
    UnsupportedPresentation,
    cyclic_counter,
    cyclic_group,
    direct_product,
    find_counterexample,
    free_lrb_monoid,
    from_presentation,
    from_table,
    is_commutative,
    is_completely_regular,
    load_monoid,
    monoid_index_period,
    named_monoid,
    opposite,
    parse_presentation,
    parse_table,
    presentation,
)
from .varieties import (
    FAILS,
    HOLDS,
    Verdict,
    VarietySpec,
    catalog,
    decide_identity,
    enumerate_W,
    is_isoterm_power,
    lookup,
    membership_in_W,
    model_contains_basis,
    variety_A,
    variety_B,
    variety_C,
    variety_Z,
)
from .lattices import (
    Check,
    CycleError,
    ElementReport,
    FiniteLattice,
    NotALattice,
    Partition,
    all_partitions,
    classify_element,
    fixtures,
    is_cancellable_element,
    is_costandard_element,
    is_distributive_lattice,
    is_modular_element,
    is_modular_lattice,
    load_lattice,
    jezek_modular,
    named_lattice,
    parse_lattice,
    partition_lattice,
)
from .verify import VerificationReport, commutation_chain, run_verification

__version__ = "0.1.0"
