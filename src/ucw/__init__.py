"""ucw: a workbench for union-closed set families.

Value types and predicates (:mod:`ucw.core`), staircase structure analysis
(:mod:`ucw.structure`), named constructions and bounds
(:mod:`ucw.constructions`), exhaustive search for the minimal maximal
frequency (:mod:`ucw.phisearch`), and a text interchange format
(:mod:`ucw.familyfile`) behind the ``ucw`` command line.
"""

from .constructions import (
    BetaDecomposition,
    BlockUpsetParams,
    EntropyCheck,
    EpsilonReport,
    PadParams,
    balanced_deletion,
    beta,
    binary_entropy,
    block_upset_family,
    conway,
    conway_properties,
    entropy_binomial_check,
    entropy_binomial_sweep,
    epsilon_bound_check,
    gap_report,
    hole_levels,
    pad_family,
    renaud_family,
    size_multiset_dominance,
    two_block_family,
    up_set,
)
from .core import (
    CapacityError,
    ConjectureVerdict,
    DomainError,
    Family,
    basis_sets,
    check_conjecture,
    close_under_union,
    elements_of,
    frequencies,
    is_separating,
    is_union_closed,
    mask_of,
    max_frequency,
    power_set_family,
    restrict,
    separating_quotient,
    universe_of,
)
from .familyfile import FamilyParseError, parse_family, serialize_family
from .phisearch import (
    PhiTableRow,
    SearchConfig,
    SearchResult,
    phi_naive,
    phi_search,
    verify_phi_table,
)
from .structure import (
    AuditReport,
    STable,
    corollary1_witness,
    dominates,
    frequency_order_relabel,
    lemma1_witness,
    minimal_counterexample_audit,
    s_collection,
    s_frequency_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
