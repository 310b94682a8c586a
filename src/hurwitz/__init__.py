"""Computing with permutation factorizations under the braid moves.

Core layers: :mod:`~hurwitz.perms` (exact permutation arithmetic and
conjugacy classes), :mod:`~hurwitz.words` (factorization words, the two local
moves, type vectors), :mod:`~hurwitz.orbits` (orbit enumeration, equivalence
certificates, fiber counting), :mod:`~hurwitz.class_metrics` (per-class
constants and the stability bound), :mod:`~hurwitz.constructions` (explicit
stable words and desk-scale claim certification), and
:mod:`~hurwitz.reports` / :mod:`~hurwitz.cli` (report assembly, caching, the
command line).
"""
# Set before the submodule imports: the result cache key reads it.
__version__ = "0.1.0"

from .perms import (
    CycleType,
    LimitExceededError,
    Perm,
    all_cycle_types,
    class_elements,
    class_size,
    closure,
    is_transitive,
    parse_cycle_type,
    format_cycle_type,
    transpositions,
    validate_cycle_type,
)
from .words import Factorization, Move, State, TypeVector, load_words, save_words
from .orbits import (
    EquivalenceReport,
    FiberOrbitReport,
    FiberSpec,
    OrbitReport,
    ScanRow,
    SearchLimits,
    are_equivalent,
    count_orbits,
    count_orbits_in_fiber,
    enumerate_fiber,
    enumerate_orbit,
    orbit_partition_by_sweeps,
    stable_length_scan,
)
from .class_metrics import (
    ClassMetrics,
    MinWordResult,
    compute_class_metrics,
    generates_full_group,
    min_factors_to_transposition,
    min_factors_to_transposition_fixing,
    stability_bound,
)
from .constructions import (
    ClaimReport,
    ClaimRow,
    ConstructionContext,
    TailReport,
    block_shift_left_cert,
    block_shift_right_cert,
    centralizer_invariant,
    check_braid_relations,
    check_centralizer_invariance,
    check_conjugation_classes,
    check_defining_relation,
    check_length_formulas,
    check_stable_tail,
    conjugator,
    embedded_ladder_cube,
    embedded_transposition,
    ladder_cube,
    rewrite_with_stable_tail,
    square_ladder,
    transposition_word,
)
from .reports import ComponentQuery, RunConfig, count_components, theorem_report

