"""behaveq: behavioural equivalences, liftings, quotients, and modal
logics for finite systems with side effects, over exact arithmetic."""

from .core import (
    BitRel,
    CapExceeded,
    Carrier,
    DimensionMismatch,
    GfpResult,
    Rational,
    Semilattice,
    Subspace,
    echelonize,
    gfp,
    parse_subset_label,
    refine,
    subset_label,
    subspace_contains,
)
from .equivalence import (
    CtsBisimResult,
    MachineEquiv,
    build_output_lts,
    cts_conditional_bisim,
    lwa_classes,
    lwa_observation_basis,
    lwa_pair,
    lwa_trace,
    lwa_unobservable_subspace,
    moore_equiv,
    moore_pair_oracle,
    nda_pair_oracle,
    ready_output,
    refusal_output,
)
from .liftings import (
    LawReport,
    NdaStepTable,
    Step,
    STOP,
    check_lifting_laws,
    cts_box,
    cts_dist_law,
    cts_rel_lift,
    lwa_det_step,
    lwa_dist_law,
    lwa_modality,
    nda_det_step,
    nda_dist_law,
    nda_modality,
)
from .logic import (
    CtsFormula,
    EquivReport,
    check_adequacy_expressivity,
    eval_cts,
    parse_cts_formula,
    parse_word,
    render_word,
    theory_word,
)
from .quotient import (
    ClosureViolation,
    RespectingAutomaton,
    build_respecting_automaton,
    redundant_members,
    respecting_subsets,
    verify_witness_homomorphism,
)
from .systems import (
    Cts,
    DeterminizedMachine,
    Lwa,
    Nda,
    OutputLts,
    eval_word,
    forward_determinize,
    lattice_lts,
    moore_determinize,
)

__version__ = "0.1.0"
