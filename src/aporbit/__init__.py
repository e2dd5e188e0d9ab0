"""Finite-state periodic approximation of iterated maps on [-1,1]^d.

The package quantizes orbits of Lipschitz self-maps of the box onto a
uniform grid, runs the observed state transitions as a finite chain
(eventually periodic, hence an exact finite sum of sinusoids), certifies
the approximation error, compares chains across resolution ladders, and
decomposes linear-recurrence orbits into an almost periodic part plus a
decaying remainder.
"""

from .analysis import (
    BoundReport,
    ConditionReport,
    LadderPlan,
    TailReport,
    build_ladder_plan,
    bounds_for_horizon,
    check_convergence_condition,
    condition_term,
    lcm_periods,
    reselect_T,
    sup_difference,
    tail_convergence,
    verify_error_bound,
)
from .armodel import (
    ARDecomposition,
    AlmostPeriodicSum,
    DecayingRemainder,
    RootSet,
    Term,
    characteristic_roots,
    classify,
    coefficients_from_roots,
    eval_terms,
    recursion,
    solve_coefficients,
    spec_from_roots,
    split,
    verify_decomposition,
)
from .core import (
    CLAMP_BAND,
    GridSpec,
    GridState,
    GridStates,
    OrbitSeries,
    Point,
    quantize,
)
from .errors import AporbitError
from .maps import (
    BUILTIN_MAPS,
    LipschitzEstimate,
    MapDefinition,
    RangeReport,
    ar_map,
    builtin_map,
    delay_map,
    estimate_lipschitz,
    expression_map,
    load_map,
    map_from_json,
    validate_range,
)
from .orbit import (
    CensusReport,
    ChainResult,
    Conflicts,
    TransitionTable,
    build_chain,
    build_transition_table,
    default_horizon,
    discretize_orbit,
    generate_orbit,
    period_census,
    run_pipeline,
    shadow_periodicity,
)
from .spectral import (
    TrigForm,
    eval_trig,
    eval_trig_range,
    fit_trig,
    fit_trig_samples,
)
from .expressions import parse_expression

__version__ = "0.1.0"
