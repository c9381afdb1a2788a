"""Distributed rateless erasure codes for path tracing.

A code here is an XDD sequence mu_1..mu_K (one XOR degree distribution per
path length).  The package checks which sequences are realizable by
stateless per-hop Add/Skip/Replace actions, derives the per-hop action
probabilities, runs the degree-based and table-based encoders, decodes by
hash replay plus peeling, searches for efficient codes, and measures
coding efficiency against the PINT baseline.
"""

__version__ = "0.1.0"

from .xdd import (  # noqa: F401
    Xdd,
    XddSequence,
    QValue,
    binomial_log,
    mu_to_q,
    validate_xdd,
    read_sequence,
    write_sequence,
)
from .distributions import (  # noqa: F401
    PintParams,
    expand_invariant,
    ideal_soliton,
    ideal_soliton_sequence,
    pint_sequence,
    pint_xdd,
    robust_soliton,
    shifted_soliton,
    shifted_soliton_sequence,
)
from .feasibility import (  # noqa: F401
    Apa,
    FeasibilityReport,
    Violation,
    check_feasible,
    check_invariant_feasible,
    derive_apa,
    exact_induced_sequence,
    read_apa,
    write_apa,
)
from .protocol import (  # noqa: F401
    Avst,
    GlobalHash,
    Packet,
    generate_avst,
    hash_uniform,
    read_avst,
    row_select,
    step_recipe_d,
    step_recipe_t,
    write_avst,
)
from .decoder import (  # noqa: F401
    DecodeResult,
    PeelingState,
    ReceivedCodeword,
    decode_stream,
    peel_insert,
    replay_xor_set,
)
from .search import (  # noqa: F401
    MeanFieldTerms,
    SearchConfig,
    hrs_search,
    mean_field_objective,
    qps_search,
    random_feasible_sequence,
    sample_feasible_predecessors,
    verify_slack_budget,
)
from .evaluation import (  # noqa: F401
    EfficiencyCurve,
    PintScheme,
    RecipeDScheme,
    RecipeTScheme,
    TrialResult,
    compare_t_vs_d,
    efficiency_curve,
    run_instance,
    tune_pint,
)
