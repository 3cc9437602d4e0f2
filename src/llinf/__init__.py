"""Linear infinitary lambda calculus over regular term graphs.

The package implements the calculus with two box modalities (inductive
and coinductive), its terminating 4S fragment, level-by-level
reduction, the depth-indexed size/weight/duplicability metrics, the
pure infinitary lambda calculi with their two embeddings, and Scott
encodings of free (co)algebras, all over finitely presented (regular)
possibly-infinite terms.
"""

from .errors import (
    BudgetExceededError,
    CaptureError,
    DefinitionError,
    EncodingError,
    GuardednessError,
    InvalidPositionError,
    LLinfError,
    MetricsUndefinedError,
    SurfaceSyntaxError,
)
from .terms import (
    App, Box, Cut, CUT, Lam, Node, Ref, TermGraph, Var,
    COIND, IND, LIN,
    alpha_equal, equal_at_depth, free_vars, graph_bisimilar, graph_of,
    project_depth, substitute,
)
from .surface import (
    format_graph, format_node, parse_environment, parse_lambda_program,
    parse_program, parse_term,
)
from .wellform import (
    CheckReport, OccSummary, check, check_ll4s, check_llinf, env_precedes,
    infer_env, occurrences,
)
from .reduction import (
    EvalStats, Redex, classify, contract, eval_lbl, find_redexes,
    step_at_levelset, step_lbl,
)
from .metrics import df, size_at, twei, wei, weight_profile, weight_trace
from .lam import (
    DepthFlags, check_labc, embed_cbv, embed_girard, lbeta_step,
    simulate_cbv, simulate_girard,
)
from .encodings import (
    Signature, alphabet_signature, bit_flip, counterexamples, fixpoint,
    guarded_fixpoint, parse_stream_spec, representability_harness,
    scott_decode, scott_encode, selector, stream_identity, stream_tree,
    tuple_term, word_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
