"""Minimization of finite fuzzy interpretations under the Godel semantics,
with greatest-bisimulation computation, compact fuzzy partitions, a concept
evaluator and a benchmark harness."""

from .core import (
    Degree,
    FuzzyRelation,
    FuzzySet,
    ONE,
    ZERO,
    biresiduum,
    compose,
    identity_relation,
    inf_all,
    is_fuzzy_equivalence,
    residuum,
    rst_closure,
    tnorm,
)
from .model import (
    BasicRole,
    FuzzyInterpretation,
    Signature,
    SizeStats,
    basic_roles,
    make_interpretation,
    size_stats,
    validate,
)
from .partition import Block, CompactFuzzyPartition
from .bisim import (
    BisimResult,
    BisimViolation,
    FuzzyLabeledGraph,
    auto_partition,
    bisimilarity_degree,
    build_compact_partition,
    check_bisimulation,
    greatest_auto_bisimulation,
    greatest_bisimulation,
    to_fuzzy_graph,
)
from .concepts import (
    check_abox,
    check_assertion,
    concept_to_text,
    eval_concept,
    eval_role,
    parse_concept,
    parse_role,
    preservation_report,
    random_concept,
    role_to_text,
)
from .minimize import (
    MinimizationTrace,
    MinimizeParams,
    MinimizeResult,
    approximate_minimize,
    compute_D,
    construct_witness,
)
from .genbench import BenchRow, GeneratorParams, generate, run_bench

__version__ = "0.1.0"
