"""The calls the benchmark times, each made through the tracer.

- set-up (``setup_s``): build the workload's instance and serialize it;
- the minimize path (``minimize_s``): parse the text, validate, encode the
  graph, one ``auto_partition``, one ``approximate_minimize`` per gamma with
  that partition, and write each reduced interpretation back to text;
- the trust path (``verify_s``) on every reduced output: the witness
  bisimulation, its check against the bisimulation conditions, and the
  bisimilarity degree of input and output from the two-interpretation engine.

Import after ``fuzzymin`` is on ``sys.path``.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import List, Optional

from fuzzymin import bisim, cli, minimize, model
from fuzzymin.core import Degree, FuzzyRelation
from fuzzymin.minimize import MinimizeParams, MinimizeResult
from fuzzymin.model import FuzzyInterpretation

from tracing import Tracer

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 2000


@dataclass
class Output:
    """One reduced output of a measured iteration."""

    params: MinimizeParams
    reused: bool  # minimized on a partition an earlier gamma already used
    result: MinimizeResult
    text: str
    witness: Optional[FuzzyRelation] = None
    violations: list = field(default_factory=list)
    degree: Optional[Degree] = None


def set_up(tracer: Tracer, workload, seed: int):
    """Build and serialize the instance at least five times and for two seconds.

    Returns the instance text and the time of each repeat.
    """
    times = []
    begin = time.perf_counter()
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_MIN_REPEATS or time.perf_counter() - begin < SETUP_MIN_SECONDS
    ):
        interp = None
        gc.collect()  # every repeat starts from the same collector state
        start = time.perf_counter()
        interp = tracer.call(workload.builder, workload.build, seed)
        text = tracer.call("cli.write_interpretation", cli.write_interpretation, interp)
        times.append(time.perf_counter() - start)
    return text, times


def minimize_path(tracer: Tracer, text: str, gammas):
    with tracer.span("minimize"):
        signature, interp = tracer.call("cli.parse_interpretation", cli.parse_interpretation, text)
        problems = tracer.call("model.validate", model.validate, interp)
        if problems:
            raise ValueError("invalid interpretation: " + "; ".join(problems))
        features = signature.features
        tracer.call("bisim.to_fuzzy_graph", bisim.to_fuzzy_graph, interp, features)
        partition, sweeps = tracer.call("bisim.auto_partition", bisim.auto_partition, interp, features)
        outputs = []
        for i, gamma in enumerate(gammas):
            params = MinimizeParams(features, gamma)
            result = tracer.call(
                "minimize.approximate_minimize", minimize.approximate_minimize,
                interp, params, partition=partition,
            )
            reduced_text = tracer.call("cli.write_interpretation", cli.write_interpretation, result.reduced)
            outputs.append(Output(params, i > 0, result, reduced_text))
    return interp, partition, sweeps, outputs


def verify(tracer: Tracer, interp: FuzzyInterpretation, out: Output) -> None:
    features = out.params.features
    reduced = out.result.reduced
    out.witness = tracer.call(
        "minimize.construct_witness", minimize.construct_witness, interp, out.result, out.params
    )
    out.violations = tracer.call(
        "bisim.check_bisimulation", bisim.check_bisimulation, out.witness, interp, reduced, features
    )
    out.degree = tracer.call(
        "bisim.bisimilarity_degree", bisim.bisimilarity_degree, interp, reduced, features
    )


def verify_path(tracer: Tracer, interp: FuzzyInterpretation, outputs: List[Output]) -> None:
    with tracer.span("verify"):
        for out in outputs:
            verify(tracer, interp, out)


def shape_counts(interp, partition, sweeps, outputs: List[Output], bytes_in: int) -> dict:
    """Per-layer counts of one iteration; they repeat exactly from one iteration to the next."""
    blocks = list(partition.blocks())
    kept = sum(o.result.reduced.n for o in outputs)
    return {
        "bisim.sweeps": (sweeps, "count"),
        "partition.blocks": (len(blocks), "count"),
        "partition.leaves": (sum(1 for b in blocks if b.is_crisp), "count"),
        "minimize.levels": (sum(len(o.result.trace.degree_levels) for o in outputs), "count"),
        "minimize.kept": (kept, "count"),
        "minimize.kept_ratio": (kept / (interp.n * len(outputs)), "ratio"),
        "minimize.m1": (sum(o.result.m1 for o in outputs), "count"),
        "minimize.witness_pairs": (sum(o.witness.support_size() for o in outputs), "count"),
        "cli.bytes_in": (bytes_in, "bytes"),
        "cli.bytes_out": (sum(len(o.text.encode()) for o in outputs), "bytes"),
    }


def iteration(tracer: Tracer, workload, text: str, judge) -> dict:
    """One measured pass; returns plain data, so the program's objects die with it.

    ``judge(interp, output, index)`` lists what is wrong with the output at
    the workload's ``index``-th gamma.
    """
    began = time.perf_counter()
    interp, partition, sweeps, outputs = minimize_path(tracer, text, workload.gammas)
    minimized = time.perf_counter()
    verify_path(tracer, interp, outputs)
    verified = time.perf_counter()
    return {
        "minimize_s": minimized - began,
        "verify_s": verified - minimized,
        "sweeps": sweeps,
        "n": interp.n,
        "texts": [o.text for o in outputs],
        "verdicts": [
            (str(o.params.gamma), o.reused, judge(interp, o, i))
            for i, o in enumerate(outputs)
        ],
        "counts": shape_counts(interp, partition, sweeps, outputs, len(text.encode())),
    }
