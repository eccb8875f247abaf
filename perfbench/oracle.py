"""The verdict on each reduced output, and a self-test of that verdict.

``failures`` reads what the timed trust path (``pipeline.verify``) computed
and lists what is wrong with the output:

- the witness violates a bisimulation condition;
- a named individual is not related to itself at exactly gamma;
- the bisimilarity degree is below gamma;
- n1 differs from the n1 recorded from a fresh-partition run, which
  ``spec.json`` holds for each workload's default seed;
- the output text does not parse back to the reduced interpretation.

``self_test`` shows the oracle accepts a true reduction and rejects one
with a kept element dropped.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from fuzzymin import cli, genbench, minimize
from fuzzymin.core import ONE
from fuzzymin.minimize import MinimizationTrace, MinimizeParams, MinimizeResult
from fuzzymin.model import FuzzyInterpretation, make_interpretation

from pipeline import Output, verify
from tracing import Tracer


def failures(interp: FuzzyInterpretation, out: Output, recorded_n1: Optional[int]) -> List[str]:
    """Reasons the output is wrong; ``recorded_n1`` is None where no n1 is recorded."""
    gamma = out.params.gamma
    reduced = out.result.reduced
    reasons = []
    if out.violations:
        reasons.append(f"witness violates {len(out.violations)} bisimulation conditions")
    for a in interp.signature.individual_names:
        got = out.witness.value(interp.individual_element(a), reduced.individual_element(a))
        if got != gamma:
            reasons.append(f"witness relates individual {a} at {got}, not {gamma}")
    if out.degree < gamma:
        reasons.append(f"bisimilarity degree {out.degree} is below gamma {gamma}")
    if recorded_n1 is not None and reduced.n != recorded_n1:
        reasons.append(f"n1 {reduced.n} differs from the recorded n1 {recorded_n1}")
    if cli.parse_interpretation(out.text)[1] != reduced:
        reasons.append("output text does not parse back to the reduced interpretation")
    return reasons


def _drop_kept_element(result: MinimizeResult) -> MinimizeResult:
    """The result with its last link-reached kept element and that element's facts removed."""
    victim = next(e.element for e in reversed(result.trace.added) if e.via_element is not None)
    old = result.reduced
    gone = old.element_index(victim)
    names = [name for name in old.domain if name != victim]
    concepts = {
        c: {old.element_name(x): d for x, d in old.concept_set(c).items() if x != gone}
        for c in old.signature.concept_names
    }
    roles = {
        r: {
            (old.element_name(x), old.element_name(y)): d
            for (x, y), d in old.role_relation(r).items()
            if gone not in (x, y)
        }
        for r in old.signature.role_names
    }
    individuals = {a: old.element_name(x) for a, x in old.individuals.items()}
    reduced = make_interpretation(old.signature, names, individuals, concepts, roles)
    trace = MinimizationTrace(
        [e for e in result.trace.added if e.element != victim], result.trace.degree_levels
    )
    return replace(result, reduced=reduced, trace=trace)


def self_test() -> List[str]:
    """Problems with the oracle itself; empty when it judges a known pair right."""
    interp = genbench.generate(genbench.GeneratorParams(1, 40, 90, 2, 12, 3, 2, 2, seed=17))
    params = MinimizeParams(frozenset(), ONE)
    result = minimize.approximate_minimize(interp, params)
    off = Tracer(False)
    problems = []
    for label, candidate, should_fail in (
        ("true reduction", result, False),
        ("reduction with a kept element dropped", _drop_kept_element(result), True),
    ):
        out = Output(params, False, candidate, cli.write_interpretation(candidate.reduced))
        verify(off, interp, out)
        semantic = failures(interp, out, None)
        if bool(semantic) != should_fail:
            problems.append(f"oracle self-test: {label} judged {semantic or 'correct'}")
    return problems
