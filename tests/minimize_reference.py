"""Reference implementation of the reduction, kept for differential tests
against ``fuzzymin.minimize``.

``approximate_minimize_reference`` pushes every outgoing role link into one
binary heap keyed by ``(-degree, insertion sequence)``, O(m log m), as the
package did before its bucket queue; the reduced interpretation, the trace
and the narrative must be identical.

``CheckedRun`` is the reduction's run state with its invariants asserted
after every lookup and claim; ``checked_runs`` puts it under both
reductions, the package's and this one.
"""

from __future__ import annotations

import heapq
import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple
from unittest import mock

import fuzzymin.minimize
from fuzzymin.bisim import auto_partition
from fuzzymin.core import Degree, FuzzyRelation, FuzzySet
from fuzzymin.minimize import (
    MinimizationTrace,
    MinimizeParams,
    MinimizeResult,
    TraceEntry,
    _Run,
    compute_D,
)
from fuzzymin.model import BasicRole, FuzzyInterpretation, basic_roles, validate
from fuzzymin.partition import CompactFuzzyPartition


class CheckedRun(_Run):
    """``_Run`` that, after each ``locate`` and ``claim``, checks the block
    and its root path: a claimed block's keeper lies in its span
    ``order[lo:hi]``, and no claimed block has an unclaimed parent."""

    __slots__ = ("lo", "hi", "pos")

    def __init__(self, partition: CompactFuzzyPartition):
        super().__init__(partition)
        self.lo, self.hi = partition.lo, partition.hi
        self.pos = [0] * partition.n  # order's inverse
        for i, x in enumerate(partition.order):
            self.pos[x] = i

    def locate(self, x: int, d: int) -> int:
        b = super().locate(x, d)
        self.check(b)
        return b

    def claim(self, b: int, x: int) -> None:
        super().claim(b, x)
        self.check(b)

    def check(self, b: int) -> None:
        keeper, parent = self.keeper, self.parent
        while b >= 0:
            if keeper[b] >= 0:
                assert self.lo[b] <= self.pos[keeper[b]] < self.hi[b], "representative left its block"
                assert parent[b] < 0 or keeper[parent[b]] >= 0, (
                    "descendant has a representative while an ancestor lacks one")
            b = parent[b]


@contextmanager
def checked_runs() -> Iterator[List[CheckedRun]]:
    """Run both reductions, the package's and the reference, on ``CheckedRun``;
    yields the runs made, so a test can see that the checks ran."""
    made: List[CheckedRun] = []

    def checked(partition: CompactFuzzyPartition) -> CheckedRun:
        made.append(CheckedRun(partition))
        return made[-1]

    with mock.patch.object(fuzzymin.minimize, "_Run", checked), \
            mock.patch.object(sys.modules[__name__], "_Run", checked):
        yield made


def approximate_minimize_reference(
    interp: FuzzyInterpretation,
    params: MinimizeParams,
    *,
    partition: Optional[CompactFuzzyPartition] = None,
    narrate: Optional[Callable[[str], None]] = None,
) -> MinimizeResult:
    """``approximate_minimize`` with every link in one heap keyed by
    ``(-degree, seq)``."""
    problems = validate(interp)
    if problems:
        raise ValueError("invalid interpretation: " + "; ".join(problems))
    if partition is not None and partition.n != interp.n:
        raise ValueError(f"the partition covers {partition.n} elements, the interpretation {interp.n}")
    sig = interp.signature
    fs = params.features
    gamma = params.gamma
    name = interp.element_name

    rounds = 0
    if partition is None:
        partition, rounds = auto_partition(interp, fs)
    run = _Run(partition)
    keeper = run.keeper

    roles_in_order = basic_roles(sig, fs)
    adjacency = {role: interp.basic_role_relation(role) for role in roles_in_order}

    added_order: List[int] = []
    trace = MinimizationTrace()
    new_individuals: Dict[str, int] = {}
    new_roles: Dict[str, Dict[Tuple[int, int], Degree]] = {r: {} for r in sig.role_names}

    heap: List[Tuple[int, int, int, BasicRole, int]] = []
    seq = 0

    def push_out_edges(x: int) -> None:
        nonlocal seq
        for role in roles_in_order:
            for y, d in adjacency[role].successors(x):
                heapq.heappush(heap, (-d.scaled, seq, x, role, y))
                seq += 1

    def add_element(x: int, level: Degree, via_x: Optional[int], via_role: Optional[BasicRole]) -> None:
        added_order.append(x)
        trace.added.append(
            TraceEntry(
                element=name(x),
                degree=level,
                via_element=None if via_x is None else name(via_x),
                via_role=via_role,
            )
        )

    # seed from the named individuals
    for a in sig.individual_names:
        ax = interp.individual_element(a)
        block = run.locate(ax, gamma.scaled)
        if keeper[block] < 0:
            add_element(ax, gamma, None, None)
            new_individuals[a] = ax
            run.claim(block, ax)
            if narrate is not None:
                narrate(f"seed {a} -> {name(ax)} (new)")
        else:
            new_individuals[a] = keeper[block]
            if narrate is not None:
                narrate(f"seed {a} -> {name(keeper[block])} (alias)")

    for x in added_order:
        push_out_edges(x)

    levels = compute_D(interp, gamma)
    trace.degree_levels = list(levels)

    for d in levels:
        if narrate is not None:
            narrate(f"level d={d}")
        floor = -d.scaled
        while heap and heap[0][0] <= floor:
            key, _, x, role, y = heapq.heappop(heap)
            if narrate is not None:
                narrate(f"  take <{name(x)},{role},{name(y)}> priority={Degree.from_scaled(-key)}")
            block = run.locate(y, d.scaled)
            if keeper[block] < 0:
                add_element(y, d, x, role)
                run.claim(block, y)
                push_out_edges(y)
                if narrate is not None:
                    narrate(f"  add {name(y)}; block degree {partition.degrees[block]} keeper := {name(y)}")
            # the role entry between x and y's keeper, at the first level that reaches it
            src, dst = (keeper[block], x) if role.inverse else (x, keeper[block])
            bucket = new_roles[role.name]
            if (src, dst) not in bucket:
                bucket[src, dst] = d
                if narrate is not None:
                    narrate(f"  set {role.name}({name(src)},{name(dst)}) := {d}")

    # assemble the reduced interpretation, keeping original names and order;
    # every entry is a nonzero Degree under a distinct pair of kept elements
    kept_sorted = sorted(added_order)
    old_to_new = {x: i for i, x in enumerate(kept_sorted)}
    domain = [name(x) for x in kept_sorted]
    n1 = len(domain)

    concepts: Dict[str, FuzzySet] = {}
    for cname in sig.concept_names:
        src = interp.concept_set(cname)
        entries = {}
        for x in kept_sorted:
            val = src.value(x)
            if not val.is_zero:
                entries[old_to_new[x]] = val
        if entries:
            concepts[cname] = FuzzySet(n1, entries)

    roles: Dict[str, FuzzyRelation] = {}
    for rname in sig.role_names:
        bucket = new_roles[rname]
        if not bucket:
            continue
        entries = {(old_to_new[x], old_to_new[y]): deg for (x, y), deg in bucket.items()}
        roles[rname] = FuzzyRelation(n1, n1, entries)

    reduced = FuzzyInterpretation(
        sig,
        domain,
        {a: old_to_new[x] for a, x in new_individuals.items()},
        concepts,
        roles,
    )
    return MinimizeResult(
        reduced=reduced,
        trace=trace,
        params=params,
        partition=partition,
        bisim_rounds=rounds,
    )
