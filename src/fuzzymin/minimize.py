"""Domain minimization of a fuzzy interpretation, preserving fuzzy concept
assertions at the named individuals up to a degree gamma.

The run first computes the compact fuzzy partition of the greatest fuzzy
auto-bisimulation, then keeps one representative per block at the coarsest
level each reached element can be represented at: representatives are seeded
from the named individuals, a max-priority queue of outgoing role links drives
discovery, and degree levels are processed in decreasing order.  Every role
degree written into the output is the current level, so all output degrees lie
in the processed level set (hence never above gamma).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .core import Degree, FuzzyRelation, FuzzySet, ONE, tnorm
from .bisim import auto_partition
from .model import (
    BasicRole,
    FuzzyInterpretation,
    basic_roles,
    normalize_features,
    validate,
)
from .partition import CompactFuzzyPartition


@dataclass(frozen=True)
class MinimizeParams:
    """Feature set and preservation threshold gamma in (0, 1]."""

    features: frozenset = frozenset()
    gamma: Degree = ONE

    def __post_init__(self):
        object.__setattr__(self, "features", normalize_features(self.features))
        gamma = self.gamma if isinstance(self.gamma, Degree) else Degree(self.gamma)
        object.__setattr__(self, "gamma", gamma)
        if gamma.is_zero:
            raise ValueError("gamma must lie in (0, 1]")


@dataclass(frozen=True)
class TraceEntry:
    """One element added to the reduced domain: the level it was added at and
    the link that reached it (None for individual-seeded elements)."""

    element: str
    degree: Degree
    via_element: Optional[str]
    via_role: Optional[BasicRole]


@dataclass
class MinimizationTrace:
    added: List[TraceEntry] = field(default_factory=list)
    degree_levels: List[Degree] = field(default_factory=list)


@dataclass
class MinimizeResult:
    reduced: FuzzyInterpretation
    trace: MinimizationTrace
    params: MinimizeParams
    partition: CompactFuzzyPartition
    bisim_rounds: int  # signature rounds of the auto-bisimulation, 0 when a partition was passed in

    @property
    def n1(self) -> int:
        return self.reduced.n

    @property
    def m1(self) -> int:
        return sum(len(rel) for rel in self.reduced.roles.values())

    @property
    def source_n(self) -> int:
        return self.partition.n

    @property
    def dropped(self) -> int:
        return self.source_n - self.n1

    @property
    def reduction(self) -> float:
        return 1.0 - self.n1 / self.source_n


def compute_D(interp: FuzzyInterpretation, gamma: Degree) -> List[Degree]:
    """Degree levels: gamma plus every nonzero atomic-role degree below gamma,
    deduplicated and sorted in decreasing order.  Inverse roles contribute the
    same degrees as their role names, so only role names are scanned."""
    if not isinstance(gamma, Degree):
        gamma = Degree(gamma)
    if gamma.is_zero:
        raise ValueError("gamma must lie in (0, 1]")
    levels = {gamma}
    for rname in interp.signature.role_names:
        rel = interp.roles.get(rname)
        if rel is None:
            continue
        for d in rel.degrees():
            if d < gamma:
                levels.add(d)
    return sorted(levels, reverse=True)


def approximate_minimize(
    interp: FuzzyInterpretation,
    params: MinimizeParams,
    *,
    partition: Optional[CompactFuzzyPartition] = None,
    use_flattening: bool = True,
    debug_checks: bool = False,
    narrate: Optional[Callable[[str], None]] = None,
) -> MinimizeResult:
    """Minimize the domain while preserving concept assertions up to gamma.

    A precomputed partition of the greatest auto-bisimulation (for the same
    feature set) may be supplied; otherwise it is computed here.
    ``use_flattening=False`` switches to the plain tree walk, kept for
    differential testing against the union-find path.  ``narrate`` receives
    the ``--verbose`` narrative line by line; without it no line is built.
    """
    problems = validate(interp)
    if problems:
        raise ValueError("invalid interpretation: " + "; ".join(problems))
    sig = interp.signature
    fs = params.features
    gamma = params.gamma
    name = interp.element_name

    rounds = 0
    if partition is None:
        partition, rounds = auto_partition(interp, fs)
    partition.reset_overlay()

    locate = partition.flatten_and_find if use_flattening else partition.find_block

    def check_block(block) -> None:
        if block.repr is not None:
            assert partition.contains(block, block.repr), "representative left its block"
        cur = block
        while cur.parent is not None:
            up = partition.class_top(cur.parent)
            assert not (up.repr is None and cur.repr is not None), (
                "descendant has a representative while an ancestor lacks one"
            )
            cur = up

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
        block = locate(ax, gamma)
        if block.repr is None:
            add_element(ax, gamma, None, None)
            new_individuals[a] = ax
            partition.set_repr_upward(block, ax)
            if narrate is not None:
                narrate(f"seed {a} -> {name(ax)} (new)")
        else:
            new_individuals[a] = block.repr
            if narrate is not None:
                narrate(f"seed {a} -> {name(block.repr)} (alias)")
        if debug_checks:
            check_block(block)

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
            block = locate(y, d)
            if block.repr is None:
                add_element(y, d, x, role)
                partition.set_repr_upward(block, y)
                push_out_edges(y)
                if narrate is not None:
                    narrate(f"  add {name(y)}; block degree {block.degree} keeper := {name(y)}")
            if debug_checks:
                check_block(block)
            # the role entry between x and y's keeper, at the first level that reaches it
            src, dst = (block.repr, x) if role.inverse else (x, block.repr)
            bucket = new_roles[role.name]
            if (src, dst) not in bucket:
                bucket[src, dst] = d
                if narrate is not None:
                    narrate(f"  set {role.name}({name(src)},{name(dst)}) := {d}")

    # assemble the reduced interpretation, keeping original names and order
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


def construct_witness(
    interp: FuzzyInterpretation,
    result: MinimizeResult,
    params: MinimizeParams,
) -> FuzzyRelation:
    """Build the witness bisimulation between the input and the reduction.

    For each kept element y added at level d_y (gamma for individual-seeded
    ones), Z(v, y) = min(d_y, Z0(v, y)) over all input elements v, where Z0
    is the greatest fuzzy auto-bisimulation of the input, read off the
    result's partition.  The result checks clean against the bisimulation
    conditions and hits exactly gamma at every named-individual pair.
    """
    if params != result.params:
        raise ValueError("parameters do not match the ones the result was produced with")
    for name in result.reduced.domain:
        try:
            interp.element_index(name)
        except ValueError:
            raise ValueError(
                f"reduction element {name!r} does not come from this interpretation"
            ) from None

    partition = result.partition
    order = partition.order
    level_of = {entry.element: entry.degree for entry in result.trace.added}
    entries: Dict[Tuple[int, int], Degree] = {}
    for new_idx, name in enumerate(result.reduced.domain):
        dy = level_of[name]
        # Z0(v, y) is the degree of the deepest block holding both, so walking
        # up from y's leaf meets every v with Z0(v, y) > 0 exactly once; [lo, hi)
        # is the span already visited
        block = partition.leaf_of[interp.element_index(name)]
        lo = hi = block.lo
        while block is not None and not block.degree.is_zero:
            d = tnorm(dy, block.degree)
            for v in order[block.lo:lo] + order[hi:block.hi]:
                entries[v, new_idx] = d
            lo, hi, block = block.lo, block.hi, block.parent
    return FuzzyRelation(interp.n, result.reduced.n, entries)
