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


class _Run:
    """The reduction's per-run state over a shared, read-only block tree, in
    lists indexed by block id.

    ``up[b]`` is the ancestor a lookup continues from once it has climbed past
    b; ``keeper[b]`` is the element kept for b, -1 while b is unclaimed.
    """

    __slots__ = ("blocks", "parent", "scaled", "leaf", "up", "keeper")

    def __init__(self, partition: CompactFuzzyPartition):
        self.blocks = list(partition.blocks())
        self.parent = [-1 if b.parent is None else b.parent.id for b in self.blocks]
        self.scaled = [b.degree.scaled for b in self.blocks]
        self.leaf = [b.id for b in partition.leaf_of]
        self.up = list(range(len(self.blocks)))
        self.keeper = [-1] * len(self.blocks)

    def locate(self, x: int, d: int) -> int:
        """The block on x's root path with the least degree >= d (scaled).

        d must not rise within a run: a block climbed past is then never
        located again, so ``up`` lets later lookups skip it (path halving,
        after Tarjan 1975).
        """
        up, parent, scaled = self.up, self.parent, self.scaled
        b = self.leaf[x]
        while up[b] != b:
            up[b] = b = up[up[b]]
        while parent[b] >= 0:
            p = parent[b]
            while up[p] != p:
                up[p] = p = up[up[p]]
            if scaled[p] < d:
                break
            up[b] = p
            b = p
        return b

    def claim(self, b: int, x: int) -> None:
        """Keep x for b and for each ancestor up to the first claimed one, so
        the claimed blocks stay closed upward."""
        parent, keeper = self.parent, self.keeper
        while b >= 0 and keeper[b] < 0:
            keeper[b] = x
            b = parent[b]


def approximate_minimize(
    interp: FuzzyInterpretation,
    params: MinimizeParams,
    *,
    partition: Optional[CompactFuzzyPartition] = None,
    debug_checks: bool = False,
    narrate: Optional[Callable[[str], None]] = None,
) -> MinimizeResult:
    """Minimize the domain while preserving concept assertions up to gamma.

    A precomputed partition of the greatest auto-bisimulation (for the same
    feature set) may be supplied; otherwise it is computed here.  The run
    only reads it, so one partition may serve any number of runs, nested ones
    included.  ``narrate`` receives the ``--verbose`` narrative line by line;
    without it no line is built.
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
    run = _Run(partition)
    keeper = run.keeper

    def check_block(b: int) -> None:
        if keeper[b] >= 0:
            assert partition.contains(run.blocks[b], keeper[b]), "representative left its block"
        while run.parent[b] >= 0:
            p = run.parent[b]
            assert not (keeper[p] < 0 and keeper[b] >= 0), (
                "descendant has a representative while an ancestor lacks one"
            )
            b = p

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
            block = run.locate(y, d.scaled)
            if keeper[block] < 0:
                add_element(y, d, x, role)
                run.claim(block, y)
                push_out_edges(y)
                if narrate is not None:
                    narrate(f"  add {name(y)}; block degree {run.blocks[block].degree} keeper := {name(y)}")
            if debug_checks:
                check_block(block)
            # the role entry between x and y's keeper, at the first level that reaches it
            src, dst = (keeper[block], x) if role.inverse else (x, keeper[block])
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
