"""Domain minimization of a fuzzy interpretation, preserving fuzzy concept
assertions at the named individuals up to a degree gamma.

The run first computes the compact fuzzy partition of the greatest fuzzy
auto-bisimulation, then keeps one representative per block at the coarsest
level each reached element can be represented at: representatives are seeded
from the named individuals, a max-priority queue of outgoing role links drives
discovery, and degree levels are processed in decreasing order.  Every role
degree written into the output is the current level, so all output degrees lie
in the processed level set (hence never above gamma).

The queue is a bucket queue: one FIFO bucket per distinct role degree and a
heap of the non-empty buckets' ranks, so a link costs O(log l) to push and to
take, l being the number of distinct role degrees, which is the paper's
O(m log l) for the reduction (not O(m log m) for a heap of links).  FIFO
inside a bucket takes links of one degree in the order they were pushed.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from .core import Degree, FuzzyRelation, FuzzySet, ONE
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


class TraceEntry(NamedTuple):
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

    __slots__ = ("parent", "scaled", "leaf", "up", "keeper")

    def __init__(self, partition: CompactFuzzyPartition):
        # the tree's own arrays, only read
        self.parent, self.scaled, self.leaf = partition.parent, partition.scaled, partition.leaf
        self.up = list(range(len(self.parent)))
        self.keeper = [-1] * len(self.parent)

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

    # roles by index; a link of degree e waits in bucket rank[e], the buckets
    # ranked by descending degree, FIFO inside one, and ``active`` holds the
    # ranks of the non-empty buckets
    roles_in_order = basic_roles(sig, fs)
    relations = [interp.basic_role_relation(role) for role in roles_in_order]
    fwds = [rel._fwd for rel in relations]
    inverse = [role.inverse for role in roles_in_order]
    # the reduced roles' rows: source -> {target: scaled degree}
    new_roles: Dict[str, Dict[int, Dict[int, int]]] = {r: {} for r in sig.role_names}
    written = [new_roles[role.name] for role in roles_in_order]
    ranked = sorted({d for rel in relations for d in rel.degrees()}, reverse=True)
    rank = {d.scaled: i for i, d in enumerate(ranked)}
    buckets: List[Deque[Tuple[int, int, int]]] = [deque() for _ in ranked]  # links (x, r, y)
    active: List[int] = []
    locate, claim = run.locate, run.claim

    added_order: List[int] = []
    trace = MinimizationTrace()
    new_individuals: Dict[str, int] = {}

    def push_out_edges(x: int) -> None:
        for r, fwd in enumerate(fwds):
            for y, d in fwd[x].items():
                i = rank[d]
                bucket = buckets[i]
                if not bucket:
                    heapq.heappush(active, i)
                bucket.append((x, r, y))

    def add_element(x: int, level: Degree, via_x: Optional[int], via_role: Optional[BasicRole]) -> None:
        added_order.append(x)
        trace.added.append(TraceEntry(name(x), level, None if via_x is None else name(via_x), via_role))

    # seed from the named individuals
    for a in sig.individual_names:
        ax = interp.individual_element(a)
        block = locate(ax, gamma.scaled)
        if keeper[block] < 0:
            add_element(ax, gamma, None, None)
            new_individuals[a] = ax
            claim(block, ax)
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

    reached = 0  # buckets ranked below ``reached`` hold degrees >= the level
    for d in levels:
        if narrate is not None:
            narrate(f"level d={d}")
        level = d.scaled
        while reached < len(ranked) and ranked[reached].scaled >= level:
            reached += 1
        while active and active[0] < reached:
            i = active[0]
            bucket = buckets[i]
            x, r, y = bucket.popleft()
            if not bucket:
                heapq.heappop(active)
            if narrate is not None:
                narrate(f"  take <{name(x)},{roles_in_order[r]},{name(y)}> priority={ranked[i]}")
            block = locate(y, level)
            if keeper[block] < 0:
                add_element(y, d, x, roles_in_order[r])
                claim(block, y)
                push_out_edges(y)
                if narrate is not None:
                    narrate(f"  add {name(y)}; block degree {partition.degrees[block]} keeper := {name(y)}")
            # the role entry between x and y's keeper, at the first level that reaches it
            if inverse[r]:
                src, dst = keeper[block], x
            else:
                src, dst = x, keeper[block]
            rows = written[r]
            row = rows.get(src)
            if row is None:
                row = rows[src] = {}
            if dst not in row:
                row[dst] = level
                if narrate is not None:
                    narrate(f"  set {roles_in_order[r].name}({name(src)},{name(dst)}) := {d}")

    # assemble the reduced interpretation, keeping original names and order;
    # every entry is a positive scaled degree under a distinct pair of kept
    # elements.  A row is remapped in target order (renumbering keeps the
    # order), so ``FuzzyRelation`` finds it sorted and builds it only here
    kept_sorted = sorted(added_order)
    old_to_new = {x: i for i, x in enumerate(kept_sorted)}
    domain = [name(x) for x in kept_sorted]
    n1 = len(domain)

    concepts: Dict[str, FuzzySet] = {}
    for cname in sig.concept_names:
        src = interp.concept_set(cname)._entries
        entries = {old_to_new[x]: src[x] for x in kept_sorted if x in src}
        if entries:
            concepts[cname] = FuzzySet._trusted(n1, entries)

    roles: Dict[str, FuzzyRelation] = {}
    for rname in sig.role_names:
        found = new_roles[rname]
        if found:
            roles[rname] = FuzzyRelation._trusted(n1, n1, [
                (old_to_new[x], {old_to_new[y]: row[y] for y in (sorted(row) if len(row) > 1 else row)})
                for x, row in found.items()])

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
    level_of = {entry.element: entry.degree.scaled for entry in result.trace.added}
    rows: Dict[int, Dict[int, int]] = {}
    for new_idx, name in enumerate(result.reduced.domain):
        dy = level_of[name]
        # Z0(v, y) is the degree of the deepest block holding both, so y's
        # row of the partition meets every v with Z0(v, y) > 0 exactly once
        for degree, elems in partition.row(interp.element_index(name)):
            d = dy if dy < degree else degree
            for v in elems:
                rows.setdefault(v, {})[new_idx] = d
    # d_y and every block degree walked are nonzero, so no entry is zero
    return FuzzyRelation._trusted(interp.n, result.reduced.n, rows.items())
