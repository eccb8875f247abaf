"""Greatest fuzzy bisimulations between finite fuzzy interpretations.

The interpretations are first encoded as fuzzy labeled graphs (vertex labels
for atomic concepts and, with nominals, for individuals; edge labels for
basic roles).  Under the Godel semantics the d-cuts of the greatest fuzzy
auto-bisimulation are nested crisp equivalences, one per degree level, so
the engine computes them level by level in ascending order, refining each
level's partition by signatures (Blom & Orzan 2005) in the spirit of Nguyen
& Tran (IEEE TFS 2021).  A round re-signs only the predecessors of the
vertices that changed class.  A split class keeps its id for the members
that were not re-signed, even when they are the smaller group, so the
"process the smaller half" bound of Paige & Tarjan (SIAM J. Comput. 1987)
does not hold here (ROADMAP.md, open item 1, "Refinement at the paper's
bound").  That chain of partitions is the compact fuzzy partition; no n x n
matrix is built, and no cut is copied: class ids are never reused, so the
engine keeps one class array and a split log (``partition.SplitLog``), each
new class's origin and birth level, from which ``partition_from_log``
builds the block tree.  The greatest bisimulation between two
interpretations is the auto-bisimulation of their disjoint union,
restricted to the pairs across the two.  The bisimilarity degree needs it
only at the named individuals, and bisimulation is invariant under
generated subinterpretations, so it refines just the part of the union the
individuals reach over the edges (inverse roles are edges too) and reads
each degree off the split log, without building a block tree.

One encoder, ``_encode``, reads the interpretations themselves, through
``to_fuzzy_graph``, which hands over their own label sets and role rows,
and turns them into the refinement's input for all three: it lays them
side by side and keeps the part that given seeds reach, every vertex for
``auto_partition`` and ``greatest_bisimulation`` and the individuals'
vertices for ``bisimilarity_degree``.  The two entries over two
interpretations check the signatures before anything else, so a mismatch
is reported before any individual is looked up.

The four engine entries (``auto_partition``, ``greatest_bisimulation``,
``bisimilarity_degree`` and ``build_compact_partition``) run with the cyclic
garbage collector paused (``_collector_paused``).  A call allocates a tuple
per label and edge, a frozenset per signature and a list per vertex;
unpaused, these start a collection pass every few hundred containers, and
each pass walks objects that cannot be part of a cycle.  That is the
condition that makes the pause safe: the engine builds only acyclic
containers (of ints, strings and ``Degree``s), so reference counting frees
every temporary and a call leaves nothing for the collector to find
(``TestCollectorPause`` in ``tests/test_bisim.py`` pins this).  The pause
spans the whole call, so the call's frame, and with it the encoded graph
and the refinement's temporaries, is freed before the collector is back
on, and the first pass after it walks only what the call left alive.  The
collector comes back on only if it was on at entry, also when the call
raises.

``check_bisimulation`` is the oracle for all of this: it tests a relation
against the four defining conditions directly and shares no code with the
engine.

A fuzzy equivalence phi is the greatest auto-bisimulation of the edgeless
graph that labels each x with token y at degree phi(x, y), so the engine
builds phi's tree too: Z(x, x') <= (phi(x, x) <=> phi(x', x)) = phi(x, x'),
and where phi(x, y) != phi(x', y), min-transitivity forces
min(phi(x, y), phi(x', y)) >= phi(x, x'), so Z >= phi.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .core import Degree, FuzzyRelation, SCALE
from .model import (
    BasicRole,
    FuzzyInterpretation,
    basic_roles,
    normalize_features,
    require_same_signature,
)
from .partition import CompactFuzzyPartition, SplitLog, partition_from_log


def to_fuzzy_graph(
    interp: FuzzyInterpretation, features: Iterable[str] | None
) -> Tuple[List[Dict[int, int]], List[List[Dict[int, int]]]]:
    """An interpretation as a fuzzy labeled graph: its label sets, one per
    vertex label token, and its role rows, one list per edge label.

    The tokens are the concept names, plus one indicator label per
    individual name when nominals are enabled; the edge labels are the
    basic roles (role names, plus inverses when inverse roles are enabled).
    The concept sets and role rows are the interpretation's own scaled-int
    dicts (``FuzzySet._entries`` and ``FuzzyRelation._fwd``), not copies;
    only a nominal's indicator, ``{element: SCALE}``, is built here.
    """
    fs = normalize_features(features)
    sig = interp.signature
    label_sets = [interp.concept_set(c)._entries for c in sig.concept_names]
    if "O" in fs:
        label_sets += [{interp.individual_element(a): SCALE} for a in sig.individual_names]
    return label_sets, [interp.basic_role_relation(role)._fwd for role in basic_roles(sig, fs)]


@dataclass
class BisimResult:
    """Greatest bisimulation plus the number of signature rounds it took."""

    Z: FuzzyRelation
    iterations: int


# --------------------------------------------------------------------------
# level-wise signature refinement
# --------------------------------------------------------------------------

Labels = List[List[Tuple[int, int]]]      # vertex -> [(token, scaled degree)]
Edges = List[List[Tuple[int, int, int]]]  # vertex -> [(scaled degree, role, target)]


def _encode(
    interps: Sequence[FuzzyInterpretation], features: Iterable[str] | None, seeds: Iterable[int]
) -> Tuple[Labels, Edges, int, List[int]]:
    """Per-vertex label and edge lists of the part of the interpretations'
    graphs (``to_fuzzy_graph``) that the seeds reach over the edges, plus
    the number of roles and each vertex's number there (-1 if not reached).
    The interpretations share one signature and stand side by side, each
    one's elements shifted by the sizes of those before it; a nominal label
    marks one vertex in each copy, which is why a union is built here and
    not as an interpretation.  This is the engine's one encoder: with every
    vertex a seed (``range(N)``) it encodes the whole graph, and the
    numbering is the identity.

    Vertices are numbered breadth first: the seeds in order, then the
    targets of each numbered vertex's edges as listed.  A vertex's labels
    come in token order and its edges in role order, each role's by target
    (the order of a relation's rows), so the sets and relations are read
    unsorted: edges off the role rows and labels off one pass over each
    label set.  A vertex that is not reached costs nothing beyond the O(n)
    numbering.
    """
    sides, owner = [], []
    for interp in interps:
        sides.append((len(owner), *to_fuzzy_graph(interp, features)))
        owner.extend([len(sides) - 1] * interp.n)
    index = [-1] * len(owner)
    reached: List[int] = []
    for v in seeds:
        if index[v] < 0:
            index[v] = len(reached)
            reached.append(v)
    out: Edges = []
    for v in reached:  # the list grows while it is walked
        shift, _, rows = sides[owner[v]]
        x = v - shift
        edges = []
        for r, fwd in enumerate(rows):
            row = fwd[x]
            if row:
                for y, d in row.items():
                    y += shift
                    if index[y] < 0:
                        index[y] = len(reached)
                        reached.append(y)
                    edges.append((d, r, index[y]))
        out.append(edges)
    labels: Labels = [[] for _ in reached]
    for shift, label_sets, _ in sides:
        for t, entries in enumerate(label_sets):
            for x, d in entries.items():
                i = index[shift + x]
                if i >= 0:
                    labels[i].append((t, d))
    return labels, out, len(sides[0][2]), index


def _split(
    groups: Dict[int, Dict[Hashable, List[int]]],
    block: List[int],
    size: List[int],
    shared: List[Optional[frozenset]],
    signed: bool,
    origin: List[int],
    born: List[int],
    level: int,
) -> List[int]:
    """Split classes by keys given for some of their members; returns the
    vertices that changed class.

    ``groups`` holds the keyed members, grouped as the caller computes the
    keys: class -> key -> members, classes and keys each in the order of
    their first member, members in the order they were keyed.  Class ids
    follow from that order.  Members without a key hold one key together:
    the class's ``shared`` signature when ``signed``, otherwise a key that
    no keyed member holds.  That group keeps the class id; when every member
    has a key, the largest group keeps it.  The other groups get fresh ids,
    logged with their birth ``level`` and origin (see ``SplitLog``).  A new
    class's shared signature is its key when ``signed`` and its parent's
    otherwise.
    """
    moved: List[int] = []
    for c, by_key in groups.items():
        if len(by_key) == 1:
            [(key, vs)] = by_key.items()
            if len(vs) == size[c] or (signed and key == shared[c]):
                if signed:
                    shared[c] = key
                continue
        else:
            keyed, keep, most = 0, None, 0
            for key, vs in by_key.items():
                keyed += len(vs)
                if len(vs) > most:
                    keep, most = key, len(vs)
            if keyed == size[c]:
                if signed:
                    shared[c] = keep
            else:
                keep = shared[c] if signed else None
            by_key.pop(keep, None)
        # the class that held the new ones in the previous level's cut
        held = c if born[c] < level else origin[c]
        for key, vs in by_key.items():
            new = len(size)
            size.append(len(vs))
            size[c] -= len(vs)
            shared.append(key if signed else shared[c])
            origin.append(held)
            born.append(level)
            for v in vs:
                block[v] = new
            moved.extend(vs)
    return moved


def _refine(labels: Labels, out: Edges, nroles: int) -> Tuple[SplitLog, int]:
    """The d-cuts of the greatest fuzzy auto-bisimulation of a graph given as
    per-vertex label and edge lists (see ``_encode``), as a split log.

    Returns the log (see ``SplitLog``: the degree levels in ascending order,
    the last one 1, each vertex's final class, and each class's origin and
    birth level) and the signature rounds summed over all levels, each
    level's final round that splits nothing included.

    Level d starts from the previous level's cut and splits it by the vertex
    labels thresholded at d (every value >= d counts alike).  Each round then
    splits every class by the signature "(edge label, class of y) for every
    edge x -> y of degree >= d" until a round splits nothing.  An edge of
    degree e < d needs a matching edge of degree >= e into the same e-class,
    which the finished level e already guarantees inside every class carried
    over from it.

    Rounds are Jacobi rounds, but a round re-signs only the vertices whose
    signature can have changed: the live predecessors of the vertices that
    changed class since their last signature, and, at a level's start, the
    sources of the edges that stopped being live.  Every other member of a
    class still holds the class's shared signature.  Class ids are stable
    (see ``_split``) and a new class costs two log entries, so a level costs
    time in proportion to the vertices that change class and the edges
    around them, not O(n + m) per round, and no cut is ever copied.  A round
    drops each signature into its class's group as it computes it, so no
    signature is stored or walked a second time.
    """
    n = len(labels)
    labels_at: Dict[int, List[Tuple[int, int]]] = defaultdict(list)  # degree -> [(vertex, token)]
    for v, lab in enumerate(labels):
        for t, d in lab:
            labels_at[d].append((v, t))
    pred: List[List[Tuple[int, int]]] = [[] for _ in range(n)]  # y -> [(degree, x)]
    sources_at: Dict[int, List[int]] = defaultdict(list)  # degree -> sources of its edges
    for x, edges in enumerate(out):
        for d, _, y in edges:
            pred[y].append((d, x))
            sources_at[d].append(x)
    levels = sorted({SCALE, *labels_at, *sources_at})

    # every label is >= the least level, so the first cut starts from the
    # classes of vertices that carry the same label tokens
    first: Dict[Tuple[int, ...], int] = {}
    block = [first.setdefault(tuple([t for t, _ in lab]) if lab else (), len(first)) for lab in labels]
    size = [0] * len(first)
    for c in block:
        size[c] += 1
    shared: List[Optional[frozenset]] = [None] * len(first)
    origin, born = [-1] * len(first), [0] * len(first)
    dirty = set(range(n))
    rounds = 0
    for k, d in enumerate(levels):
        if k:
            # a label equal to the previous level no longer counts as >= d
            dropped: Dict[int, Tuple[int, ...]] = {}
            for v, t in labels_at.get(levels[k - 1], ()):
                dropped[v] = dropped.get(v, ()) + (t,)
            groups: Dict[int, Dict[Hashable, List[int]]] = {}  # as ``_split`` takes them
            for v, key in dropped.items():
                groups.setdefault(block[v], {}).setdefault(key, []).append(v)
            moved = _split(groups, block, size, shared, False, origin, born, k)
            dirty = set(sources_at.get(levels[k - 1], ()))
            dirty.update(x for y in moved for e, x in pred[y] if e >= d)
        while True:
            rounds += 1
            groups = {}
            for v in dirty:
                c = block[v]
                if size[c] > 1:  # a class of one cannot split
                    key = frozenset([r + nroles * block[y] for e, r, y in out[v] if e >= d])
                    by_key = groups.get(c)
                    if by_key is None:
                        groups[c] = {key: [v]}
                    else:
                        vs = by_key.get(key)
                        if vs is None:
                            by_key[key] = [v]
                        else:
                            vs.append(v)
            moved = _split(groups, block, size, shared, True, origin, born, k)
            if not moved:
                break
            dirty = {x for y in moved for e, x in pred[y] if e >= d}
    return SplitLog([Degree.from_scaled(d) for d in levels], block, origin, born), rounds


@contextmanager
def _collector_paused() -> Iterator[None]:
    """The cyclic collector off for the duration, and back on afterwards
    only if it was on at entry.  As a decorator (``@_collector_paused()``)
    it pauses a whole call, whose frame is freed before the collector comes
    back on (see the module docstring)."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


@_collector_paused()
def auto_partition(
    interp: FuzzyInterpretation, features: Iterable[str] | None
) -> Tuple[CompactFuzzyPartition, int]:
    """Compact fuzzy partition of the greatest fuzzy auto-bisimulation, and
    the number of signature rounds it took."""
    log, rounds = _refine(*_encode([interp], features, range(interp.n))[:3])
    return partition_from_log(log, interp.domain), rounds


@_collector_paused()
def build_compact_partition(phi: FuzzyRelation, names: Sequence[str] | None = None) -> CompactFuzzyPartition:
    """Block tree of a fuzzy equivalence given as a sparse relation, built by
    the engine from phi's rows (see the module docstring).  On any other
    relation the engine's tree is still an equivalence, but not phi, so phi
    is rejected unless each of the tree's rows, walked once up from its leaf,
    equals phi's.  The check stops at the first row that differs, so it costs
    O(|phi| + n) and a sparse non-equivalence is never expanded to n x n."""
    if not phi.is_square:
        raise ValueError("a fuzzy equivalence must be square")
    n = phi.rows
    labels = [list(row.items()) for row in phi._fwd]
    log, _ = _refine(labels, [()] * n, 0)  # no edges, no roles
    tree = partition_from_log(log, [str(i) for i in range(n)] if names is None else names)
    for x in range(n):
        row: Dict[int, int] = {}
        for degree, elems in tree.row(x):
            row.update(dict.fromkeys(elems, degree))
        if row != phi._fwd[x]:
            raise ValueError("input relation is not a fuzzy equivalence")
    return tree


@_collector_paused()
def greatest_bisimulation(
    interp1: FuzzyInterpretation,
    interp2: FuzzyInterpretation,
    features: Iterable[str] | None = None,
) -> BisimResult:
    """Greatest fuzzy bisimulation between two interpretations over one
    signature: the auto-bisimulation of their disjoint union, restricted to
    the first domain times the second."""
    require_same_signature(interp1, interp2)
    n1 = interp1.n
    log, rounds = _refine(*_encode([interp1, interp2], features, range(n1 + interp2.n))[:3])
    partition = partition_from_log(log, interp1.domain + interp2.domain)
    return BisimResult(partition.relation(range(n1), range(n1, partition.n)), rounds)


@_collector_paused()
def bisimilarity_degree(
    interp1: FuzzyInterpretation,
    interp2: FuzzyInterpretation,
    features: Iterable[str] | None = None,
) -> Degree:
    """min over individuals a of Z(a in the first, a in the second) for the greatest Z.

    Z(x, x') depends only on the part of the union that x and x' reach over
    its edges, inverse roles included (bisimulation is invariant under
    generated subinterpretations), so the engine's one encoder (``_encode``,
    the same that feeds ``auto_partition`` and ``greatest_bisimulation``
    the whole graph) is seeded with the individuals' vertices alone: only
    what they reach is encoded and refined, and each degree is read off
    the split log (``SplitLog.degree``): the last level whose cut still
    holds both vertices in one class.  Like the reduction it checks, whose
    links cost O(log l) each for l distinct role degrees (the paper's
    O(m log l)), it costs nothing per element that no individual reaches,
    beyond an O(n) numbering.
    """
    require_same_signature(interp1, interp2)
    n1 = interp1.n
    pairs = [
        (interp1.individual_element(a), n1 + interp2.individual_element(a))
        for a in interp1.signature.individual_names
    ]
    labels, out, nroles, index = _encode([interp1, interp2], features, [v for pair in pairs for v in pair])
    log, _ = _refine(labels, out, nroles)
    return min(log.degree(index[x], index[xp]) for x, xp in pairs)


# --------------------------------------------------------------------------
# condition checking
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BisimViolation:
    condition: int
    x: str
    x_prime: str
    role: Optional[BasicRole]
    witness: Optional[str]
    detail: str

    def __str__(self) -> str:
        return f"condition ({self.condition}) at ({self.x}, {self.x_prime}): {self.detail}"


def check_bisimulation(
    Z: FuzzyRelation,
    interp1: FuzzyInterpretation,
    interp2: FuzzyInterpretation,
    features: Iterable[str] | None = None,
) -> List[BisimViolation]:
    """Enumerate every violated instance of the four bisimulation conditions.

    Pairs with Z = 0 satisfy everything vacuously, so only the support of Z
    is examined.  Condition (4) applies only when nominals are enabled.
    Degrees are compared as scaled ints on the sets' and relations' own
    rows, and a ``Degree`` is built only for a reported violation.  The two
    interpretations must share one signature, as for the engine entries.
    """
    require_same_signature(interp1, interp2)
    fs = normalize_features(features)
    if (Z.rows, Z.cols) != (interp1.n, interp2.n):
        raise ValueError("relation shape does not match the interpretation domains")
    sig = interp1.signature

    z_rows = Z._fwd
    concepts = [(c, interp1.concept_set(c)._entries, interp2.concept_set(c)._entries) for c in sig.concept_names]
    # each pair compares two tuples of scaled concept degrees: the second
    # side's built once per element, the first side's once per row of Z
    sets1 = [set1 for _, set1, _ in concepts]
    profile2 = {xp: tuple([set2.get(xp, 0) for _, _, set2 in concepts])
                for xp in set().union(*z_rows)}
    roles = [(role, interp1.basic_role_relation(role)._fwd, interp2.basic_role_relation(role)._fwd)
             for role in basic_roles(sig, fs)]
    nominals = "O" in fs

    def marks(interp: FuzzyInterpretation) -> Dict[int, Set[int]]:
        """Element -> positions of the individual names that mark it."""
        got: Dict[int, Set[int]] = {}
        if nominals:
            for i, a in enumerate(sig.individual_names):
                got.setdefault(interp.individual_element(a), set()).add(i)
        return got

    marks1, marks2 = marks(interp1), marks(interp2)
    unmarked: Set[int] = set()
    names1, names2 = interp1.domain, interp2.domain  # looked up only to report
    out: List[BisimViolation] = []
    for x, z_row in enumerate(z_rows):
        if not z_row:
            continue
        profile_x = tuple([set1.get(x, 0) for set1 in sets1])
        rows_x = [(role, fwd1[x].items(), fwd2) for role, fwd1, fwd2 in roles]
        for xp, z in z_row.items():
            if profile_x != profile2[xp]:  # equal degrees bound nothing
                for cname, set1, set2 in concepts:
                    a, b = set1.get(x, 0), set2.get(xp, 0)
                    bound = SCALE if a == b else a if a < b else b
                    if z > bound:
                        out.append(
                            BisimViolation(
                                1, names1[x], names2[xp], None, cname,
                                f"Z={Degree.from_scaled(z)} exceeds label bound "
                                f"{Degree.from_scaled(bound)} for concept {cname}",
                            )
                        )
            for role, succ1, fwd2 in rows_x:
                succ2 = fwd2[xp].items()
                if not (succ1 or succ2):
                    continue
                # each max stops once it reaches lhs: only a best below lhs is reported
                for y, dxy in succ1:
                    lhs = z if z < dxy else dxy
                    z_y = z_rows[y]
                    best = 0
                    for yp, dxpyp in succ2:
                        cand = z_y.get(yp, 0)
                        if cand > best:  # most are 0: test before taking the min
                            if dxpyp < cand:
                                cand = dxpyp
                            if cand > best:
                                best = cand
                                if best >= lhs:
                                    break
                    if lhs > best:
                        name_y = names1[y]
                        out.append(
                            BisimViolation(
                                2, names1[x], names2[xp], role, name_y,
                                f"forward transfer over {role} to {name_y}: "
                                f"{Degree.from_scaled(lhs)} > {Degree.from_scaled(best)}",
                            )
                        )
                for yp, dxpyp in succ2:
                    lhs = z if z < dxpyp else dxpyp
                    best = 0
                    for y, dxy in succ1:
                        cand = z_rows[y].get(yp, 0)
                        if cand > best:
                            if dxy < cand:
                                cand = dxy
                            if cand > best:
                                best = cand
                                if best >= lhs:
                                    break
                    if lhs > best:
                        name_yp = names2[yp]
                        out.append(
                            BisimViolation(
                                3, names1[x], names2[xp], role, name_yp,
                                f"backward transfer over {role} to {name_yp}: "
                                f"{Degree.from_scaled(lhs)} > {Degree.from_scaled(best)}",
                            )
                        )
            if nominals:
                for i in sorted(marks1.get(x, unmarked) ^ marks2.get(xp, unmarked)):
                    a = sig.individual_names[i]
                    out.append(
                        BisimViolation(
                            4, names1[x], names2[xp], None, a,
                            f"Z={Degree.from_scaled(z)} but the name {a} marks only one side",
                        )
                    )
    return out
