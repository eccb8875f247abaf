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
matrix is built.  The greatest bisimulation between two interpretations is
the auto-bisimulation of their disjoint union, restricted to the pairs
across the two.

A fuzzy equivalence phi is the greatest auto-bisimulation of the edgeless
graph that labels each x with token y at degree phi(x, y), so the engine
builds phi's tree too: Z(x, x') <= (phi(x, x) <=> phi(x', x)) = phi(x, x'),
and where phi(x, y) != phi(x', y), min-transitivity forces
min(phi(x, y), phi(x', y)) >= phi(x, x'), so Z >= phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .core import (
    Degree,
    FuzzyRelation,
    FuzzySet,
    ONE,
    SCALE,
    ZERO,
    biresiduum,
    tnorm,
)
from .model import (
    BasicRole,
    FuzzyInterpretation,
    basic_roles,
    normalize_features,
)
from .partition import CompactFuzzyPartition, partition_from_cuts


@dataclass(frozen=True)
class FuzzyLabeledGraph:
    """Vertices with fuzzy label sets and fuzzy labeled edges."""

    n: int
    vertex_labels: Tuple[str, ...]
    edge_labels: Tuple[BasicRole, ...]
    labels: Dict[str, FuzzySet]        # label token -> fuzzy set over vertices
    edges: Dict[BasicRole, FuzzyRelation]

    def vertex_label(self, v: int, token: str) -> Degree:
        got = self.labels.get(token)
        return got.value(v) if got is not None else ZERO


def to_fuzzy_graph(interp: FuzzyInterpretation, features: Iterable[str] | None) -> FuzzyLabeledGraph:
    """Encode an interpretation as a fuzzy labeled graph.

    Vertex labels are the concept names, plus one indicator label per
    individual name when nominals are enabled.  Edge labels are the basic
    roles (role names, plus inverses when inverse roles are enabled).
    """
    fs = normalize_features(features)
    sig = interp.signature
    n = interp.n
    vertex_labels = list(sig.concept_names)
    labels: Dict[str, FuzzySet] = {}
    for cname in sig.concept_names:
        labels[cname] = interp.concept_set(cname)
    if "O" in fs:
        vertex_labels.extend(sig.individual_names)
        for a in sig.individual_names:
            labels[a] = FuzzySet(n, {interp.individual_element(a): ONE})
    edge_labels = basic_roles(sig, fs)
    edges = {role: interp.basic_role_relation(role) for role in edge_labels}
    return FuzzyLabeledGraph(n, tuple(vertex_labels), edge_labels, labels, edges)


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


def _flatten(graphs: Sequence[FuzzyLabeledGraph]) -> Tuple[Labels, Edges, int]:
    """Per-vertex label and edge lists of the graphs side by side, each one's
    vertices shifted by the sizes of those before it, plus the number of
    roles.  Tokens and roles are numbered in the first graph's order.

    A nominal label marks one vertex in each copy, which is why a union is
    built here and not as an interpretation.
    """
    tokens, roles = graphs[0].vertex_labels, graphs[0].edge_labels
    labels: Labels = []
    out: Edges = []
    for g in graphs:
        shift = len(labels)
        labels.extend([] for _ in range(g.n))
        out.extend([] for _ in range(g.n))
        for t, token in enumerate(tokens):
            for v, d in g.labels[token].items():
                labels[shift + v].append((t, d.scaled))
        for r, role in enumerate(roles):
            for (x, y), d in g.edges[role].items():
                out[shift + x].append((d.scaled, r, shift + y))
    return labels, out, len(roles)


def _split(
    block: List[int],
    size: List[int],
    shared: List[Optional[frozenset]],
    keys: Dict[int, Hashable],
    signed: bool,
) -> List[int]:
    """Split classes by ``keys``, given for some of their members; returns
    the vertices that changed class.

    Members without a key hold one key together: the class's ``shared``
    signature when ``signed``, otherwise a key that no keyed member holds.
    That group keeps the class id; when every member has a key, the largest
    group keeps it.  The other groups get fresh ids.  A new class's shared
    signature is its key when ``signed`` and its parent's otherwise.
    """
    groups: Dict[int, Dict[Hashable, List[int]]] = {}
    for v, key in keys.items():
        groups.setdefault(block[v], {}).setdefault(key, []).append(v)
    moved: List[int] = []
    for c, by_key in groups.items():
        if sum(map(len, by_key.values())) == size[c]:
            keep = max(by_key, key=lambda k: len(by_key[k]))
            if signed:
                shared[c] = keep
        else:
            keep = shared[c] if signed else None
        by_key.pop(keep, None)
        for key, vs in by_key.items():
            new = len(size)
            size.append(len(vs))
            size[c] -= len(vs)
            shared.append(key if signed else shared[c])
            for v in vs:
                block[v] = new
            moved.extend(vs)
    return moved


def _refine(labels: Labels, out: Edges, nroles: int) -> Tuple[List[Degree], List[List[int]], int]:
    """The d-cuts of the greatest fuzzy auto-bisimulation of a graph given as
    per-vertex label and edge lists (see ``_flatten``).

    Returns the degree levels in ascending order (the last one is 1), the
    class of every vertex in each level's cut, and the signature rounds
    summed over all levels, each level's final round that splits nothing
    included.

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
    (see ``_split``), so a level costs O(n) for its cut plus time in
    proportion to the vertices that change class and the edges around them,
    not O(n + m) per round.
    """
    n = len(labels)
    labels_at: Dict[int, List[Tuple[int, int]]] = {}  # degree -> [(vertex, token)]
    for v, lab in enumerate(labels):
        for t, d in lab:
            labels_at.setdefault(d, []).append((v, t))
    pred: List[List[Tuple[int, int]]] = [[] for _ in range(n)]  # y -> [(degree, x)]
    sources_at: Dict[int, List[int]] = {}  # degree -> sources of its edges
    for x, edges in enumerate(out):
        for d, _, y in edges:
            pred[y].append((d, x))
            sources_at.setdefault(d, []).append(x)
    levels = sorted({SCALE, *labels_at, *sources_at})

    # every label is >= the least level, so the first cut starts from the
    # classes of vertices that carry the same label tokens
    first: Dict[Tuple[int, ...], int] = {}
    block = [first.setdefault(tuple(t for t, _ in lab), len(first)) for lab in labels]
    size = [0] * len(first)
    for c in block:
        size[c] += 1
    shared: List[Optional[frozenset]] = [None] * len(first)
    dirty = set(range(n))
    cuts: List[List[int]] = []
    rounds = 0
    prev = None
    for d in levels:
        if prev is not None:
            # a label equal to the previous level no longer counts as >= d
            dropped: Dict[int, Tuple[int, ...]] = {}
            for v, t in labels_at.get(prev, ()):
                dropped[v] = dropped.get(v, ()) + (t,)
            moved = _split(block, size, shared, dropped, False)
            dirty = set(sources_at.get(prev, ()))
            dirty.update(x for y in moved for e, x in pred[y] if e >= d)
        while True:
            rounds += 1
            sigs = {
                v: frozenset([r + nroles * block[y] for e, r, y in out[v] if e >= d])
                for v in dirty
                if size[block[v]] > 1  # a class of one cannot split
            }
            moved = _split(block, size, shared, sigs, True)
            if not moved:
                break
            dirty = {x for y in moved for e, x in pred[y] if e >= d}
        cuts.append(block[:])
        prev = d
    return [Degree.from_scaled(d) for d in levels], cuts, rounds


def auto_partition(
    interp: FuzzyInterpretation, features: Iterable[str] | None
) -> Tuple[CompactFuzzyPartition, int]:
    """Compact fuzzy partition of the greatest fuzzy auto-bisimulation, and
    the number of signature rounds it took."""
    levels, cuts, rounds = _refine(*_flatten([to_fuzzy_graph(interp, features)]))
    return partition_from_cuts(levels, cuts, interp.domain), rounds


def build_compact_partition(phi: FuzzyRelation, names: Sequence[str] | None = None) -> CompactFuzzyPartition:
    """Block tree of a fuzzy equivalence given as a sparse relation, built by
    the engine from phi's rows (see the module docstring).  On any other
    relation the engine's tree is still an equivalence, but not phi, so phi
    is rejected unless the tree gives it back; the support sizes are compared
    first, so a sparse non-equivalence is never expanded to n x n."""
    if not phi.is_square:
        raise ValueError("a fuzzy equivalence must be square")
    n = phi.rows
    labels = [[(y, d.scaled) for y, d in phi.successors(x)] for x in range(n)]
    levels, cuts, _ = _refine(labels, [()] * n, 0)  # no edges, no roles
    tree = partition_from_cuts(levels, cuts, [str(i) for i in range(n)] if names is None else names)
    # a block of nonzero degree relates exactly the pairs not inside one child
    support = sum((b.hi - b.lo) ** 2 - sum((c.hi - c.lo) ** 2 for c in b.children)
                  for b in tree.blocks() if not b.degree.is_zero)
    if support != len(phi) or any(tree.degree(i, j) != d for (i, j), d in phi._entries.items()):
        raise ValueError("input relation is not a fuzzy equivalence")
    return tree


def _union_partition(
    interp1: FuzzyInterpretation,
    interp2: FuzzyInterpretation,
    features: Iterable[str] | None,
) -> Tuple[CompactFuzzyPartition, int]:
    """Auto-bisimulation partition of the disjoint union; interp2's element
    y is vertex interp1.n + y."""
    if not interp1.signature.same_names(interp2.signature):
        raise ValueError("interpretations use different signatures")
    fs = normalize_features(features)
    graphs = [to_fuzzy_graph(interp1, fs), to_fuzzy_graph(interp2, fs)]
    levels, cuts, rounds = _refine(*_flatten(graphs))
    return partition_from_cuts(levels, cuts, interp1.domain + interp2.domain), rounds


def greatest_bisimulation(
    interp1: FuzzyInterpretation,
    interp2: FuzzyInterpretation,
    features: Iterable[str] | None = None,
) -> BisimResult:
    """Greatest fuzzy bisimulation between two interpretations over one
    signature: the auto-bisimulation of their disjoint union, restricted to
    the first domain times the second."""
    if interp1 is interp2:
        partition, rounds = auto_partition(interp1, features)
        return BisimResult(partition.to_equivalence(), rounds)
    partition, rounds = _union_partition(interp1, interp2, features)
    n1 = interp1.n
    return BisimResult(partition.relation(range(n1), range(n1, partition.n)), rounds)


def greatest_auto_bisimulation(
    interp: FuzzyInterpretation, features: Iterable[str] | None = None
) -> BisimResult:
    return greatest_bisimulation(interp, interp, features)


def bisimilarity_degree(
    interp1: FuzzyInterpretation,
    interp2: FuzzyInterpretation,
    features: Iterable[str] | None = None,
) -> Degree:
    """min over individuals a of Z(a in the first, a in the second) for the greatest Z."""
    partition, _ = _union_partition(interp1, interp2, features)
    n1 = interp1.n
    return min(
        partition.degree(interp1.individual_element(a), n1 + interp2.individual_element(a))
        for a in interp1.signature.individual_names
    )


# --------------------------------------------------------------------------
# condition checking and the small reference engine
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
    """
    fs = normalize_features(features)
    if (Z.rows, Z.cols) != (interp1.n, interp2.n):
        raise ValueError("relation shape does not match the interpretation domains")
    sig = interp1.signature
    concepts = [(c, interp1.concept_set(c), interp2.concept_set(c)) for c in sig.concept_names]
    roles = [
        (role, interp1.basic_role_relation(role), interp2.basic_role_relation(role))
        for role in basic_roles(sig, fs)
    ]
    out: List[BisimViolation] = []
    for (x, xp), zval in Z.items():
        name_x = interp1.element_name(x)
        name_xp = interp2.element_name(xp)
        for cname, set1, set2 in concepts:
            bound = biresiduum(set1.value(x), set2.value(xp))
            if zval > bound:
                out.append(
                    BisimViolation(
                        1, name_x, name_xp, None, cname,
                        f"Z={zval} exceeds label bound {bound} for concept {cname}",
                    )
                )
        for role, rel1, rel2 in roles:
            succ1, succ2 = rel1.successors(x), rel2.successors(xp)
            # each max stops once it reaches lhs: only a best below lhs is reported
            for y, dxy in succ1:
                lhs = tnorm(zval, dxy)
                if lhs.is_zero:
                    continue
                best = ZERO
                for yp, dxpyp in succ2:
                    cand = tnorm(Z.value(y, yp), dxpyp)
                    if cand > best:
                        best = cand
                        if best >= lhs:
                            break
                if lhs > best:
                    out.append(
                        BisimViolation(
                            2, name_x, name_xp, role, interp1.element_name(y),
                            f"forward transfer over {role} to {interp1.element_name(y)}: "
                            f"{lhs} > {best}",
                        )
                    )
            for yp, dxpyp in succ2:
                lhs = tnorm(zval, dxpyp)
                if lhs.is_zero:
                    continue
                best = ZERO
                for y, dxy in succ1:
                    cand = tnorm(Z.value(y, yp), dxy)
                    if cand > best:
                        best = cand
                        if best >= lhs:
                            break
                if lhs > best:
                    out.append(
                        BisimViolation(
                            3, name_x, name_xp, role, interp2.element_name(yp),
                            f"backward transfer over {role} to {interp2.element_name(yp)}: "
                            f"{lhs} > {best}",
                        )
                    )
        if "O" in fs:
            for a in sig.individual_names:
                here = x == interp1.individual_element(a)
                there = xp == interp2.individual_element(a)
                if here != there and not zval.is_zero:
                    out.append(
                        BisimViolation(
                            4, name_x, name_xp, None, a,
                            f"Z={zval} but the name {a} marks only one side",
                        )
                    )
    return out


def greatest_bisimulation_reference(
    interp1: FuzzyInterpretation,
    interp2: FuzzyInterpretation,
    features: Iterable[str] | None = None,
    pair_order: Optional[Sequence[Tuple[int, int]]] = None,
) -> FuzzyRelation:
    """Small, order-parameterized refinement engine used as a test oracle.

    Processes pairs in the given order (Gauss-Seidel style); the greatest
    fixpoint is unique, so any order converges to the same relation.
    """
    if not interp1.signature.same_names(interp2.signature):
        raise ValueError("interpretations use different signatures")
    fs = normalize_features(features)
    g1 = to_fuzzy_graph(interp1, fs)
    g2 = to_fuzzy_graph(interp2, fs)
    n1, n2 = g1.n, g2.n
    pairs = list(pair_order) if pair_order is not None else [
        (x, xp) for x in range(n1) for xp in range(n2)
    ]

    z: List[List[Degree]] = [[ONE] * n2 for _ in range(n1)]
    for token in g1.vertex_labels:
        for x in range(n1):
            for xp in range(n2):
                b = biresiduum(g1.vertex_label(x, token), g2.vertex_label(xp, token))
                if b < z[x][xp]:
                    z[x][xp] = b

    roles = [r for r in g1.edge_labels]

    def refine_pair(x: int, xp: int) -> bool:
        cur = z[x][xp]
        if cur.is_zero:
            return False
        new = cur
        for role in roles:
            rel1, rel2 = g1.edges[role], g2.edges[role]
            for y, dxy in rel1.successors(x):
                best = ZERO
                for yp, d2 in rel2.successors(xp):
                    cand = tnorm(z[y][yp], d2)
                    if cand > best:
                        best = cand
                if dxy > best and best < new:
                    new = best
            for yp, dxpyp in rel2.successors(xp):
                best = ZERO
                for y, d1 in rel1.successors(x):
                    cand = tnorm(z[y][yp], d1)
                    if cand > best:
                        best = cand
                if dxpyp > best and best < new:
                    new = best
        if new < cur:
            z[x][xp] = new
            return True
        return False

    changed = True
    while changed:
        changed = False
        for x, xp in pairs:
            if refine_pair(x, xp):
                changed = True

    entries = {}
    for x in range(n1):
        for xp in range(n2):
            if not z[x][xp].is_zero:
                entries[x, xp] = z[x][xp]
    return FuzzyRelation(n1, n2, entries)
