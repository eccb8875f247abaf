"""Reference implementations of the bisimulation computations, kept for
differential tests against ``fuzzymin.bisim``.

- ``greatest_bisimulation_reference`` is a small order-parameterized
  refinement engine over the pairs of the two domains; it shares no code
  with the level-wise signature engine.
- ``encode_reference`` lists each vertex's labels and edges from the graphs'
  sorted ``items()``, the lists the engine's encoder must give for the whole
  graph.
- ``cuts_from_log`` expands the engine's split log into the class of every
  vertex at every level.
- ``bisimilarity_degree_reference`` refines the whole disjoint union and
  builds its block tree from the cuts with the recursive reference builder,
  then reads the degree at each individual pair.
- ``check_bisimulation_reference`` tests the four defining conditions with a
  ``Degree`` lookup per pair of successors and scans every individual name
  for condition (4).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from fuzzymin.bisim import BisimViolation, FuzzyLabeledGraph, _encode, _refine, to_fuzzy_graph
from fuzzymin.core import Degree, FuzzyRelation, ONE, ZERO, biresiduum, tnorm
from fuzzymin.model import FuzzyInterpretation, basic_roles, normalize_features
from fuzzymin.partition import SplitLog
from partition_reference import partition_from_cuts_reference


def encode_reference(graphs: Sequence[FuzzyLabeledGraph]) -> Tuple[list, list, int]:
    """Per-vertex label lists [(token, scaled degree)] and edge lists
    [(scaled degree, role, target)] of the graphs side by side, each one's
    vertices shifted by the sizes of those before it, plus the number of
    roles: read off the public, sorted ``items()``."""
    labels, out = [], []
    for g in graphs:
        shift = len(labels)
        labels += [[] for _ in range(g.n)]
        out += [[] for _ in range(g.n)]
        for t, token in enumerate(g.vertex_labels):
            for v, d in g.labels[token].items():
                labels[shift + v].append((t, d.scaled))
        for r, role in enumerate(g.edge_labels):
            for (x, y), d in g.edges[role].items():
                out[shift + x].append((d.scaled, r, shift + y))
    return labels, out, len(graphs[0].edge_labels)


def cuts_from_log(log: SplitLog) -> List[List[int]]:
    """The class of every vertex in each level's cut: the members of a class
    born after the level still belong to the class that held them before."""
    cuts = []
    for k in range(len(log.levels)):
        at: List[int] = []
        for c, (o, b) in enumerate(zip(log.origin, log.born)):
            at.append(c if b <= k else at[o])
        cuts.append([at[c] for c in log.block])
    return cuts


def bisimilarity_degree_reference(
    interp1: FuzzyInterpretation,
    interp2: FuzzyInterpretation,
    features: Iterable[str] | None = None,
) -> Degree:
    """min over individuals a of Z(a in the first, a in the second), read off
    the block tree of the whole union's greatest auto-bisimulation."""
    if not interp1.signature.same_names(interp2.signature):
        raise ValueError("interpretations use different signatures")
    fs = normalize_features(features)
    graphs = [to_fuzzy_graph(interp1, fs), to_fuzzy_graph(interp2, fs)]
    log, _ = _refine(*_encode(graphs, range(interp1.n + interp2.n))[:3])
    partition = partition_from_cuts_reference(log.levels, cuts_from_log(log), interp1.domain + interp2.domain)
    n1 = interp1.n
    return min(
        partition.degree(interp1.individual_element(a), n1 + interp2.individual_element(a))
        for a in interp1.signature.individual_names
    )


def check_bisimulation_reference(
    Z: FuzzyRelation,
    interp1: FuzzyInterpretation,
    interp2: FuzzyInterpretation,
    features: Iterable[str] | None = None,
) -> List[BisimViolation]:
    """Enumerate every violated instance of the four bisimulation conditions,
    one ``Z.value`` lookup and one ``tnorm`` per pair of successors.

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
