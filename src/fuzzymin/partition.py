"""Compact fuzzy partitions: the block tree of a fuzzy equivalence and its
read-only navigation.  A tree is never written after it is built, so any
number of runs, nested ones included, may share one.

This module alone knows the tree's layout.  The blocks are numbered in
preorder and held in flat arrays indexed by block id: ``parent`` (-1 at the
root), ``degrees`` and ``scaled`` (each block's degree, as a ``Degree`` and
as a scaled int), and ``lo``/``hi``, which make each block's elements the
span ``order[lo:hi]``; ``leaf[x]`` is the id of x's leaf.  Other modules read
a row of the equivalence through ``row``, which walks one leaf-to-root path,
or read the arrays.  ``blocks`` lists the blocks as ``Block`` tuples, built
afresh on each call.

The tree is built from a ``SplitLog``, the refinement's record of which
class split off from which and at what level, in O(n + classes) plus sorting
each block's children by least element.  Building and rendering use explicit
loops, never recursion, so the depth of a tree (up to one level per degree)
is bounded only by memory."""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .core import Degree, FuzzyRelation, ONE, ZERO


class SplitLog(NamedTuple):
    """The nested crisp partitions (d-cuts) of a fuzzy equivalence, one per
    degree level, as the classes that split off.

    ``levels`` ascend and end with 1.  Class ids are handed out in the order
    the classes appear and never reused, and ``born[c]`` is the index of the
    level at whose cut class c first appears, so it grows with the id.
    ``origin[c]`` is the class that held c's members in the cut before that
    (-1 when c appears in the first cut), so it is older than c.
    ``block[x]`` is x's class in the last cut.  The class of x at level k is
    the first class with ``born <= k`` on the climb from ``block[x]`` through
    ``origin``.
    """

    levels: List[Degree]
    block: List[int]
    origin: List[int]
    born: List[int]

    def degree(self, x: int, y: int) -> Degree:
        """The last level at which x and y share a class (0 if none, 1 if
        they share their last one).

        Climbing the younger of the two classes until the ancestries meet
        visits ever smaller ids, hence ever earlier births, so the pair
        parts at the birth of the last class climbed.
        """
        a, b = self.block[x], self.block[y]
        if a == b:
            return ONE
        origin = self.origin
        while a != b:
            if a > b:
                last, a = a, origin[a]
            else:
                last, b = b, origin[b]
        k = self.born[last]
        return self.levels[k - 1] if k else ZERO


class Block(NamedTuple):
    """One block of the tree, read off its arrays: the parent is an id (-1
    at the root) and the elements are the span ``order[lo:hi]``.  Crisp
    blocks (leaves) have degree 1; fuzzy blocks have degree < 1 and at least
    two subblocks."""

    id: int
    degree: Degree
    parent: int
    lo: int
    hi: int

    @property
    def is_crisp(self) -> bool:
        return self.degree == ONE


class CompactFuzzyPartition:
    """Block tree over a finite carrier, never mutated after construction.

    Blocks are numbered 0..len(parent)-1 in preorder, children ordered by
    least element, so per-run state (the minimizer's keepers) lives in lists
    the run owns, indexed by block id.  The arrays are described in the
    module docstring; callers must not write to them.
    """

    def __init__(
        self,
        parent: List[int],
        degrees: List[Degree],
        lo: List[int],
        hi: List[int],
        order: List[int],
        leaf: List[int],
        names: Sequence[str],
    ):
        self.parent = parent
        self.degrees = degrees
        self.scaled = [d.scaled for d in degrees]
        self.lo = lo
        self.hi = hi
        self.order = order
        self.leaf = leaf
        self.names = list(names)

    @property
    def n(self) -> int:
        return len(self.order)

    def blocks(self) -> List[Block]:
        return list(map(Block, range(len(self.parent)), self.degrees, self.parent, self.lo, self.hi))

    def render(self, names: Sequence[str] | None = None) -> str:
        """Text form of the tree, e.g. ``{{a1}_1, {{a2}_1,{a3}_1}_0.4}_0``.

        Sibling crisp leaves are joined without a space; any mixed or fuzzy
        sibling list is joined with a comma and a space.
        """
        names = self.names if names is None else list(names)
        order, lo, hi = self.order, self.lo, self.hi
        kids = [0] * len(self.parent)
        for p in self.parent[1:]:
            kids[p] += 1
        # blocks are in preorder, so in reverse every block comes after its
        # children, whose texts then lie on top of the stack, first child last
        texts: List[str] = []
        crisp: List[bool] = []
        for b in range(len(self.parent) - 1, -1, -1):
            k = kids[b]
            if k == 0:
                inner = ",".join([names[x] for x in order[lo[b]:hi[b]]])
            else:
                sep = "," if all(crisp[-k:]) else ", "
                inner = sep.join(reversed(texts[-k:]))
                del texts[-k:], crisp[-k:]
            texts.append(f"{{{inner}}}_{self.degrees[b]}")
            crisp.append(k == 0)
        return texts[0]

    def row(self, x: int) -> Iterator[Tuple[int, List[int]]]:
        """x's row of the equivalence, walked once up from x's leaf: for each
        block of nonzero degree on the path, its scaled degree and the elements
        first met there, so every y with a positive degree to x comes exactly
        once (x itself with degree 1, in its leaf)."""
        order, parent, scaled, lo_of, hi_of = self.order, self.parent, self.scaled, self.lo, self.hi
        b = self.leaf[x]
        lo = hi = lo_of[b]
        while b >= 0 and scaled[b]:
            # [lo, hi) is the span already visited
            yield scaled[b], order[lo_of[b]:lo] + order[hi:hi_of[b]]
            lo, hi, b = lo_of[b], hi_of[b], parent[b]

    def to_equivalence(self) -> FuzzyRelation:
        """Reconstruct the fuzzy equivalence: pairs get their least-common-ancestor degree."""
        return self.relation(range(self.n), range(self.n))

    def relation(self, rows: range, cols: range) -> FuzzyRelation:
        """The fuzzy equivalence restricted to rows x cols, each side counted from 0."""
        out = [{y - cols.start: degree for degree, elems in self.row(x) for y in elems if y in cols}
               for x in rows]
        return FuzzyRelation._trusted(len(rows), len(cols), enumerate(out))

    def __repr__(self) -> str:
        return f"CompactFuzzyPartition(n={self.n}, blocks={len(self.parent)})"


def partition_from_log(log: SplitLog, names: Sequence[str]) -> CompactFuzzyPartition:
    """Build the block tree from a split log.

    A block is a class as it stands before one of its split levels (its
    members then are its own and those of every class that later comes out
    of it), or, once it splits no more, the class itself, a leaf.  The root
    is the whole carrier, the class -1 that the first cut splits, or the
    first cut's one class if it does not split.  A block's degree is the
    level before its split (0 when the first cut already splits it), and its
    children are the class before its next split level plus each class its
    split makes, ordered by least element.  Leaves list their elements in
    ascending order.  The carrier must be non-empty, one name each.
    """
    levels, block, origin, born = log
    n = len(block)
    if n == 0:
        raise ValueError("a partition needs a non-empty carrier")
    if len(names) != n:
        raise ValueError(f"{len(names)} names for a carrier of {n} elements")
    # the classes each split makes, by the class that splits, levels ascending
    splits: Dict[int, List[Tuple[int, List[int]]]] = {}
    for c, (o, k) in enumerate(zip(origin, born)):
        at = splits.get(o)
        if at is None:
            splits[o] = [(k, [c])]
        elif at[-1][0] == k:
            at[-1][1].append(c)
        else:
            at.append((k, [c]))
    # least element, elements and blocks of each class's leaf, then of its
    # top block; spans[c][i]: the same for c before its i-th split (the last
    # entry its leaf), summed from the last split back, younger classes first
    first = dict(zip(reversed(block), range(n - 1, -1, -1)))
    size = Counter(block)
    classes = range(len(origin))
    least = list(map(first.__getitem__, classes))
    count = list(map(size.__getitem__, classes))
    tally = [1] * len(origin)
    spans: Dict[int, List[Tuple[int, int, int]]] = {}
    for c in sorted(splits, reverse=True):
        low, elems, blocks = (least[c], count[c], 1) if c >= 0 else (n, 0, 0)
        at = [(low, elems, blocks)]
        for _, group in reversed(splits[c]):
            for d in group:
                if least[d] < low:
                    low = least[d]
                elems += count[d]
                blocks += tally[d]
            blocks += 1
            at.append((low, elems, blocks))
        at.reverse()
        spans[c] = at
        if c >= 0:
            least[c], count[c], tally[c] = at[0]

    top = splits[-1][0][1]  # the classes of the first cut
    root = -1 if len(top) > 1 else top[0]
    total = spans[-1][0][2] if root < 0 else tally[root]
    parent = [-1] * total
    degrees = [ONE] * total
    lo = [0] * total
    hi = [0] * total
    leaf_of_class = [0] * len(origin)
    # each entry: a block, its children in order of least element, and the
    # first child's id and position; a child's subtree takes the ids and
    # positions up to its next sibling's, so this is preorder
    pending = [(-1, [(0, root, 0)], 0, 0)]
    while pending:
        b, kids, nid, pos = pending.pop()
        for _, c, i in kids:
            parent[nid] = b
            lo[nid] = pos
            at = spans.get(c)
            if at is None:
                elems, blocks = count[c], 1
            else:
                _, elems, blocks = at[i]
            if blocks == 1:
                leaf_of_class[c] = nid
            else:
                k, group = splits[c][i]
                degrees[nid] = levels[k - 1] if k else ZERO
                below = [(least[d], d, 0) for d in group]
                if c >= 0:
                    below.append((at[i + 1][0], c, i + 1))
                below.sort()
                pending.append((nid, below, nid + 1, pos))
            pos += elems
            hi[nid] = pos
            nid += blocks
    leaf = list(map(leaf_of_class.__getitem__, block))
    order = sorted(range(n), key=leaf.__getitem__)  # stable, so each leaf ascends
    return CompactFuzzyPartition(parent, degrees, lo, hi, order, leaf, names)
