"""Compact fuzzy partitions: the block tree of a fuzzy equivalence and its
read-only navigation.  A tree is never written after it is built, so any
number of runs, nested ones included, may share one.

This module alone knows the tree's layout: each block's elements are the
span ``order[lo:hi]``, and the blocks are numbered in preorder.  Other
modules read a row of the equivalence through ``row``, which walks one
leaf-to-root path.  Building and rendering use explicit loops, never
recursion, so the depth of a tree (up to one level per degree) is bounded
only by memory."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import Degree, FuzzyRelation, ONE, ZERO


class Block:
    """One node of the block tree.

    Crisp blocks (leaves) have degree 1 and carry elements directly; fuzzy
    blocks have degree < 1 and at least two subblocks.  Elements are kept as
    a contiguous span over the partition's element ordering, so membership
    and enumeration stay cheap.
    """

    __slots__ = ("id", "degree", "parent", "children", "lo", "hi")

    def __init__(self, block_id: int, degree: Degree, parent: Optional["Block"]):
        self.id = block_id
        self.degree = degree
        self.parent = parent
        self.children: List["Block"] = []
        self.lo = 0
        self.hi = 0

    @property
    def is_crisp(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        kind = "crisp" if self.is_crisp else "fuzzy"
        return f"Block(#{self.id}, {kind}, degree={self.degree})"


class CompactFuzzyPartition:
    """Block tree over a finite carrier, never mutated after construction.

    Blocks are numbered 0..block_count()-1 by ``Block.id`` in ``blocks()``
    order, so per-run state (the minimizer's keepers) lives in lists the run
    owns, indexed by block id.
    """

    def __init__(self, root: Block, blocks: List[Block], order: List[int], names: Sequence[str]):
        self.root = root
        self._blocks = blocks
        self.order = order
        self.names = list(names)
        n = len(order)
        self.pos = [0] * n
        for p, x in enumerate(order):
            self.pos[x] = p
        self.leaf_of: List[Block] = [None] * n  # type: ignore[list-item]
        for b in blocks:
            if b.is_crisp:
                for p in range(b.lo, b.hi):
                    self.leaf_of[order[p]] = b

    @property
    def n(self) -> int:
        return len(self.order)

    def blocks(self) -> Iterator[Block]:
        return iter(self._blocks)

    def block_count(self) -> int:
        return len(self._blocks)

    def block_elements(self, block: Block) -> List[int]:
        return self.order[block.lo:block.hi]

    def contains(self, block: Block, x: int) -> bool:
        return block.lo <= self.pos[x] < block.hi

    def find_block(self, x: int, d: Degree) -> Block:
        """The block on x's root-to-leaf path with the smallest degree >= d.

        A crisp leaf always qualifies (degree 1); d must be positive.
        """
        if d.is_zero:
            raise ValueError("find_block requires a positive degree")
        cur = self.leaf_of[x]
        while cur.parent is not None and cur.parent.degree >= d:
            cur = cur.parent
        return cur

    def render(self, names: Sequence[str] | None = None) -> str:
        """Text form of the tree, e.g. ``{{a1}_1, {{a2}_1,{a3}_1}_0.4}_0``.

        Sibling crisp leaves are joined without a space; any mixed or fuzzy
        sibling list is joined with a comma and a space.
        """
        names = self.names if names is None else list(names)
        # blocks are in preorder, so in reverse every child comes before its parent
        text: Dict[int, str] = {}
        for block in reversed(self._blocks):
            if block.is_crisp:
                inner = ",".join(names[x] for x in self.block_elements(block))
            else:
                sep = "," if all(c.is_crisp for c in block.children) else ", "
                inner = sep.join([text.pop(c.id) for c in block.children])
            text[block.id] = f"{{{inner}}}_{block.degree}"
        return text[self.root.id]

    def row(self, x: int) -> Iterator[Tuple[Degree, List[int]]]:
        """x's row of the equivalence, walked once up from x's leaf: for each
        block of nonzero degree on the path, its degree and the elements first
        met there, so every y with a positive degree to x comes exactly once
        (x itself with degree 1, in its leaf)."""
        order = self.order
        block: Optional[Block] = self.leaf_of[x]
        lo = hi = block.lo
        while block is not None and not block.degree.is_zero:
            # [lo, hi) is the span already visited
            yield block.degree, order[block.lo:lo] + order[hi:block.hi]
            lo, hi, block = block.lo, block.hi, block.parent

    def degree(self, x: int, y: int) -> Degree:
        """Degree of the deepest block holding both x and y (1 inside one leaf)."""
        block = self.leaf_of[x]
        while not self.contains(block, y):
            block = block.parent
        return block.degree

    def to_equivalence(self) -> FuzzyRelation:
        """Reconstruct the fuzzy equivalence: pairs get their least-common-ancestor degree."""
        return self.relation(range(self.n), range(self.n))

    def relation(self, rows: range, cols: range) -> FuzzyRelation:
        """The fuzzy equivalence restricted to rows x cols, each side counted from 0."""
        entries: Dict[Tuple[int, int], Degree] = {}

        def side(block: Block, keep: range) -> List[int]:
            return [x - keep.start for x in self.block_elements(block) if x in keep]

        for block in self._blocks:
            if block.is_crisp:
                for a in side(block, rows):
                    for b in side(block, cols):
                        entries[a, b] = ONE
            elif not block.degree.is_zero:
                kids = [(side(c, rows), side(c, cols)) for c in block.children]
                for i, (left, _) in enumerate(kids):
                    for j, (_, right) in enumerate(kids):
                        if i != j:
                            for a in left:
                                for b in right:
                                    entries[a, b] = block.degree
        return FuzzyRelation(len(rows), len(cols), entries)

    def __repr__(self) -> str:
        return f"CompactFuzzyPartition(n={self.n}, blocks={len(self._blocks)})"


def partition_from_cuts(
    levels: Sequence[Degree],
    cuts: Sequence[Sequence[int]],
    names: Sequence[str],
) -> CompactFuzzyPartition:
    """Build the block tree from the d-cuts of a fuzzy equivalence.

    ``levels`` ascend and end with 1; ``cuts[i][x]`` is the class of x in the
    crisp partition at ``levels[i]``, and each cut refines the one before.  A
    block's degree is the last level at which it is still one class (0 when
    the first cut already splits it), and a child's degree exceeds its
    parent's, so the tree is no deeper than the number of levels.  Children
    are ordered by their least element and leaves list their elements in
    ascending order.  The cuts' carrier must be non-empty, one name each.
    """
    n = len(cuts[-1])
    if n == 0:
        raise ValueError("a partition needs a non-empty carrier")
    if len(names) != n:
        raise ValueError(f"{len(names)} names for a carrier of {n} elements")
    blocks: List[Block] = []
    order: List[int] = []
    top = len(levels)
    # each entry: elements that ascend and are one class in every cut below
    # ``level``; children are pushed in reverse, so blocks come off in preorder
    stack: List[Tuple[List[int], int, Optional[Block]]] = [(list(range(n)), 0, None)]
    while stack:
        elems, level, parent = stack.pop()
        while level < top:
            cut = cuts[level]
            first = cut[elems[0]]
            if any(cut[x] != first for x in elems):
                break
            level += 1
        degree = ONE if level == top else levels[level - 1] if level else ZERO
        b = Block(len(blocks), degree, parent)
        blocks.append(b)
        if parent is not None:
            parent.children.append(b)
        b.lo = len(order)
        b.hi = b.lo + len(elems)
        if level == top:
            order.extend(elems)
        else:
            groups: Dict[int, List[int]] = {}
            for x in elems:
                groups.setdefault(cut[x], []).append(x)
            stack.extend((group, level + 1, b) for group in reversed(groups.values()))
    return CompactFuzzyPartition(blocks[0], blocks, order, names)
