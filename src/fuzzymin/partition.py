"""Compact fuzzy partitions: the block tree of a fuzzy equivalence and its
read-only navigation.  A tree is never written after it is built, so any
number of runs, nested ones included, may share one."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import (
    Degree,
    FuzzyRelation,
    ONE,
    SCALE,
    ZERO,
    is_fuzzy_equivalence,
)


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

        def go(block: Block) -> str:
            if block.is_crisp:
                inner = ",".join(names[x] for x in self.block_elements(block))
            else:
                sep = "," if all(c.is_crisp for c in block.children) else ", "
                inner = sep.join(go(c) for c in block.children)
            return f"{{{inner}}}_{block.degree}"

        return go(self.root)

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
    ascending order.
    """
    blocks: List[Block] = []
    order: List[int] = []
    top = len(levels)

    def build(elems: List[int], level: int, parent: Optional[Block]) -> Block:
        # elems ascend and are one class in every cut below ``level``
        while level < top:
            cut = cuts[level]
            first = cut[elems[0]]
            if any(cut[x] != first for x in elems):
                break
            level += 1
        degree = ONE if level == top else levels[level - 1] if level else ZERO
        b = Block(len(blocks), degree, parent)
        blocks.append(b)
        b.lo = len(order)
        if level == top:
            order.extend(elems)
        else:
            groups: Dict[int, List[int]] = {}
            for x in elems:
                groups.setdefault(cut[x], []).append(x)
            b.children = [build(group, level + 1, b) for group in groups.values()]
        b.hi = len(order)
        return b

    root = build(list(range(len(names))), 0, None)
    return CompactFuzzyPartition(root, blocks, order, names)


def build_compact_partition(
    phi: FuzzyRelation,
    names: Sequence[str] | None = None,
) -> CompactFuzzyPartition:
    """Block tree of a fuzzy equivalence given as a sparse relation."""
    if not phi.is_square:
        raise ValueError("a fuzzy equivalence must be square")
    if not is_fuzzy_equivalence(phi):
        raise ValueError("input relation is not a fuzzy equivalence")
    n = phi.rows
    if names is None:
        names = [str(i) for i in range(n)]
    levels = sorted({SCALE} | {d.scaled for d in phi._entries.values()})
    index = {s: i for i, s in enumerate(levels)}
    # the d-cut class of x is named by its least member: min{y : phi(x, y) >= d}
    cuts = [[0] * n for _ in levels]
    for x in range(n):
        least = [n] * len(levels)
        for y, d in phi.successors(x):
            i = index[d.scaled]
            least[i] = min(least[i], y)
        member = n
        for i in range(len(levels) - 1, -1, -1):
            member = min(member, least[i])
            cuts[i][x] = member
    return partition_from_cuts([Degree.from_scaled(s) for s in levels], cuts, names)
