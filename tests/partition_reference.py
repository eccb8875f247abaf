"""Reference implementations of the block tree's builder and renderer, kept
for differential tests against ``fuzzymin.partition``.

Both recurse once per level of the tree.  The builder reads the d-cuts one
level at a time and rescans each block's elements per level, as the package
did before it built the tree from the refinement's split log; the trees and
texts they give must be identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from fuzzymin.core import Degree, ONE, ZERO
from fuzzymin.partition import Block, CompactFuzzyPartition


def partition_from_cuts_reference(
    levels: Sequence[Degree],
    cuts: Sequence[Sequence[int]],
    names: Sequence[str],
) -> CompactFuzzyPartition:
    """The block tree of the cuts, built by one recursive call per block."""
    n = len(cuts[-1])
    if n == 0:
        raise ValueError("a partition needs a non-empty carrier")
    if len(names) != n:
        raise ValueError(f"{len(names)} names for a carrier of {n} elements")
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

    build(list(range(n)), 0, None)
    leaf = [0] * n
    for b in blocks:
        if b.is_crisp:
            for x in order[b.lo:b.hi]:
                leaf[x] = b.id
    return CompactFuzzyPartition(
        [-1 if b.parent is None else b.parent.id for b in blocks],
        [b.degree for b in blocks],
        [b.lo for b in blocks],
        [b.hi for b in blocks],
        order,
        leaf,
        names,
    )


def render_reference(partition: CompactFuzzyPartition, names: Sequence[str] | None = None) -> str:
    """The tree's text, built by one recursive call per block."""
    names = partition.names if names is None else list(names)

    def go(block: Block) -> str:
        if block.is_crisp:
            inner = ",".join(names[x] for x in partition.block_elements(block))
        else:
            sep = "," if all(c.is_crisp for c in block.children) else ", "
            inner = sep.join(go(c) for c in block.children)
        return f"{{{inner}}}_{block.degree}"

    return go(partition.root)
