"""Reference implementations of the block tree's builder, renderer and
lookup, kept for differential tests against ``fuzzymin.partition`` and the
reduction's ``_Run.locate``.

The builder and renderer recurse once per level of the tree, and the
builder links ``Node`` objects of its own.  It reads the d-cuts one level at
a time and rescans each block's elements per level, as the package did
before it built the tree from the refinement's split log; the trees and
texts they give must be identical.  The lookup scans a whole root path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from fuzzymin.core import Degree, ONE, ZERO
from fuzzymin.partition import CompactFuzzyPartition


class Node:
    """One block of a reference tree, linked to its parent and children."""

    def __init__(self, block_id: int, degree: Degree, parent: Optional["Node"]):
        self.id = block_id
        self.degree = degree
        self.parent = parent
        self.children: List["Node"] = []
        self.lo = self.hi = 0


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
    blocks: List[Node] = []
    order: List[int] = []
    top = len(levels)

    def build(elems: List[int], level: int, parent: Optional[Node]) -> Node:
        # elems ascend and are one class in every cut below ``level``
        while level < top:
            cut = cuts[level]
            first = cut[elems[0]]
            if any(cut[x] != first for x in elems):
                break
            level += 1
        degree = ONE if level == top else levels[level - 1] if level else ZERO
        b = Node(len(blocks), degree, parent)
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
        if not b.children:
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
    children: List[List[int]] = [[] for _ in partition.parent]
    for b, p in enumerate(partition.parent[1:], 1):
        children[p].append(b)

    def go(b: int) -> str:
        kids = children[b]
        if not kids:
            inner = ",".join(names[x] for x in partition.order[partition.lo[b]:partition.hi[b]])
        else:
            sep = "," if all(not children[c] for c in kids) else ", "
            inner = sep.join(go(c) for c in kids)
        return f"{{{inner}}}_{partition.degrees[b]}"

    return go(0)


def locate_reference(partition: CompactFuzzyPartition, x: int, d: Degree) -> int:
    """Linear scan of x's root path, from ``leaf[x]`` over ``parent``, for the
    block with the least degree >= d; the reference for ``_Run.locate``."""
    path = []
    b = partition.leaf[x]
    while b >= 0:
        path.append(b)
        b = partition.parent[b]
    return min((b for b in path if partition.scaled[b] >= d.scaled), key=partition.scaled.__getitem__)
