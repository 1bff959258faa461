"""Label arithmetic and ancestral-topology classification.

A particle label is a root index plus the bit string of left/right choices
taken at each branch point. Two labels share ancestry exactly when their
roots agree; the most recent common ancestor is then the longest common
bit prefix.

Quadruples of labels alive at a common generation fall into six shapes:

    FOUR_TREES      four distinct roots, no shared ancestry
    ONE_PAIR        three roots; exactly one pair shares a tree
    TWO_PAIRS       two roots, holding two particles each
    TRIPLE_PLUS_ONE two roots, holding three and one
    NESTED_PAIRS    one root; the first split separates two pairs
    CATERPILLAR     one root; splits peel off one particle at a time

Classification reads only label prefixes, never particle lifetimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import comb
from typing import Optional, Sequence


class Topology(Enum):
    FOUR_TREES = "I"
    ONE_PAIR = "II"
    TWO_PAIRS = "III"
    TRIPLE_PLUS_ONE = "IV"
    NESTED_PAIRS = "VA"
    CATERPILLAR = "VB"


@dataclass(frozen=True)
class Label:
    """Root index plus branch bits, oldest bit first."""

    root: int
    bits: tuple[int, ...] = ()

    def __post_init__(self):
        if self.root < 1:
            raise ValueError("root indices start at 1")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def __repr__(self):
        return f"({self.root};{','.join(str(b) for b in self.bits)})"


def mrca(a: Label, b: Label) -> Optional[tuple[Label, int]]:
    """Most recent common ancestor and its depth, or None across roots."""
    if a.root != b.root:
        return None
    r = 0
    for xa, xb in zip(a.bits, b.bits):
        if xa != xb:
            break
        r += 1
    return Label(a.root, a.bits[:r]), r


def _pair_depth(a: Label, b: Label) -> Optional[int]:
    m = mrca(a, b)
    return None if m is None else m[1]


def _classify_quadruple(labels: Sequence[Label]) -> tuple[Topology, tuple[int, ...]]:
    groups: dict[int, list[int]] = {}
    for idx, lab in enumerate(labels):
        groups.setdefault(lab.root, []).append(idx)
    sizes = sorted(len(g) for g in groups.values())

    if sizes == [1, 1, 1, 1]:
        return Topology.FOUR_TREES, ()

    if sizes == [1, 1, 2]:
        pair = next(g for g in groups.values() if len(g) == 2)
        r = _pair_depth(labels[pair[0]], labels[pair[1]])
        return Topology.ONE_PAIR, (r,)

    if sizes == [2, 2]:
        depths = sorted(
            _pair_depth(labels[g[0]], labels[g[1]])
            for g in groups.values()
        )
        return Topology.TWO_PAIRS, tuple(depths)

    if sizes == [1, 3]:
        trio = next(g for g in groups.values() if len(g) == 3)
        d01 = _pair_depth(labels[trio[0]], labels[trio[1]])
        d02 = _pair_depth(labels[trio[0]], labels[trio[2]])
        d12 = _pair_depth(labels[trio[1]], labels[trio[2]])
        depths = sorted((d01, d02, d12))
        # binary ancestry forces the two smallest to coincide
        return Topology.TRIPLE_PLUS_ONE, (depths[0], depths[2])

    # single root: split at the global MRCA depth and look at branch sizes
    idxs = list(range(4))
    d = {(i, j): _pair_depth(labels[i], labels[j])
         for i in idxs for j in idxs if i < j}
    r1 = min(d.values())
    # partner sets: i~j when their ancestry extends strictly below r1
    branch_of = {}
    seed_idx = 0
    branch_of[seed_idx] = 0
    for j in range(1, 4):
        key = (min(seed_idx, j), max(seed_idx, j))
        branch_of[j] = 0 if d[key] > r1 else 1
    branch0 = [i for i in idxs if branch_of[i] == 0]
    branch1 = [i for i in idxs if branch_of[i] == 1]
    if len(branch0) == 2:
        ra = d[(min(branch0), max(branch0))]
        rb = d[(min(branch1), max(branch1))]
        lo, hi = sorted((ra, rb))
        return Topology.NESTED_PAIRS, (r1, lo, hi)
    if len(branch0) == 1:
        trio = branch1
    else:
        trio = branch0
    dd = sorted(d[(min(p), max(p))] for p in
                [(trio[0], trio[1]), (trio[0], trio[2]), (trio[1], trio[2])])
    return Topology.CATERPILLAR, (r1, dd[0], dd[2])


def classify_topology(labels: Sequence[Label]) -> tuple[Topology, tuple[int, ...]]:
    """Classify a quadruple of distinct same-depth labels.

    Returns the shape together with the split depths, sorted ascending.
    """
    labels = list(labels)
    if len(labels) != 4:
        raise ValueError("classification handles quadruples only")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    depth = len(labels[0])
    if any(len(lab) != depth for lab in labels):
        raise ValueError("labels must share a common depth")
    return _classify_quadruple(labels)


# Ordered-assignment multiplicities for quadruple shapes, relative to an
# ordered sum over the distinct root indices involved. The counts are
# products of the free choices left after fixing the tree shape: which
# tuple positions land on which subtree and which of them form the bottom
# pair. Four disjoint trees leave no residual choice, so the factor is 1.
_ARRANGEMENTS = {
    Topology.FOUR_TREES: 1,
    Topology.ONE_PAIR: 2 * comb(4, 2),                      # 12
    Topology.TWO_PAIRS: 2 * comb(4, 2),                     # 12
    Topology.TRIPLE_PLUS_ONE: 2 * comb(2, 1) * comb(3, 2) * comb(4, 3),  # 48
    Topology.NESTED_PAIRS: comb(1, 1) * comb(2, 1) * comb(4, 2),         # 12
    Topology.CATERPILLAR: comb(1, 1) * comb(2, 1) * comb(3, 2) * comb(4, 3),  # 24
}


def arrangement_count(topology: Topology) -> int:
    """Ordered-assignment multiplicity of a quadruple shape."""
    return _ARRANGEMENTS[topology]
