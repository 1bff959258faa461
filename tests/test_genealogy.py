"""Label arithmetic and topology classification against a brute-force oracle.

The oracle in oracles.py rebuilds the shape of a label tuple by walking the
partition-refinement chain generation by generation. It shares no code with
the classifier under test, which works from pairwise ancestor depths.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowsilt.genealogy import (
    Label,
    Topology,
    arrangement_count,
    classify_topology,
    mrca,
)
from oracles import brute_force_classify


def random_labels(rs, count, depth, roots):
    """Distinct same-depth labels drawn from ``roots`` root indices."""
    while roots * 2 ** depth < 2 * count:
        depth += 1
    out = set()
    while len(out) < count:
        root = int(rs.integers(1, roots + 1))
        bits = tuple(int(b) for b in rs.integers(0, 2, size=depth))
        out.add(Label(root, bits))
    return tuple(out)


def test_label_rejects_bad_input():
    with pytest.raises(ValueError):
        Label(0)
    with pytest.raises(ValueError):
        Label(1, (0, 2))


def test_mrca_prefix_depth():
    a = Label(1, (0, 1, 1, 0))
    b = Label(1, (0, 1, 0, 0))
    anc, depth = mrca(a, b)
    assert depth == 2
    assert anc == Label(1, (0, 1))
    assert mrca(a, Label(2, (0, 1, 1, 0))) is None


def test_classify_rejects_malformed_tuples():
    base = [Label(1, (0,)), Label(2, (0,)), Label(3, (0,)), Label(4, (0,))]
    with pytest.raises(ValueError, match="quadruples only"):
        classify_topology(base[:2])
    with pytest.raises(ValueError, match="quadruples only"):
        classify_topology(base[:3])
    with pytest.raises(ValueError, match="distinct"):
        classify_topology([base[0]] * 4)
    with pytest.raises(ValueError, match="common depth"):
        classify_topology(base[:3] + [Label(4, (0, 1))])


def test_known_quadruple_shapes():
    # four separate roots
    four = [Label(r, (0, 0)) for r in (1, 2, 3, 4)]
    assert classify_topology(four) == (Topology.FOUR_TREES, ())

    # one pair splitting after one shared bit
    pair = [Label(1, (1, 0)), Label(1, (1, 1)), Label(2, (0, 0)), Label(3, (0, 0))]
    assert classify_topology(pair) == (Topology.ONE_PAIR, (1,))

    # nested pairs: first split at depth 0, pair splits at depths 1 and 2
    nested = [Label(1, (0, 0, 0)), Label(1, (0, 1, 0)),
              Label(1, (1, 0, 0)), Label(1, (1, 0, 1))]
    assert classify_topology(nested) == (Topology.NESTED_PAIRS, (0, 1, 2))

    # caterpillar: single leaves peel off at depths 0, 1, 2
    cat = [Label(1, (0, 0, 0)), Label(1, (1, 0, 0)),
           Label(1, (1, 1, 0)), Label(1, (1, 1, 1))]
    assert classify_topology(cat) == (Topology.CATERPILLAR, (0, 1, 2))


def test_classifier_matches_brute_force_on_random_quadruples():
    rs = np.random.default_rng(2024)
    for _ in range(3000):
        labels = random_labels(rs, 4, int(rs.integers(1, 6)), roots=int(rs.integers(1, 5)))
        topo, gens = classify_topology(labels)
        name, oracle_gens = brute_force_classify(labels)
        assert topo.name.lower() == name
        assert gens == oracle_gens


def test_classification_is_permutation_invariant():
    rs = np.random.default_rng(5)
    for _ in range(200):
        labels = random_labels(rs, 4, 3, roots=2)
        ref = classify_topology(labels)
        for perm in itertools.permutations(range(4)):
            assert classify_topology([labels[p] for p in perm]) == ref


def test_arrangement_counts():
    assert arrangement_count(Topology.FOUR_TREES) == 1
    assert arrangement_count(Topology.ONE_PAIR) == 12
    assert arrangement_count(Topology.TWO_PAIRS) == 12
    assert arrangement_count(Topology.TRIPLE_PLUS_ONE) == 48
    assert arrangement_count(Topology.NESTED_PAIRS) == 12
    assert arrangement_count(Topology.CATERPILLAR) == 24


@st.composite
def label_pairs(draw):
    depth = draw(st.integers(min_value=0, max_value=6))
    root = draw(st.integers(min_value=1, max_value=3))
    bits_a = tuple(draw(st.lists(st.integers(0, 1), min_size=depth, max_size=depth)))
    bits_b = tuple(draw(st.lists(st.integers(0, 1), min_size=depth, max_size=depth)))
    return Label(root, bits_a), Label(root, bits_b)


@given(label_pairs())
@settings(max_examples=200)
def test_mrca_is_symmetric_and_bounded(pair):
    a, b = pair
    ra = mrca(a, b)
    rb = mrca(b, a)
    assert ra == rb
    anc, depth = ra
    assert 0 <= depth <= len(a.bits)
    assert a.bits[:depth] == b.bits[:depth]
    if depth < len(a.bits):
        assert a.bits[depth] != b.bits[depth]
