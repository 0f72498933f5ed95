"""The benchmark's reference on hand-computed instances.

Run with ``python3 -m pytest e2ebench -q`` from the root of a checkout.
"""

from inproc import FOUR_CLIQUE, FOUR_CYCLE, TRIANGLE, TRIANGLE_VERTEX
from reference import Query, Reference

CHAIN = {"A": [(1, 2), (2, 3), (3, 4)]}
K4 = {"E": [(a, b) for a in range(4) for b in range(4) if a != b]}


def test_chain_paths():
    ref = Reference(CHAIN)
    two = Query(["x", "z"], [("A", ["x", "y"]), ("A", ["y", "z"])])
    three = Query(["x", "w"], [("A", ["x", "y"]), ("A", ["y", "z"]), ("A", ["z", "w"])])
    assert ref.answers(two) == {(1, 3), (2, 4)}
    assert ref.answers(three) == {(1, 4)}
    assert ref.count(Query(["x", "y", "z"], two.atoms)) == 2
    assert ref.satisfies(two, (1, 3)) and not ref.satisfies(two, (1, 4))
    assert ref.at_least(two, 1) == 1 and ref.at_least(two, 5) == 2


def test_chain_updates():
    ref = Reference(CHAIN)
    two = Query(["x", "z"], [("A", ["x", "y"]), ("A", ["y", "z"])])
    assert ref.answers(two) == {(1, 3), (2, 4)}  # builds the indexes
    ref.discard("A", (2, 3))
    assert ref.answers(two) == set() and not ref.nonempty(two)
    ref.add("A", (4, 5))
    assert ref.answers(two) == {(3, 5)}
    assert ("A", (4, 5)) in ref and ("A", (2, 3)) not in ref


def test_k4_triangles_and_cliques():
    ref = Reference(K4)
    assert ref.triangles("E") == 24
    assert ref.count(TRIANGLE) == 24
    assert ref.answers(TRIANGLE_VERTEX) == {(0,), (1,), (2,), (3,)}
    assert ref.triangle_vertices("E") == {0, 1, 2, 3}
    assert ref.four_cliques("E") == 24 == ref.count(FOUR_CLIQUE)
    assert ref.is_clique("E", (0, 1, 2, 3))


def test_k4_four_cycles():
    # a = c: 4 choices, b and d any of 3 neighbours: 36; a != c: 12
    # ordered pairs, b and d any of the 2 common neighbours: 48.
    ref = Reference(K4)
    assert ref.four_cycles("E") == 84 == ref.count(FOUR_CYCLE)


def test_k4_minus_an_edge():
    ref = Reference(K4)
    ref.discard("E", (0, 1))
    ref.discard("E", (1, 0))
    assert ref.triangles("E") == 12  # two triangles left, six orders each
    assert ref.triangles("E") == ref.count(TRIANGLE)
    assert ref.four_cliques("E") == 0 and not ref.is_clique("E", (0, 1, 2, 3))
    assert ref.four_cycles("E") == ref.count(FOUR_CYCLE)
