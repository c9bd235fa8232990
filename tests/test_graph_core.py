import math

import pytest
from hypothesis import given

from alliances.graph_core import (
    MAX_ORDER,
    Graph,
    VertexSet,
    girth,
)
from alliances import generators

from strategies import graph_and_proper_subset, graphs


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


class TestGraphConstruction:
    def test_adjacency_is_symmetric_and_sorted(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 3)])
        for u in range(g.n):
            assert list(g.adjacency[u]) == sorted(g.adjacency[u])
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]

    def test_edge_count_is_half_degree_sum(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert g.m == sum(g.degree(v) for v in range(g.n)) // 2 == 5

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_order_ceiling(self):
        def unread_edges():
            raise AssertionError("edges read before the order was checked")
            yield

        assert Graph(MAX_ORDER).n == MAX_ORDER
        with pytest.raises(ValueError, match=f"order {MAX_ORDER + 1} exceeds the ceiling of {MAX_ORDER}"):
            Graph(MAX_ORDER + 1, unread_edges())

    def test_equality_and_hash(self):
        assert triangle() == triangle()
        assert hash(triangle()) == hash(triangle())
        assert triangle() != Graph(3, [(0, 1)])


class TestVertexSet:
    def test_iteration_is_ascending(self):
        s = VertexSet([5, 1, 3])
        assert list(s) == [1, 3, 5]
        assert len(s) == 3
        assert 3 in s and 2 not in s

    def test_from_mask(self):
        assert VertexSet.from_mask(0b1010) == VertexSet([1, 3])

    def test_negative_member_rejected(self):
        with pytest.raises(ValueError):
            VertexSet([-1])


def _components_by_dfs(g):
    seen = [False] * g.n
    count = 0
    for start in range(g.n):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def _girth_by_edge_removal(g):
    """Independent oracle: shortest cycle through edge (u,v) is the shortest
    u-v path with that edge removed, plus one."""
    from collections import deque

    best = math.inf
    for u, v in g.edges():
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for w in g.adjacency[x]:
                if (x, w) in ((u, v), (v, u)):
                    continue
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


class TestGirth:
    def test_petersen(self):
        assert girth(generators.petersen()) == 5

    def test_cycle(self):
        assert girth(generators.cycle(4)) == 4

    def test_path_is_acyclic(self):
        assert girth(generators.path(5)) == math.inf

    def test_triangle_early_exit(self):
        assert girth(generators.complete(6)) == 3

    @given(graphs())
    def test_infinite_iff_forest(self, g):
        acyclic = math.isinf(girth(g))
        assert acyclic == (g.m <= g.n - _components_by_dfs(g))

    @given(graphs(max_n=9))
    def test_matches_edge_removal_oracle(self, g):
        assert girth(g) == _girth_by_edge_removal(g)


class TestConnectivityAndDegrees:
    def test_connected_examples(self):
        assert generators.complete(4).components == 1
        assert Graph(1).components == 1
        two_edges = Graph(4, [(0, 1), (2, 3)])
        assert two_edges.components != 1

    def test_degree_fields(self):
        g = generators.petersen()
        assert (g.min_degree, g.max_degree, g.regular) == (3, 3, 3)
        g = generators.complete_bipartite(3, 6)
        assert (g.min_degree, g.max_degree, g.regular) == (3, 6, None)
        g = Graph(1)
        assert (g.min_degree, g.max_degree, g.regular) == (0, 0, 0)


class TestTwoColouring:
    """``Graph.first_class``: a mask of the smaller colour class of each
    component, or None when the graph has an odd cycle."""

    def test_odd_cycles_have_none(self):
        assert triangle().first_class is None
        assert generators.cycle(7).first_class is None
        assert generators.petersen().first_class is None
        # An edge 0-1, then a triangle found after that bipartite component.
        assert Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]).first_class is None

    def test_first_class_is_the_smaller_side_of_each_component(self):
        # A star on 0..3 centred at 0, a path 4-5-6 and the isolated vertex 7.
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)])
        assert list(VertexSet.from_mask(g.first_class)) == [0, 5]

    def test_a_tie_keeps_the_root_side(self):
        assert list(VertexSet.from_mask(generators.path(4).first_class)) == [0, 2]
        assert list(VertexSet.from_mask(generators.complete(2).first_class)) == [0]

    def test_edgeless(self):
        assert Graph(3).first_class == 0


class TestCountingClaims:
    """The three double-counting identities every proof in the bounds leans on."""

    @staticmethod
    def _sums(g, s):
        inside_in = sum((g.masks[v] & s.mask).bit_count() for v in s)
        inside_out = sum((g.masks[v] & ~s.mask).bit_count() for v in s)
        comp = [v for v in range(g.n) if v not in s]
        outside_in = sum((g.masks[v] & s.mask).bit_count() for v in comp)
        outside_out = sum((g.masks[v] & ~s.mask).bit_count() for v in comp)
        return inside_in, inside_out, outside_in, outside_out

    @given(graph_and_proper_subset())
    def test_edge_partition(self, pair):
        g, s = pair
        inside_in, inside_out, _, outside_out = self._sums(g, s)
        assert 2 * g.m == inside_in + 2 * inside_out + outside_out

    @given(graph_and_proper_subset())
    def test_cut_counted_from_both_sides(self, pair):
        g, s = pair
        _, inside_out, outside_in, _ = self._sums(g, s)
        assert inside_out == outside_in

    @given(graph_and_proper_subset())
    def test_internal_degree_cap(self, pair):
        g, s = pair
        inside_in, _, _, _ = self._sums(g, s)
        assert inside_in <= s.size * (s.size - 1)

