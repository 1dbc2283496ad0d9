"""Tests for the dependency tree and processing order."""

import pytest

from repro.core.tree import (build_dependency_tree, topological_order)


class TestBuildTree:
    def test_path_graph(self):
        tree = build_dependency_tree(3, [(0, 1), (1, 2)], root=0)
        assert tree.root == 0
        assert tree.parent[1] == 0
        assert tree.parent[2] == 1

    def test_star_from_fig7(self):
        """The paper's Fig. 7: nodes 1,4,3 all hang off hub 2
        (0-indexed: 0,3,2 hang off 1)."""
        tree = build_dependency_tree(4, [(0, 1), (1, 2), (1, 3)], root=0)
        assert tree.parent[1] == 0
        assert tree.parent[2] == 1
        assert tree.parent[3] == 1

    def test_cycle_becomes_tree(self):
        tree = build_dependency_tree(4, [(0, 1), (1, 2), (2, 3), (3, 0)], root=0)
        # BFS from 0 visits 1 and 3 as children, 2 via the smaller parent
        assert tree.parent[1] == 0
        assert tree.parent[3] == 0
        assert tree.parent[2] in (1, 3)

    def test_neighbors_parent_and_children(self):
        tree = build_dependency_tree(3, [(0, 1), (1, 2)], root=0)
        assert tree.neighbors(1) == [0, 2]
        assert tree.neighbors(0) == [1]

    def test_disconnected_node_has_no_parent(self):
        tree = build_dependency_tree(3, [(0, 1)], root=0)
        assert tree.parent[1] == 0
        assert tree.parent[2] < 0  # unreachable from the root

    def test_validation(self):
        with pytest.raises(ValueError, match="root"):
            build_dependency_tree(2, [], root=5)
        with pytest.raises(ValueError, match="self-adjacency"):
            build_dependency_tree(2, [(0, 0)], root=0)
        with pytest.raises(ValueError, match="out of range"):
            build_dependency_tree(2, [(0, 7)], root=0)


class TestTopologicalOrder:
    def test_leaves_first_children_precede_parents(self):
        tree = build_dependency_tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)],
                                     root=0)
        order = topological_order(tree, 5)
        pos = {n: i for i, n in enumerate(order)}
        for n in range(5):
            p = tree.parent[n]
            if p >= 0:
                assert pos[n] < pos[p], f"child {n} after parent {p}"
        assert order[-1] == 0  # root last

    def test_every_nonroot_has_unvisited_neighbor_when_processed(self):
        """The guarantee Algorithm 1 needs to settle every residual."""
        tree = build_dependency_tree(
            6, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5)], root=0)
        order = topological_order(tree, 6)
        visited = set()
        for n in order[:-1]:
            visited.add(n)
            assert any(m not in visited for m in tree.neighbors(n))

    def test_root_first_mode(self):
        tree = build_dependency_tree(3, [(0, 1), (1, 2)], root=0)
        order = topological_order(tree, 3, leaves_first=False)
        assert order[0] == 0

    def test_disconnected_nodes_appended(self):
        tree = build_dependency_tree(4, [(0, 1)], root=0)
        order = topological_order(tree, 4)
        assert set(order) == {0, 1, 2, 3}
        assert order[-2:] == [2, 3]

    def test_single_node(self):
        tree = build_dependency_tree(1, [], root=0)
        assert topological_order(tree, 1) == [0]

    def test_paper_fig7_order_shape(self):
        """Star tree: all leaves precede the hub; the hub is second-last
        (before any disconnected nodes) and the root is one of the
        leaves processed early."""
        # 0-indexed star: hub 1; leaves 0, 2, 3; root = leaf 0
        tree = build_dependency_tree(4, [(0, 1), (1, 2), (1, 3)], root=0)
        order = topological_order(tree, 4)
        assert order[-1] == 0  # root (leaf) settled last by conservation
        assert order[-2] == 1  # hub just before
        assert set(order[:2]) == {2, 3}
