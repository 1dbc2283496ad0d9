"""Dependency tree and processing order (Algorithm 1, lines 13-19).

The balancer models data dependencies between nodes as a tree: vertices
are compute nodes, and an edge may exist only where one node owns an SD
adjacent to the SP of the other (so SD transfers between them do not
create new dependencies).  The tree is a BFS spanning tree of that node
adjacency graph rooted at the most-imbalanced node
(``argmin LoadImbalance``), and nodes are processed in BFS preorder — the
"topological ordering" of the paper: every node settles its imbalance
with its not-yet-visited tree neighbours, so already-processed nodes are
never unbalanced again.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..mesh.subdomain import SubdomainGrid

__all__ = ["DependencyTree", "build_dependency_tree", "node_adjacency",
           "topological_order"]


def node_adjacency(sd_grid: SubdomainGrid,
                   parts: np.ndarray) -> List[Tuple[int, int]]:
    """Sorted unordered node pairs ``(a, b)``, ``a < b``, with at least
    one SD face adjacency under ownership ``parts``.

    This is the edge set of the dependency tree (Algorithm 1 lines
    13-18): nodes are connected iff an SD of one is adjacent to the SP
    of the other.  One gather of the grid's face array.
    """
    parts = np.asarray(parts, dtype=np.int64)
    own = parts[:, None]
    nbr = sd_grid.face_owners(parts)
    cross = (nbr >= 0) & (nbr != own)
    lo = np.minimum(own, nbr)[cross]
    hi = np.maximum(own, nbr)[cross]
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return [(a, b) for a, b in pairs.tolist()]


class DependencyTree:
    """BFS spanning tree over the node-adjacency graph.

    Attributes
    ----------
    root:
        The tree root (most imbalanced node).
    parent:
        ``parent[n]`` is ``n``'s tree parent (-1 for the root and for
        nodes unreachable from the root, which can only happen if the
        node adjacency graph is disconnected).
    children:
        Adjacency lists of the tree, sorted for determinism.
    """

    def __init__(self, root: int, parent: List[int],
                 children: Dict[int, List[int]]) -> None:
        self.root = root
        self.parent = parent
        self.children = children

    def neighbors(self, n: int) -> List[int]:
        """Tree neighbours of ``n`` (parent + children)."""
        out = list(self.children.get(n, []))
        if self.parent[n] >= 0:
            out.append(self.parent[n])
        return sorted(out)


def build_dependency_tree(num_nodes: int,
                          adjacency: Sequence[Tuple[int, int]],
                          root: int) -> DependencyTree:
    """Build the BFS spanning tree from undirected node ``adjacency`` pairs.

    ``adjacency`` is typically :func:`node_adjacency`.
    Neighbour lists are visited in sorted order so the tree (and hence
    the whole balancing step) is deterministic.
    """
    if not 0 <= root < num_nodes:
        raise ValueError(f"root {root} outside [0,{num_nodes})")
    nbrs: Dict[int, List[int]] = {n: [] for n in range(num_nodes)}
    for a, b in adjacency:
        if a == b:
            raise ValueError(f"self-adjacency for node {a}")
        if not (0 <= a < num_nodes and 0 <= b < num_nodes):
            raise ValueError(f"adjacency pair ({a},{b}) out of range")
        nbrs[a].append(b)
        nbrs[b].append(a)
    parent = [-1] * num_nodes
    children: Dict[int, List[int]] = {n: [] for n in range(num_nodes)}
    seen = {root}
    queue = deque([root])
    while queue:
        n = queue.popleft()
        for m in sorted(nbrs[n]):
            if m not in seen:
                seen.add(m)
                parent[m] = n
                children[n].append(m)
                queue.append(m)
    return DependencyTree(root, parent, children)


def topological_order(tree: DependencyTree, num_nodes: int,
                      leaves_first: bool = True) -> List[int]:
    """Processing order of Algorithm 1 lines 19-34.

    With ``leaves_first=True`` (the default) the order is the reverse of
    the BFS preorder: children always precede their parent.  That gives
    the walk its key guarantee — when a node is processed, its tree
    parent is still unvisited, so the node can always settle its entire
    residual imbalance (the root goes last and is balanced by
    conservation).  This reproduces the paper's example ordering
    1 -> 4 -> 3 -> 2 for the star tree of Fig. 7 (leaves 1, 4, 3 first,
    hub 2 last) and is the "least data-dependency first" rule stated in
    the text.

    ``leaves_first=False`` yields the plain BFS preorder (root first);
    it is kept for the ablation that shows why the leaves-first order is
    needed (BFS-first strands residuals on tree leaves).

    Nodes disconnected from the root (possible only with a disconnected
    node-adjacency graph) are appended at the end in id order; they have
    no one to exchange with, so their position is immaterial.
    """
    preorder: List[int] = []
    queue = deque([tree.root])
    while queue:
        n = queue.popleft()
        preorder.append(n)
        for c in tree.children.get(n, []):
            queue.append(c)
    order = list(reversed(preorder)) if leaves_first else preorder
    leftover = [n for n in range(num_nodes) if n not in set(order)]
    return order + sorted(leftover)
