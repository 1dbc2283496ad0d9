"""Structural checks of a CSR :class:`repro.partition.graph.Graph`."""

import numpy as np


def num_edges(graph):
    """Undirected edge count: every edge is stored once per end."""
    return len(graph.adjncy) // 2


def assert_symmetric_without_self_loops(graph):
    """Every stored edge has its reverse, and no vertex neighbours itself."""
    n = graph.num_vertices
    adj = np.zeros((n, n), dtype=bool)
    adj[np.repeat(np.arange(n), np.diff(graph.xadj)), graph.adjncy] = True
    assert not adj.diagonal().any()
    assert (adj == adj.T).all()
