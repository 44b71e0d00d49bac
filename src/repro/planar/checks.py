"""Validation helpers for planar inputs.

The CONGEST algorithms in this library are only correct on connected planar
graphs (Theorem 1/2 hypotheses).  These helpers give the public API typed,
early failures instead of silent nonsense deep inside a phase.
"""

from __future__ import annotations

import networkx as nx

__all__ = [
    "NotPlanarError",
    "NotConnectedError",
    "require_planar",
    "require_connected",
    "require_planar_connected",
]


class NotPlanarError(ValueError):
    """The input graph is not planar."""


class NotConnectedError(ValueError):
    """The input graph (or an induced part) is not connected."""


def require_planar(graph: nx.Graph) -> nx.PlanarEmbedding:
    """Raise :class:`NotPlanarError` unless ``graph`` is planar.

    Returns the embedding the left-right planarity test found, so a
    caller that needs one does not run the test again.
    """
    is_planar, embedding = nx.check_planarity(graph, counterexample=False)
    if not is_planar:
        raise NotPlanarError(
            f"graph with {len(graph)} nodes / {graph.number_of_edges()} edges "
            "is not planar"
        )
    return embedding


def require_connected(graph: nx.Graph, what: str = "graph") -> None:
    """Raise :class:`NotConnectedError` unless ``graph`` is connected."""
    if len(graph) == 0:
        raise NotConnectedError(f"{what} is empty")
    if not nx.is_connected(graph):
        raise NotConnectedError(f"{what} is not connected")


def require_planar_connected(graph: nx.Graph) -> None:
    """Validate the standing hypotheses of Theorems 1 and 2."""
    require_connected(graph)
    require_planar(graph)
