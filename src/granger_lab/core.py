"""The causal-graph vocabulary: forward links, topology kinds and labels.

Every other module imports from here. All types are immutable after
construction and safe to share across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class Link(str, Enum):
    """Directed forward links among the three series."""

    XY = "x->y"
    XZ = "x->z"
    YZ = "y->z"


FORWARD_LINKS = (Link.XY, Link.XZ, Link.YZ)


class TopologyKind(str, Enum):
    COMPLETE = "complete"
    DRIVER = "driver"
    INDIRECT = "indirect"
    NULL = "null"
    OTHER = "other"


_NAMED_EDGE_SETS = {
    frozenset({Link.XY, Link.XZ, Link.YZ}): TopologyKind.COMPLETE,
    frozenset({Link.XY, Link.XZ}): TopologyKind.DRIVER,
    frozenset({Link.XY, Link.YZ}): TopologyKind.INDIRECT,
    frozenset(): TopologyKind.NULL,
}


@dataclass(frozen=True)
class TopologyLabel:
    """A causal topology over (X, Y, Z), identified by its forward edge-set."""

    kind: TopologyKind
    edges: frozenset[Link]

    @classmethod
    def from_edges(cls, edges: Iterable[Link]) -> "TopologyLabel":
        edge_set = frozenset(edges)
        kind = _NAMED_EDGE_SETS.get(edge_set, TopologyKind.OTHER)
        return cls(kind=kind, edges=edge_set)
