"""The causal-graph vocabulary: forward links and topology kinds.

Every other module imports from here. All types are immutable after
construction and safe to share across worker processes.
"""

from __future__ import annotations

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


def topology_kind(edges: Iterable[Link]) -> TopologyKind:
    """The kind of topology that a set of forward edges forms."""
    return _NAMED_EDGE_SETS.get(frozenset(edges), TopologyKind.OTHER)
