"""Shared domain types: time series, link decisions and the causal-graph vocabulary.

Every other module imports from here. All types are immutable after
construction and safe to share across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .criteria import TestOutcome


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

    @classmethod
    def driver(cls) -> "TopologyLabel":
        return cls.from_edges({Link.XY, Link.XZ})

    @classmethod
    def indirect(cls) -> "TopologyLabel":
        return cls.from_edges({Link.XY, Link.YZ})

    @classmethod
    def null(cls) -> "TopologyLabel":
        return cls.from_edges(())


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real-valued samples; the unit of all generation and analysis."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("a time series must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("time series values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def length(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.length


@dataclass(frozen=True)
class LinkDecision:
    """One directed link together with its test outcome and the verdict."""

    link: str
    outcome: "TestOutcome"
    decided_causal: bool
