import numpy as np
import pytest

from granger_lab.core import Link, TimeSeries, TopologyKind, TopologyLabel

ALL_LINKS = (Link.XY, Link.XZ, Link.YZ)


class TestTopologyLabel:
    def test_named_edge_sets(self):
        assert TopologyLabel.driver().kind is TopologyKind.DRIVER
        assert TopologyLabel.driver().edges == {Link.XY, Link.XZ}
        assert TopologyLabel.indirect().edges == {Link.XY, Link.YZ}
        assert TopologyLabel.from_edges(ALL_LINKS).kind is TopologyKind.COMPLETE
        assert TopologyLabel.null().edges == frozenset()

    def test_unnamed_is_other(self):
        label = TopologyLabel.from_edges({Link.YZ})
        assert label.kind is TopologyKind.OTHER


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([]))

    def test_length(self):
        assert TimeSeries(np.arange(5.0)).length == 5
