from granger_lab.core import Link, TopologyKind, TopologyLabel

ALL_LINKS = (Link.XY, Link.XZ, Link.YZ)


class TestTopologyLabel:
    def test_named_edge_sets(self):
        assert TopologyLabel.from_edges({Link.XY, Link.XZ}).kind is TopologyKind.DRIVER
        assert TopologyLabel.from_edges({Link.XY, Link.YZ}).kind is TopologyKind.INDIRECT
        assert TopologyLabel.from_edges(ALL_LINKS).kind is TopologyKind.COMPLETE
        null = TopologyLabel.from_edges(())
        assert null.kind is TopologyKind.NULL and null.edges == frozenset()

    def test_unnamed_is_other(self):
        label = TopologyLabel.from_edges({Link.YZ})
        assert label.kind is TopologyKind.OTHER
