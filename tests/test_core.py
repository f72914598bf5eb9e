from granger_lab.core import Link, TopologyKind, topology_kind

ALL_LINKS = (Link.XY, Link.XZ, Link.YZ)


class TestTopologyKind:
    def test_named_edge_sets(self):
        assert topology_kind({Link.XY, Link.XZ}) is TopologyKind.DRIVER
        assert topology_kind({Link.XY, Link.YZ}) is TopologyKind.INDIRECT
        assert topology_kind(ALL_LINKS) is TopologyKind.COMPLETE
        assert topology_kind(()) is TopologyKind.NULL

    def test_unnamed_is_other(self):
        assert topology_kind({Link.YZ}) is TopologyKind.OTHER

    def test_order_and_repeats_do_not_matter(self):
        assert topology_kind([Link.XZ, Link.XY, Link.XZ]) is TopologyKind.DRIVER
