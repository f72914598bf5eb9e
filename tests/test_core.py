import itertools

import numpy as np
import pytest

from granger_lab.core import (Link, TimeSeries, TopologyKind,
                              TopologyLabel, classify)

ALL_LINKS = (Link.XY, Link.XZ, Link.YZ)


def all_labels():
    for r in range(4):
        for combo in itertools.combinations(ALL_LINKS, r):
            yield TopologyLabel.from_edges(combo)


class TestTopologyLabel:
    def test_named_edge_sets(self):
        assert TopologyLabel.driver().kind is TopologyKind.DRIVER
        assert TopologyLabel.driver().edges == {Link.XY, Link.XZ}
        assert TopologyLabel.indirect().edges == {Link.XY, Link.YZ}
        assert TopologyLabel.complete().edges == set(ALL_LINKS)
        assert TopologyLabel.null().edges == frozenset()

    def test_unnamed_is_other(self):
        label = TopologyLabel.from_edges({Link.YZ})
        assert label.kind is TopologyKind.OTHER


class TestClassify:
    def test_complete_vs_driver_is_spurious(self):
        res = classify(TopologyLabel.complete(), TopologyLabel.driver())
        assert res.spurious and not res.unidentified

    def test_identity(self):
        res = classify(TopologyLabel.driver(), TopologyLabel.driver())
        assert not res.spurious and not res.unidentified

    def test_null_vs_indirect_is_unidentified(self):
        res = classify(TopologyLabel.null(), TopologyLabel.indirect())
        assert not res.spurious and res.unidentified

    def test_both_flags_possible(self):
        inferred = TopologyLabel.from_edges({Link.XZ})
        res = classify(inferred, TopologyLabel.indirect())
        assert res.spurious and res.unidentified

    def test_reflexive_clean(self):
        for label in all_labels():
            res = classify(label, label)
            assert not res.spurious and not res.unidentified

    def test_monotone_in_inferred_edges(self):
        # Adding a link never clears spurious; removing one never clears
        # unidentified.
        for truth in all_labels():
            for inferred in all_labels():
                base = classify(inferred, truth)
                for extra in set(ALL_LINKS) - inferred.edges:
                    grown = TopologyLabel.from_edges(inferred.edges | {extra})
                    if base.spurious:
                        assert classify(grown, truth).spurious
                for removed in inferred.edges:
                    shrunk = TopologyLabel.from_edges(inferred.edges - {removed})
                    if base.unidentified:
                        assert classify(shrunk, truth).unidentified


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([]))

    def test_length(self):
        assert TimeSeries(np.arange(5.0)).length == 5
