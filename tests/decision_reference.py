"""The two-step decision rule written out one sample and one significance
level at a time: the reference that ``granger.decide_edge_array`` and the
Monte Carlo flag counts are tested against."""

from granger_lab.core import FORWARD_LINKS, Link
from granger_lab.granger import BIV_XY, BIV_XZ, BIV_YZ, TRI_XZ, TRI_YZ


def decide_edges(pvalues, significance):
    """Accepted forward links, from the five p-values keyed as in FORWARD_KEYS."""
    biv = {link for link, key in ((Link.XY, BIV_XY), (Link.XZ, BIV_XZ), (Link.YZ, BIV_YZ))
           if pvalues[key] < significance}
    if len(biv) == 3:
        edges = biv - {Link.XZ, Link.YZ}
        if pvalues[TRI_XZ] < significance:
            edges.add(Link.XZ)
        if pvalues[TRI_YZ] < significance:
            edges.add(Link.YZ)
        return frozenset(edges)
    return frozenset(biv)


def edge_set(flags):
    """The links of one (3,) row of ``decide_edge_array`` output."""
    return frozenset(link for link, on in zip(FORWARD_LINKS, flags) if on)
