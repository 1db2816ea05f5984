"""Cluster → region-of-interest rectangles (Algorithm 1, lines 16–19).

Each cluster of subdomain summaries is replaced by the bounding rectangle of
its members' grid-point extents; these rectangles are the nest domains that
the simulation spawns at the next adaptation point.
"""

from __future__ import annotations

from repro.analysis.records import SubdomainSummary
from repro.grid.rect import Rect

__all__ = ["cluster_bounding_rect", "clusters_to_rectangles"]


def cluster_bounding_rect(cluster: list[SubdomainSummary]) -> Rect:
    """Bounding rectangle (parent grid points) of a cluster's subdomains."""
    if not cluster:
        raise ValueError("cannot bound an empty cluster")
    rect = cluster[0].extent
    for member in cluster[1:]:
        rect = rect.union_bbox(member.extent)
    return rect


def clusters_to_rectangles(clusters: list[list[SubdomainSummary]]) -> list[Rect]:
    """Region-of-interest rectangles for all non-empty clusters.

    Every cluster yields a rectangle, as in the paper: its thresholds
    already filtered weak subdomains.
    """
    return [cluster_bounding_rect(c) for c in clusters if c]
