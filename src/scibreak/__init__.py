"""Breakthrough analytics over scholarly citation graphs.

Builds an immutable citation corpus, scores works with network-normalized
citations (NBNC) and the CD disruption index, selects yearly breakthroughs,
clusters subfield growth trajectories (DTW + Gaussian kernel + Leiden), and
ranks countries and subfields by bipartite complexity (RCA + GENEPY).
"""

__version__ = "0.1.0"
