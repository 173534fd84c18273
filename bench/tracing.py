"""Spans around the calls the benchmark's rounds make into each module.

The program is not instrumented.  Instead :func:`install` replaces the
module-level names that ``scibreak.pipeline``, ``scibreak.cli`` and
``scibreak.complexity`` look up at call time, and the functions of
``scibreak.analysis`` that the pipeline reaches through that module, with
wrappers that record a span (name, start, end, parent) and a few work
counts.  Spans stay in
memory and are reduced to per-layer self times when the round ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index][1:3] = start, time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def self_times(self) -> Counter:
        """Seconds per span name, each span minus the time of its children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: Counter = Counter()
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] += seconds
        return totals


def _count_ingest(counts, args, result):
    corpus, report = result
    counts["corpus.records"] += report.records_seen
    counts["corpus.edges"] += corpus.n_edges


def _count_snapshot(counts, args, result):
    counts["corpus.snapshot_bytes"] += os.path.getsize(args[1])


def _count_scored(counts, args, result):
    counts["impact.works_scored"] += len(result)


def _count_selected(counts, args, result):
    counts["panel.breakthroughs"] += len(result)


def _count_dtw(counts, args, result):
    lengths = [len(t.points) for t in args[0]]
    total = sum(lengths)
    counts["clustering.dtw_pairs"] += len(lengths) * (len(lengths) - 1) // 2
    counts["clustering.dtw_cells"] += (total * total - sum(n * n for n in lengths)) // 2


def _count_nodes(counts, args, result):
    counts["leiden.nodes"] += len(args[0].labels)


def _count_ranked(counts, args, result):
    counts["complexity.panels_ranked"] += 1


def _count_iterations(counts, args, result):
    counts["eigen.iterations"] += sum(pair.iterations for pair in result)


# (module, attribute, span name, counter); a span name's prefix is its layer
_TARGETS = [
    ("pipeline", "ingest_files", "corpus.ingest_files", _count_ingest),
    ("cli", "ingest_files", "corpus.ingest_files", _count_ingest),
    ("pipeline", "nbnc_all", "impact.nbnc_all", _count_scored),
    ("pipeline", "cd_all", "impact.cd_all", None),
    ("pipeline", "select_breakthroughs", "panel.select_breakthroughs", _count_selected),
    ("pipeline", "subfield_series", "panel.subfield_series", None),
    ("pipeline", "scaled_counts", "panel.scaled_counts", None),
    ("pipeline", "country_subfield_counts", "panel.country_subfield_counts", None),
    ("pipeline", "distance_matrix", "clustering.distance_matrix", _count_dtw),
    ("cli", "distance_matrix", "clustering.distance_matrix", _count_dtw),
    ("pipeline", "default_sigma", "clustering.default_sigma", None),
    ("cli", "default_sigma", "clustering.default_sigma", None),
    ("pipeline", "similarity_matrix", "clustering.similarity_matrix", None),
    ("cli", "similarity_matrix", "clustering.similarity_matrix", None),
    ("pipeline", "with_mean_trajectories", "clustering.with_mean_trajectories", None),
    ("cli", "cluster_mean_trajectory", "clustering.cluster_mean_trajectory", None),
    ("pipeline", "leiden_clusters", "leiden.leiden_clusters", _count_nodes),
    ("cli", "leiden_clusters", "leiden.leiden_clusters", _count_nodes),
    ("pipeline", "rca", "complexity.rca", None),
    ("cli", "rca", "complexity.rca", None),
    ("pipeline", "binarize", "complexity.binarize", None),
    ("cli", "binarize", "complexity.binarize", None),
    ("pipeline", "genepy_scores", "complexity.genepy_scores", _count_ranked),
    ("cli", "genepy_scores", "complexity.genepy_scores", _count_ranked),
    ("complexity", "top_eigenpairs_symmetric", "eigen.top_eigenpairs_symmetric", _count_iterations),
    ("analysis", "read_indicator_file", "analysis.read_indicator_file", None),
    ("analysis", "gerd_means", "analysis.gerd_means", None),
    ("analysis", "spearman", "analysis.spearman", None),
    ("analysis", "loglog_fit", "analysis.loglog_fit", None),
    ("pipeline", "write_metrics_tables", "pipeline.write_metrics_tables", None),
    ("pipeline", "write_breakthrough_tables", "pipeline.write_breakthrough_tables", None),
    ("pipeline", "write_series_table", "pipeline.write_series_table", None),
    ("pipeline", "write_panel", "pipeline.write_panel", None),
    ("pipeline", "write_cluster_outputs", "pipeline.write_cluster_outputs", None),
    ("cli", "write_cluster_outputs", "pipeline.write_cluster_outputs", None),
    ("pipeline", "write_rank_outputs", "pipeline.write_rank_outputs", None),
    ("cli", "write_rank_outputs", "pipeline.write_rank_outputs", None),
    ("cli", "read_series_table", "pipeline.read_series_table", None),
    ("cli", "read_panel", "pipeline.read_panel", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every target name; call once per process, before any round."""
    from scibreak.corpus import CitationCorpus

    for module_name, attr, span_name, count in _TARGETS:
        module = importlib.import_module(f"scibreak.{module_name}")
        setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), count))
    CitationCorpus.save_snapshot = tracer.wrap(
        "corpus.save_snapshot", CitationCorpus.save_snapshot, _count_snapshot
    )


# per-layer time metric -> the span names whose self times it sums
LAYER_TIMES = {
    "corpus.ingest_s": ["corpus.ingest_files"],
    "corpus.snapshot_save_s": ["corpus.save_snapshot"],
    "corpus.snapshot_load_s": ["corpus.load_snapshot"],
    "impact.nbnc_s": ["impact.nbnc_all"],
    "impact.cd_s": ["impact.cd_all"],
    "panel.select_s": ["panel.select_breakthroughs"],
    "panel.series_s": ["panel.subfield_series", "panel.scaled_counts"],
    "panel.panels_s": ["panel.country_subfield_counts"],
    "clustering.dtw_s": ["clustering.distance_matrix"],
    "clustering.kernel_s": ["clustering.default_sigma", "clustering.similarity_matrix"],
    "clustering.means_s": [
        "clustering.with_mean_trajectories",
        "clustering.cluster_mean_trajectory",
    ],
    "leiden.cluster_s": ["leiden.leiden_clusters"],
    "complexity.rca_s": ["complexity.rca", "complexity.binarize"],
    "complexity.genepy_self_s": ["complexity.genepy_scores"],
    "eigen.solve_s": ["eigen.top_eigenpairs_symmetric"],
    "analysis.stats_s": [
        "analysis.read_indicator_file",
        "analysis.gerd_means",
        "analysis.spearman",
        "analysis.loglog_fit",
    ],
    "pipeline.table_write_s": [
        name for _, _, name, _ in _TARGETS if name.startswith("pipeline.write_")
    ],
    "pipeline.table_read_s": ["pipeline.read_series_table", "pipeline.read_panel"],
}

COUNTS = [
    "corpus.records",
    "corpus.edges",
    "corpus.snapshot_bytes",
    "impact.works_scored",
    "panel.breakthroughs",
    "clustering.dtw_pairs",
    "clustering.dtw_cells",
    "leiden.nodes",
    "complexity.panels_ranked",
    "eigen.iterations",
]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced round."""
    own = tracer.self_times()
    out = {
        metric: sum(own.get(name, 0.0) for name in names)
        for metric, names in LAYER_TIMES.items()
    }
    out.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    return out
