"""Outside-in tracing: time calls into granger_lab's layers by replacing the
module-level names that callers look up with timing wrappers.

Spans are aggregated as they close (calls, inclusive time, self time,
failures, items) instead of being stored one by one: a traced Monte Carlo
run makes tens of spans per iteration, and only the per-layer totals are
reported. Self time is a span's duration minus the time of the traced spans
it directly contains.
"""

from __future__ import annotations

import functools
import importlib
import time

#: (module, attribute, span name). A function imported into several modules
#: is wrapped in each, under one span name, because each importer looks the
#: name up in its own namespace.
TARGETS = (
    ("experiments", "_count_block", "experiments.iteration_block"),
    ("experiments", "derive_seed", "experiments.derive_seed"),
    ("experiments", "replace", "experiments.config_replace"),
    ("experiments", "generate", "datagen.generate"),
    ("experiments", "comparison_rss", "granger.comparison_rss"),
    ("experiments", "statistic_from_rss", "criteria.statistic_from_rss"),
    ("experiments", "decide_edges", "granger.decide_edges"),
    ("datagen", "resolve_sigmas", "datagen.resolve_sigmas"),
    ("datagen", "_calibration_variances", "datagen.calibration"),
    ("datagen", "TimeSeries", "core.timeseries"),
    ("granger", "comparison_rss", "granger.comparison_rss"),
    ("granger", "nested_rss", "regress.nested_rss"),
    ("granger", "ols_fit", "regress.ols_fit"),
    ("granger", "build_design", "regress.build_design"),
    ("granger", "statistic_from_rss", "criteria.statistic_from_rss"),
    ("granger", "decide_edges", "granger.decide_edges"),
    ("granger", "TimeSeries", "core.timeseries"),
    ("criteria", "statistic_from_rss", "criteria.statistic_from_rss"),
    ("cli", "generate", "datagen.generate"),
    ("cli", "TimeSeries", "core.timeseries"),
    ("cli", "_read_series_csv", "cli.read_series_csv"),
    ("cli", "_write_lines", "cli.write_csv"),
    ("cli", "_phase_row", "cli.checkpoint_row"),
    ("cli", "load_phase_csv", "cli.load_phase_csv"),
    ("cli", "render_plane", "ppm.render_plane"),
    ("cli", "write_ppm", "ppm.write_ppm"),
)

#: Items counted per span, from the wrapped call's result.
ITEMS = {"cli.read_series_csv": lambda sample: len(sample.x)}


class Tracer:
    """Per-span-name totals: [calls, inclusive s, self s, failed, items]."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}
        self.missing: list[str] = []
        self._children: list[float] = []

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(f"granger_lab.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, name))

    def _wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        stack = self._children
        clock = time.perf_counter
        count_items = ITEMS.get(name)
        # An lru_cache hit is a dictionary lookup, not the cached work: only
        # misses are recorded as spans.
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if cache_info is None or cache_info().misses > misses:
                    stats[0] += 1
                    stats[1] += elapsed
                    stats[2] += elapsed - inner
                    if stack:
                        stack[-1] += elapsed
            if count_items is not None:
                stats[4] += count_items(result)
            return result

        return traced


def merge(total: dict[str, list[float]], stats: dict[str, list[float]],
          time_scale: float = 1.0) -> None:
    """Add one tracer's totals into ``total``, name by name, multiplying the
    two time columns by ``time_scale``."""
    for name, values in stats.items():
        acc = total.setdefault(name, [0] * len(values))
        for i, v in enumerate(values):
            acc[i] += v * time_scale if i in (1, 2) else v
