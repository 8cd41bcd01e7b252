"""Self-time attribution of traced span events to the pipeline's layers.

Layers are named after the modules that do the work.  Each one owns one
or more span names: spans the program already emits (``reorder``,
``trace``, ``cache-sim``, ...) plus the benchmark's own spans around
calls into a layer (``graph-load``, ``request``).  A span's *self* time
is its duration minus the durations of its direct children, linked by
``parent_id``; children of one span run on the span's own thread, so
they never overlap each other.  Every span not owned by a layer (the
benchmark's ``pass`` and ``cell`` spans, runner glue, unmapped program
spans) contributes its self time to ``other``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

#: (layer, span names).  The first name is the one ``.calls`` counts.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("graphs.load", ("graph-load", "load")),
    ("community.detect", ("reorder-detect", "reorder-detect-sharded", "detect")),
    ("reorder.order", ("reorder", "boba-place")),
    ("sparse.permute", ("permute",)),
    ("trace.build", ("trace",)),
    ("cache.sim", ("cache-sim",)),
    ("gpu.perf_model", ("perf-model",)),
    ("experiments.memo", ("memo-store", "memo-load")),
    ("predict.features", ("serve-features",)),
    ("predict.recommend", ("serve-recommend",)),
    ("serve.load", ("serve-load",)),
    ("serve.eval", ("serve-eval",)),
    ("serve.store", ("request",)),
)

LAYER_NAMES: Tuple[str, ...] = tuple(layer for layer, _ in LAYERS)

_LAYER_OF: Dict[str, str] = {
    span: layer for layer, spans in LAYERS for span in spans
}
_CALL_SPAN: Dict[str, str] = {layer: spans[0] for layer, spans in LAYERS}


def self_times(spans: Iterable[Mapping[str, object]]) -> Dict[str, float]:
    """``span_id -> self seconds`` for a list of span events."""
    spans = list(spans)
    children: Dict[str, float] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + float(span["seconds"])
    return {
        span["span_id"]: float(span["seconds"]) - children.get(span["span_id"], 0.0)
        for span in spans
    }


def layer_table(
    spans: Iterable[Mapping[str, object]],
) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per-layer ``{"s": self seconds, "calls": n}`` and the ``other`` seconds."""
    spans = list(spans)
    own = self_times(spans)
    table = {layer: {"s": 0.0, "calls": 0} for layer in LAYER_NAMES}
    other = 0.0
    for span in spans:
        name = span["name"]
        layer = _LAYER_OF.get(name)
        if layer is None:
            other += own[span["span_id"]]
            continue
        table[layer]["s"] += own[span["span_id"]]
        if name == _CALL_SPAN[layer]:
            table[layer]["calls"] += 1
    return table, other


def format_table(
    table: Mapping[str, Mapping[str, float]], other: float, total: float
) -> str:
    """Fixed-width layer table: self seconds, share of ``total``, calls."""
    lines: List[str] = [f"{'layer':<20} {'self s':>10} {'share':>7} {'calls':>8}"]
    rows = sorted(table.items(), key=lambda item: -item[1]["s"])
    for layer, row in rows:
        share = row["s"] / total if total else 0.0
        lines.append(
            f"{layer:<20} {row['s']:>10.3f} {share:>7.1%} {int(row['calls']):>8}"
        )
    lines.append(f"{'other':<20} {other:>10.3f} {other / total if total else 0.0:>7.1%}")
    lines.append(f"{'total':<20} {total:>10.3f}")
    return "\n".join(lines)
