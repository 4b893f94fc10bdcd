"""``repro.obs`` — unified tracing and metrics for the whole stack.

Every layer of the Figure-1 stack reports here: symbolic evaluation
(``sym`` regions, the §3.2 symbolic profile), bit-blasting
(``bitblast``), the CDCL core (``sat``), the verdict cache
(``solver-cache``), and the work-stealing scheduler (``scheduler``, one span per proof-obligation
timeline).  The paper's workflow is profile-then-optimize (§3.2); this
package is what makes that workflow possible once the work runs in
scheduler worker processes — workers serialize their span buffers and
counter deltas into the result envelope, and the parent reassembles
one coherent trace per ``run_obligations`` call.

Usage::

    from repro import obs

    with obs.tracing() as col:
        verifier.prove_op("get_quota")          # any stack entry point
    obs.write_chrome_trace(col, "trace.json")   # chrome://tracing / Perfetto
    print(obs.render_report({"obs": obs.summarize(col)}))

Disabled-by-default: ``obs.span(...)``/``obs.region(...)``/
``obs.count(...)`` outside a ``tracing()`` block cost one global load
and a None test.  Counters never include wall-clock values, so they are
bit-identical across two runs with the same seed — the determinism
contract CI checks.
"""

from .collector import (
    HIST_BUCKETS,
    Collector,
    Histogram,
    SpanEvent,
    count,
    enabled,
    event,
    get_collector,
    observe,
    region,
    span,
    tracing,
)
from .events import current_trace, new_trace_id, trace_context
from .export import (
    LAYER_CATEGORIES,
    chrome_trace,
    jsonl_lines,
    merge_chrome_traces,
    parse_prometheus,
    render_prometheus,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

def __getattr__(name: str):
    """``render_report`` and ``summarize`` load on first use: importing
    ``report`` here would put it in ``sys.modules`` before ``python -m
    repro.obs.report`` runs it as ``__main__`` (a runpy warning)."""
    if name in ("render_report", "summarize"):
        from . import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Collector",
    "HIST_BUCKETS",
    "Histogram",
    "LAYER_CATEGORIES",
    "SpanEvent",
    "chrome_trace",
    "count",
    "current_trace",
    "enabled",
    "event",
    "get_collector",
    "jsonl_lines",
    "merge_chrome_traces",
    "new_trace_id",
    "observe",
    "parse_prometheus",
    "region",
    "render_prometheus",
    "render_report",
    "span",
    "summarize",
    "trace_context",
    "tracing",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
