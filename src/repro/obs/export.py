"""Exporters: Chrome trace-event JSON and text/HTML reports.

Views of one :class:`~repro.obs.recorder.FlightRecorder`:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (balanced ``B``/``E`` duration events, microsecond
  timestamps) over the spans still in the ring, loadable in Perfetto /
  ``chrome://tracing`` to see every adaptation point's phase breakdown
  on a timeline;
* :func:`format_report` — the aggregated text table humans read after a
  run, from the per-phase span digests;
* :func:`html_report` — the same sections as one HTML page.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.recorder import FlightRecorder

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "format_report",
    "html_report",
]


def chrome_trace(recorder: FlightRecorder, process_name: str = "repro") -> dict[str, object]:
    """The ring's spans as a Chrome trace-event JSON document (dict form).

    Every span becomes one ``B``/``E`` event pair on thread 0 with
    microsecond timestamps relative to the recorder origin.  Events are
    emitted in timestamp order; at equal timestamps ``E`` events come
    first (innermost spans close before their parents) and ``B`` events
    open parents before children, so the stream is always balanced and
    properly nested for the viewer.
    """
    keyed: list[tuple[float, int, int, dict[str, object]]] = []
    for span in recorder.spans:
        begin_ts = span.start * 1e6
        end_ts = span.end * 1e6
        begin: dict[str, object] = {
            "name": span.name,
            "cat": "repro",
            "ph": "B",
            "ts": begin_ts,
            "pid": 0,
            "tid": 0,
        }
        if span.tags:
            begin["args"] = dict(span.tags)
        end: dict[str, object] = {
            "name": span.name,
            "cat": "repro",
            "ph": "E",
            "ts": end_ts,
            "pid": 0,
            "tid": 0,
        }
        # sort keys: E before B at ties; among Es deepest first, among Bs
        # shallowest first — preserves nesting for zero-duration spans
        keyed.append((begin_ts, 1, span.depth, begin))
        keyed.append((end_ts, 0, -span.depth, end))
    keyed.sort(key=lambda item: item[:3])
    events: list[dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    events.extend(item[3] for item in keyed)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    recorder: FlightRecorder, path: str | Path, process_name: str = "repro"
) -> Path:
    """Serialise :func:`chrome_trace` to ``path``; returns the path."""
    out = Path(path)
    out.write_text(json.dumps(chrome_trace(recorder, process_name)), encoding="utf-8")
    return out


def format_report(recorder: FlightRecorder, title: str = "observed phases") -> str:
    """Aggregated per-phase text report (milliseconds, like the paper)."""
    from repro.util.tables import format_table

    rows = []
    for name, digest in sorted(recorder.digests().items()):
        st = digest.stats()
        rows.append(
            (
                name,
                str(st.count),
                f"{st.total * 1e3:10.3f}",
                f"{st.median * 1e3:10.3f}",
                f"{st.p95 * 1e3:10.3f}",
                f"{st.max * 1e3:10.3f}",
            )
        )
    parts = [
        format_table(
            ["phase", "count", "total ms", "median ms", "p95 ms", "max ms"],
            rows,
            title=title,
        )
    ]
    if recorder.counters:
        counter_rows = [
            (name, f"{value:g}") for name, value in sorted(recorder.counters.items())
        ]
        parts.append(format_table(["counter", "value"], counter_rows))
    if recorder.gauges:
        gauge_rows = [
            (name, f"{value:g}") for name, value in sorted(recorder.gauges.items())
        ]
        parts.append(format_table(["gauge", "last value"], gauge_rows))
    return "\n\n".join(parts)


def html_report(sections: list[tuple[str, str]], title: str = "repro obs report") -> str:
    """Wrap preformatted text sections into one standalone HTML page.

    ``sections`` is a list of ``(heading, body)`` pairs where each body is
    the output of a text formatter (:func:`format_report`,
    :func:`~repro.obs.flight.format_flight`,
    :func:`~repro.experiments.report.accuracy_report`,
    :func:`~repro.mpisim.ledger.format_ledger`, …).  The tables are
    monospace art already, so the page just escapes and ``<pre>``-wraps
    them — zero dependencies, one file, opens anywhere.
    """
    import html as _html

    body: list[str] = [
        "<!DOCTYPE html>",
        "<html><head>",
        '<meta charset="utf-8">',
        f"<title>{_html.escape(title)}</title>",
        "<style>",
        "body{font-family:sans-serif;margin:2em;background:#fafafa;color:#222}",
        "pre{background:#fff;border:1px solid #ddd;border-radius:4px;"
        "padding:1em;overflow-x:auto;font-size:13px;line-height:1.35}",
        "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em}",
        "</style>",
        "</head><body>",
        f"<h1>{_html.escape(title)}</h1>",
    ]
    for heading, text in sections:
        body.append(f"<h2>{_html.escape(heading)}</h2>")
        body.append(f"<pre>{_html.escape(text)}</pre>")
    body.append("</body></html>")
    return "\n".join(body) + "\n"
