"""Mission control: the replayable web UI over flight telemetry.

A stdlib-asyncio HTTP server (:mod:`repro.obs.webui.server`) plus a
static single-page canvas front end (``static/index.html`` +
``static/visualization.js``).  Two modes: **replay** loads exported
flight JSONL files and scrubs through their adaptation points;
**attach** follows a live :mod:`repro.serve` fleet, proxying its
session list, NDJSON event streams and Prometheus metrics.  In both the
server folds each session's events into per-point frames
(:class:`~repro.obs.webui.server.FrameFold`) and streams them to the
page, which folds nothing itself.

Deliberately not imported by ``repro.obs``'s package ``__init__`` — the
UI server pulls in the serve-tier wire helpers, and library users of
``repro.obs`` should not pay for that import.  Reach it explicitly::

    from repro.obs.webui import ObsServer

or via the CLI: ``repro obs serve --replay run.jsonl``.
"""

from repro.obs.webui.server import FrameFold, ObsServer, replay_frames

__all__ = ["FrameFold", "ObsServer", "replay_frames"]
