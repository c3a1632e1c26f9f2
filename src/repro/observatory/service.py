"""Embedded HTTP/JSON API over the observatory query plane.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` where every
route answers from an :class:`~repro.observatory.query.Observatory`.
The server owns no state of its own — it is a thin JSON skin, so every
number it returns is byte-derived from the same store the CLI reads.

Routes::

    GET /healthz                     liveness + generation
    GET /stats                       store facts + query counters
    GET /resolver/<ip>               one resolver's record (404 unknown)
    GET /rankings/countries?top=N    Table 1 rows + top-N share
    GET /rankings/rirs               Table 2 rows
    GET /survival                    Figure 2 curve [[week, pct], ...]
    GET /timeline/<base>/<len>       per-week churn inside one prefix

Start with :meth:`ObservatoryServer.start` (background thread; bind to
port 0 to let the OS pick — the bound address is ``server.address``),
stop with :meth:`ObservatoryServer.stop`.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit


class _ObservatoryHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-observatory"

    def log_message(self, format, *args):    # noqa: A002 - stdlib name
        pass                                 # tests and CLI want silence

    def do_GET(self):                        # noqa: N802 - stdlib name
        observatory = self.server.observatory
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        query = parse_qs(split.query)
        try:
            with self.server.lock:
                status, body = self._route(observatory, parts, query)
        except (LookupError, ValueError) as error:
            status, body = 400, {"error": str(error)}
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _route(self, observatory, parts, query):
        if parts == ["healthz"]:
            return 200, {"ok": True,
                         "generation": observatory.store.generation}
        if parts == ["stats"]:
            stats = observatory.stats()
            perf = observatory.perf
            if perf is not None:
                stats["queries_served"] = perf.counter(
                    "observatory_queries_served")
                stats["ingest_lag_records"] = perf.gauge_value(
                    "observatory_ingest_lag_records")
            return 200, stats
        if len(parts) == 2 and parts[0] == "resolver":
            record = observatory.lookup(parts[1])
            if record is None:
                return 404, {"error": "unknown resolver %s" % parts[1]}
            return 200, record
        if parts == ["rankings", "countries"]:
            top = int(query.get("top", ["10"])[0])
            if top <= 0:
                raise ValueError("top must be a positive integer "
                                 "(got %d)" % top)
            rows, top_share = observatory.country_rankings(top=top)
            return 200, {"rows": rows, "top_share": top_share}
        if parts == ["rankings", "rirs"]:
            return 200, {"rows": observatory.rir_rankings()}
        if parts == ["survival"]:
            return 200, {"curve": [[week, pct] for week, pct
                                   in observatory.survival()]}
        if len(parts) == 3 and parts[0] == "timeline":
            prefix = "%s/%s" % (parts[1], parts[2])
            return 200, {"prefix": prefix,
                         "rows": observatory.timeline(prefix)}
        return 404, {"error": "no such route %r" % "/".join(parts)}


class ObservatoryServer:
    """The observatory's resident HTTP face, one background thread."""

    def __init__(self, observatory, host="127.0.0.1", port=0):
        self.observatory = observatory
        self._httpd = ThreadingHTTPServer((host, port),
                                          _ObservatoryHandler)
        self._httpd.daemon_threads = True
        self._httpd.observatory = observatory
        # Serialize queries against serve-time re-ingest: a reader must
        # never see a week mid-fold.  Handlers hold it per request; an
        # ingest loop holds it across each fold pass.
        self.lock = self._httpd.lock = threading.RLock()
        self._thread = None

    @property
    def address(self):
        """``(host, port)`` actually bound (resolves port 0)."""
        return self._httpd.server_address[:2]

    @property
    def url(self):
        return "http://%s:%d" % self.address

    def start(self):
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="observatory-http", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self):
        """Serve on the calling thread (the ``repro observe serve`` path)."""
        self._httpd.serve_forever(poll_interval=0.2)

    def stop(self):
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
