"""JSONL trace export, import, and schema validation.

One trace file is a sequence of JSON objects, one per line:

* ``{"type": "meta", ...}`` — exactly one, first: trace id, schema
  version, command, and summary tallies;
* ``{"type": "span", ...}`` — one per finished span (see
  :mod:`repro.obs.trace` for the field semantics);
* ``{"type": "flight", ...}`` — one per buffered flight-recorder event;
* ``{"type": "hist", ...}`` — one per perf-registry histogram snapshot.

:func:`validate_trace` enforces the schema (required fields, field
types, the loss/cause invariant: every ``lost`` flight event must carry
a non-null cause) so CI's trace-smoke job and the ``repro trace``
subcommand reject malformed exports instead of mis-rendering them.
"""

import json

from repro.checkpoint.formats import FORMATS

SCHEMA_VERSION = FORMATS["trace"]["version"]

_SPAN_FIELDS = ("span_id", "stage", "attrs", "wall_start", "wall_seconds")
_FLIGHT_FIELDS = ("t", "event", "src", "dst")
_LOSS_EVENTS = ("lost", "response_lost")
# Events that must carry a cause: losses, plus pacing suppressions
# (coverage deliberately skipped — always attributed, never counted as
# a wire loss).
_CAUSED_EVENTS = ("lost", "response_lost", "suppressed")


class TraceSchemaError(ValueError):
    """An exported trace line violates the event schema."""


def trace_records(tracer=None, recorder=None, perf=None, meta=None):
    """Generate the export dicts for one run (meta line first)."""
    spans = list(tracer.spans) if tracer is not None else []
    events = recorder.export_events() if recorder is not None else []
    trace_id = tracer.trace_id if tracer is not None else None
    head = {
        "type": "meta",
        "schema_version": SCHEMA_VERSION,
        "trace_id": trace_id,
        "spans": len(spans),
        "flight_events": len(events),
        "flight_events_evicted": (recorder.dropped_events
                                  if recorder is not None else 0),
        "event_counts": (dict(recorder.event_counts)
                         if recorder is not None else {}),
        "drop_causes": (recorder.drop_breakdown()
                        if recorder is not None else {}),
    }
    head.update(meta or {})
    yield head
    for span in spans:
        record = {"type": "span", "trace_id": trace_id}
        record.update(span)
        yield record
    if recorder is not None:
        for event in events:
            record = recorder.event_dict(event)
            record["trace_id"] = trace_id
            yield record
    if perf is not None:
        for name in sorted(perf.histograms):
            yield {"type": "hist", "trace_id": trace_id, "name": name,
                   "snapshot": perf.histograms[name].snapshot()}


def export_trace(path, tracer=None, recorder=None, perf=None, meta=None):
    """Write one JSONL trace file; returns (spans, flight events)."""
    spans = events = 0
    with open(path, "w") as handle:
        for record in trace_records(tracer, recorder, perf, meta):
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            if record["type"] == "span":
                spans += 1
            elif record["type"] == "flight":
                events += 1
    return spans, events


def read_trace(path):
    """The one reader of a trace file: its records, one JSON object per
    line (:func:`validate_trace` checks them against the schema).

    Raises :class:`TraceSchemaError` for anything else — including
    binary garbage, which would otherwise escape as a
    :class:`UnicodeDecodeError` from the line iterator.
    """
    records = []
    with open(path, "r") as handle:
        try:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    raise TraceSchemaError("line %d is not valid JSON"
                                           % lineno)
                if not isinstance(record, dict):
                    raise TraceSchemaError("line %d is not a JSON object"
                                           % lineno)
                records.append(record)
        except UnicodeDecodeError:
            raise TraceSchemaError(
                "not a JSONL text file (binary or wrong encoding)")
    return records


def _require(record, index, fields):
    for field in fields:
        if field not in record:
            raise TraceSchemaError(
                "record %d (%s) is missing required field %r"
                % (index, record.get("type"), field))


def validate_trace(records):
    """Validate a parsed trace against the event schema.

    Raises :class:`TraceSchemaError` on the first violation; returns a
    summary dict (span/flight counts, loss attribution tally) when the
    trace is well-formed.
    """
    if not records:
        raise TraceSchemaError("empty trace")
    if records[0].get("type") != "meta":
        raise TraceSchemaError("first record must be the meta line")
    if records[0].get("schema_version") != SCHEMA_VERSION:
        raise TraceSchemaError("unsupported schema version %r"
                               % records[0].get("schema_version"))
    span_ids = set()
    spans = flights = losses = attributed = 0
    for index, record in enumerate(records[1:], 1):
        kind = record.get("type")
        if kind == "meta":
            raise TraceSchemaError("duplicate meta line at record %d"
                                   % index)
        if kind == "span":
            _require(record, index, _SPAN_FIELDS)
            if not isinstance(record["attrs"], dict):
                raise TraceSchemaError("record %d: span attrs must be "
                                       "an object" % index)
            if record["span_id"] in span_ids:
                raise TraceSchemaError("record %d: duplicate span id %r"
                                       % (index, record["span_id"]))
            span_ids.add(record["span_id"])
            spans += 1
        elif kind == "flight":
            _require(record, index, _FLIGHT_FIELDS)
            flights += 1
            if record["event"] in _CAUSED_EVENTS:
                if record["event"] in _LOSS_EVENTS:
                    losses += 1
                if record.get("cause"):
                    if record["event"] in _LOSS_EVENTS:
                        attributed += 1
                else:
                    raise TraceSchemaError(
                        "record %d: %s event carries no drop cause"
                        % (index, record["event"]))
        elif kind == "hist":
            _require(record, index, ("name", "snapshot"))
        else:
            raise TraceSchemaError("record %d has unknown type %r"
                                   % (index, kind))
    # Parentage must resolve within the trace (roots have null parents).
    for index, record in enumerate(records[1:], 1):
        if record.get("type") != "span":
            continue
        parent = record.get("parent_id")
        if parent is not None and parent not in span_ids:
            raise TraceSchemaError(
                "record %d: span %r references unknown parent %r"
                % (index, record["span_id"], parent))
    return {"spans": spans, "flight_events": flights,
            "losses": losses, "losses_attributed": attributed}
