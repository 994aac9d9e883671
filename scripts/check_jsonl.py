#!/usr/bin/env python3
"""Schema sanity check for a Jahob observability JSONL stream.

Stdlib only. Usage: scripts/check_jsonl.py <run.jsonl>

Validates that every line is a JSON object carrying a known `type` tag
with that type's required fields, and that the stream's span structure is
well-formed: one run span bracketing everything, method spans that never
nest, obligation spans inside methods, piece spans inside obligations.
Exits non-zero with a line-numbered message on the first violation.
"""

import json
import sys

# type tag -> required fields (beyond "type"). Wall-clock fields
# ("micros", run.start "workers") are optional: deterministic streams
# omit them.
SCHEMA = {
    "run.start": {"methods"},
    "run.end": {"proved", "refuted", "unknown"},
    "method.start": {"index", "name"},
    "method.end": {"index", "error"},
    "obligation.start": {"index", "label", "size"},
    "obligation.end": {"index", "verdict"},
    "piece.start": {"fingerprint", "size"},
    "piece.end": {"verdict"},
    "cache.lookup": {"fingerprint", "hit", "saved_fuel"},
    "cache.evict": {"fingerprint"},
    "attempt": {"prover", "pass", "outcome", "fuel"},
    "chaos.injected": {"site", "fault"},
    "chaos.lied": {"prover"},
    "watchdog": {"outcome"},
    "note": {"text"},
    # Verification-daemon lifecycle events (ISSUE 9). Schedule-dependent:
    # connection threads emit them in wall-clock order, so they appear
    # only in raw daemon sinks — a daemon stream holds one run span per
    # dispatched request, back to back.
    "service.start": {"socket"},
    "service.accept": {"client"},
    "service.submit": {"client", "queued"},
    "service.busy": {"client", "queued"},
    "service.done": {"client", "outcome"},
    "service.disconnect": {"client"},
    "service.drain": {"queued"},
    # Persistent-store lifecycle events (emitted at session open/flush,
    # outside the run span — the span checker ignores them).
    "store.open": {"entries", "segments", "lock"},
    "store.load": {"entries"},
    "store.flush": {"records", "bytes"},
    "store.recovered": {"dropped"},
    "store.quarantined": {"segments"},
    "store.error": {"op", "error"},
    "sink.error": {"error"},
}


def fail(lineno, message):
    print(f"{sys.argv[1]}:{lineno}: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    in_run = in_method = in_obligation = in_piece = False
    counts = {}
    with open(sys.argv[1], encoding="utf-8") as stream:
        lineno = 0
        for lineno, line in enumerate(stream, start=1):
            try:
                event = json.loads(line)
            except json.JSONDecodeError as e:
                fail(lineno, f"not valid JSON: {e}")
            if not isinstance(event, dict):
                fail(lineno, "event is not a JSON object")
            kind = event.get("type")
            if kind not in SCHEMA:
                fail(lineno, f"unknown event type {kind!r}")
            missing = SCHEMA[kind] - event.keys()
            if missing:
                fail(lineno, f"{kind} missing fields {sorted(missing)}")
            counts[kind] = counts.get(kind, 0) + 1

            if kind == "run.start":
                if in_run:
                    fail(lineno, "nested run.start")
                in_run = True
            elif kind == "run.end":
                if not in_run or in_method:
                    fail(lineno, "run.end outside a clean run span")
                in_run = False
            elif kind == "method.start":
                if not in_run or in_method:
                    fail(lineno, "method.start misnested")
                in_method = True
            elif kind == "method.end":
                if not in_method or in_obligation:
                    fail(lineno, "method.end misnested")
                in_method = False
            elif kind == "obligation.start":
                if not in_method or in_obligation:
                    fail(lineno, "obligation.start misnested")
                in_obligation = True
            elif kind == "obligation.end":
                if not in_obligation or in_piece:
                    fail(lineno, "obligation.end misnested")
                in_obligation = False
            elif kind == "piece.start":
                if not in_obligation or in_piece:
                    fail(lineno, "piece.start misnested")
                in_piece = True
            elif kind == "piece.end":
                if not in_piece:
                    fail(lineno, "piece.end without piece.start")
                in_piece = False

    if lineno == 0:
        fail(0, "empty stream")
    if in_run or in_method or in_obligation or in_piece:
        fail(lineno, "stream ended with an open span")
    starts, ends = counts.get("run.start", 0), counts.get("run.end", 0)
    if any(k.startswith("service.") for k in counts):
        # A daemon stream: one balanced run span per dispatched request
        # (zero is fine — a daemon may drain without ever verifying).
        if starts != ends:
            fail(lineno, "daemon stream has unbalanced run spans")
    elif starts != 1 or ends != 1:
        fail(lineno, "stream must contain exactly one run span")

    summary = ", ".join(f"{k}×{v}" for k, v in sorted(counts.items()))
    print(f"ok: {lineno} events ({summary})")


if __name__ == "__main__":
    main()
