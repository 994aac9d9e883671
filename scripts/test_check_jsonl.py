#!/usr/bin/env python3
"""Unit tests for check_jsonl.py (ISSUE 8: test the test tooling).

Stdlib only. Run with:

    python3 -m unittest scripts.test_check_jsonl
    python3 scripts/test_check_jsonl.py

Each test feeds the checker a small accept/reject fixture per event
family and asserts the exit status and, on rejection, that the
diagnostic names the offending line.
The checker is exercised through its real entry point (a subprocess with
a file argument), exactly as CI invokes it.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_jsonl.py")


def run_checker(lines):
    """Run check_jsonl.py over the given event lines; return the process."""
    with tempfile.NamedTemporaryFile(
        "w", suffix=".jsonl", delete=False, encoding="utf-8"
    ) as f:
        for line in lines:
            f.write(line if isinstance(line, str) else json.dumps(line))
            f.write("\n")
        path = f.name
    try:
        return subprocess.run(
            [sys.executable, CHECKER, path],
            capture_output=True,
            text=True,
            check=False,
        )
    finally:
        os.unlink(path)


def run_span(*inner):
    """A minimal well-formed stream wrapping `inner` events in a run span."""
    return [
        {"type": "run.start", "methods": 1},
        *inner,
        {"type": "run.end", "proved": 1, "refuted": 0, "unknown": 0},
    ]


def method_span(*inner):
    return [
        {"type": "method.start", "index": 0, "name": "C.m"},
        *inner,
        {"type": "method.end", "index": 0, "error": None},
    ]


class AcceptsWellFormedStreams(unittest.TestCase):
    def assert_ok(self, lines):
        proc = run_checker(lines)
        self.assertEqual(proc.returncode, 0, msg=proc.stderr)
        self.assertIn("ok:", proc.stdout)

    def test_minimal_run_span(self):
        self.assert_ok(run_span())

    def test_full_nesting(self):
        self.assert_ok(
            run_span(
                *method_span(
                    {"type": "obligation.start", "index": 0, "label": "ensures", "size": 9},
                    {"type": "piece.start", "fingerprint": 1, "size": 4},
                    {
                        "type": "attempt",
                        "prover": "hol-auto",
                        "pass": "first",
                        "outcome": "proved",
                        "fuel": 0,
                    },
                    {"type": "piece.end", "verdict": "proved"},
                    {"type": "obligation.end", "index": 0, "verdict": "proved"},
                )
            )
        )

    def test_store_events_accepted(self):
        self.assert_ok(
            [
                {"type": "store.open", "entries": 0, "segments": 1, "lock": "held"},
                *run_span(),
                {"type": "store.flush", "records": 2, "bytes": 96},
            ]
        )

    def test_wall_clock_fields_are_optional(self):
        # No `micros` anywhere: the deterministic serialization omits it.
        self.assert_ok(run_span(*method_span()))

    def test_daemon_stream_holds_one_run_span_per_request(self):
        # A daemon stream: service lifecycle events around back-to-back
        # run spans, one per dispatched request.
        self.assert_ok(
            [
                {"type": "service.start", "socket": "/tmp/jahob.sock"},
                {"type": "service.accept", "client": 1},
                {"type": "service.submit", "client": 1, "queued": 1},
                *run_span(),
                {"type": "service.done", "client": 1, "outcome": "verified"},
                {"type": "service.submit", "client": 1, "queued": 1},
                *run_span(),
                {"type": "service.done", "client": 1, "outcome": "verified"},
                {"type": "service.busy", "client": 2, "queued": 1},
                {"type": "service.disconnect", "client": 1},
                {"type": "service.drain", "queued": 0},
            ]
        )

    def test_daemon_stream_may_never_verify(self):
        # A daemon that drains before any submission still checks out.
        self.assert_ok(
            [
                {"type": "service.start", "socket": "/tmp/jahob.sock"},
                {"type": "service.drain", "queued": 0},
            ]
        )


class RejectsMalformedStreams(unittest.TestCase):
    def assert_rejected(self, lines, expect, lineno=None):
        proc = run_checker(lines)
        self.assertNotEqual(proc.returncode, 0, msg=proc.stdout)
        self.assertIn(expect, proc.stderr)
        if lineno is not None:
            self.assertIn(f":{lineno}:", proc.stderr)

    def test_invalid_json(self):
        self.assert_rejected(["{nope"], "not valid JSON", lineno=1)

    def test_non_object_event(self):
        self.assert_rejected(["[1, 2]"], "not a JSON object")

    def test_unknown_event_type(self):
        self.assert_rejected(run_span({"type": "race.telemetry"}), "unknown event type")

    def test_removed_race_and_adaptive_events(self):
        for event in [
            {"type": "race.start", "provers": 5},
            {"type": "race.win", "prover": "presburger"},
            {"type": "race.cancelled", "prover": "fol-resolution"},
            {"type": "race.rerun", "prover": "fol-resolution"},
            {"type": "adaptive.load", "entries": 3},
            {"type": "adaptive.flush", "entries": 4},
            {"type": "supervisor.spawn", "lane": "bapa"},
            {"type": "supervisor.restart", "lane": "bapa"},
            {"type": "supervisor.kill", "lane": "bapa", "reason": "deadline"},
            {"type": "supervisor.crash", "lane": "bapa", "oom": False},
            {"type": "supervisor.fallback", "lane": "bapa"},
            {"type": "supervisor.quarantined", "lane": "bapa", "crashes": 3},
            {"type": "supervisor.heartbeat", "lane": "bapa"},
            {"type": "store.lock", "state": "acquired"},
        ]:
            with self.subTest(event=event["type"]):
                self.assert_rejected(
                    [event, *run_span()], "unknown event type", lineno=1
                )

    def test_store_flush_missing_bytes(self):
        self.assert_rejected(
            [*run_span(), {"type": "store.flush", "records": 1}],
            "store.flush missing fields ['bytes']",
        )

    def test_attempt_missing_fields(self):
        self.assert_rejected(
            run_span(
                *method_span(
                    {"type": "obligation.start", "index": 0, "label": "l", "size": 1},
                    {"type": "piece.start", "fingerprint": 1, "size": 1},
                    {"type": "attempt", "prover": "hol-auto"},
                    {"type": "piece.end", "verdict": "proved"},
                    {"type": "obligation.end", "index": 0, "verdict": "proved"},
                )
            ),
            "attempt missing fields",
        )

    def test_nested_run_span(self):
        self.assert_rejected(
            [{"type": "run.start", "methods": 1}, *run_span()],
            "nested run.start",
        )

    def test_method_outside_run(self):
        self.assert_rejected(
            [*method_span(), *run_span()],
            "method.start misnested",
            lineno=1,
        )

    def test_obligation_outside_method(self):
        self.assert_rejected(
            run_span({"type": "obligation.start", "index": 0, "label": "l", "size": 1}),
            "obligation.start misnested",
        )

    def test_piece_end_without_start(self):
        self.assert_rejected(
            run_span(*method_span({"type": "piece.end", "verdict": "proved"})),
            "piece.end without piece.start",
        )

    def test_unclosed_span(self):
        self.assert_rejected(
            [{"type": "run.start", "methods": 1}],
            "ended with an open span",
        )

    def test_empty_stream(self):
        self.assert_rejected([], "empty stream")

    def test_two_run_spans(self):
        self.assert_rejected(
            [*run_span(), *run_span()],
            "exactly one run span",
        )

    def test_service_submit_missing_queued(self):
        self.assert_rejected(
            [{"type": "service.submit", "client": 1}, *run_span()],
            "service.submit missing fields ['queued']",
            lineno=1,
        )

    def test_daemon_stream_with_torn_run_span(self):
        # Even for a daemon, spans must balance: a run.start whose
        # run.end never arrived means the stream is truncated.
        self.assert_rejected(
            [
                {"type": "service.start", "socket": "/tmp/jahob.sock"},
                *run_span(),
                {"type": "run.start", "methods": 1},
            ],
            "ended with an open span",
        )


class ChecksARealStream(unittest.TestCase):
    """End-to-end: a stream captured from an actual CLI run (when the
    release binary exists) passes the checker. Skipped if the binary has
    not been built — CI builds it first."""

    def test_real_stream_if_binary_present(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        binary = os.path.join(repo, "target", "release", "jahob")
        fixture = os.path.join(repo, "case_studies", "globalset.javax")
        if not (os.path.exists(binary) and os.path.exists(fixture)):
            self.skipTest("release binary not built")
        with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as f:
            obs_path = f.name
        try:
            env = dict(os.environ, JAHOB_OBS=obs_path)
            subprocess.run(
                [binary, fixture],
                capture_output=True,
                env=env,
                check=True,
            )
            proc = subprocess.run(
                [sys.executable, CHECKER, obs_path],
                capture_output=True,
                text=True,
                check=False,
            )
            self.assertEqual(proc.returncode, 0, msg=proc.stderr)
            self.assertIn("attempt", proc.stdout)
        finally:
            os.unlink(obs_path)


if __name__ == "__main__":
    unittest.main()
