#!/usr/bin/env bash
# Crash-recovery matrix for the persistent proof store (ISSUE 6).
#
# Populates a cache directory with one clean run of the CLI, then mangles
# it the way crashes and bad disks do — torn segment tail, flipped byte,
# deleted manifest, garbage segment, orphaned tmp file, stale lock — and
# asserts after every mutation that the next run (a) exits 0, (b) reports
# exactly the baseline verdicts, and (c) leaves the directory reopenable
# for one more clean round-trip.
#
# Usage: scripts/crash_matrix.sh [path-to-jahob-binary]
# Defaults to target/release/jahob.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="${1:-target/release/jahob}"
if [ ! -x "$BIN" ]; then
  echo "FAIL: verifier binary not found or not executable: $BIN" >&2
  echo "hint: build it with \`cargo build --release -p jahob-repro\`" >&2
  echo "      or pass an explicit path: scripts/crash_matrix.sh <binary>" >&2
  exit 2
fi
SRC="case_studies/list.javax"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/jahob-crash-matrix.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

run() { # run <cache-dir> <report-out>
  # Keep only the per-method verdicts: run-wide stats legitimately differ
  # between cold and warm runs (cache hits vs fresh proofs); the verdicts
  # never may.
  JAHOB_CACHE="$1" "$BIN" --json "$SRC" \
    | python3 -c 'import json,sys; json.dump(json.load(sys.stdin)["methods"], sys.stdout, indent=1)' \
    > "$2"
}

segment() { # newest segment file in the cache dir
  ls "$CACHE"/seg-*.log | sort | tail -n 1
}

check() { # check <case-name>
  local name="$1"
  run "$CACHE" "$WORK/after-$name.json"
  cmp "$WORK/baseline.json" "$WORK/after-$name.json" \
    || { echo "FAIL [$name]: verdicts changed after corruption" >&2; exit 1; }
  # The directory must have healed: one more clean round-trip.
  run "$CACHE" "$WORK/again-$name.json"
  cmp "$WORK/baseline.json" "$WORK/again-$name.json" \
    || { echo "FAIL [$name]: directory did not stay reopenable" >&2; exit 1; }
  echo "ok [$name]"
}

repopulate() {
  rm -rf "$CACHE"
  run "$CACHE" "$WORK/repopulate.json"
  cmp "$WORK/baseline.json" "$WORK/repopulate.json"
}

CACHE="$WORK/cache"
run "$CACHE" "$WORK/baseline.json"
[ -f "$CACHE/MANIFEST" ] || { echo "FAIL: populate left no MANIFEST" >&2; exit 1; }
ls "$CACHE"/seg-*.log > /dev/null || { echo "FAIL: populate left no segments" >&2; exit 1; }

# 1. Torn tail: a crash mid-append leaves a half-written record.
SEG="$(segment)"
SIZE="$(wc -c < "$SEG")"
truncate -s "$(( 8 + (SIZE - 8) / 2 ))" "$SEG"
check torn-tail

# 2. Bit rot: one flipped byte mid-segment, caught by the record CRC.
repopulate
SEG="$(segment)"
SIZE="$(wc -c < "$SEG")"
printf '\xff' | dd of="$SEG" bs=1 seek="$(( SIZE / 2 ))" conv=notrunc status=none
check bit-flip

# 3. Lost manifest: the store must reset to cold, not guess.
repopulate
rm "$CACHE/MANIFEST"
check lost-manifest

# 4. Garbage segment: quarantined to *.corrupt, never replayed.
repopulate
SEG="$(segment)"
head -c 64 /dev/urandom > "$SEG"
check garbage-segment
ls "$CACHE"/*.corrupt > /dev/null 2>&1 || echo "note [garbage-segment]: no quarantine file (reset path)"

# 5. Orphaned tmp file: a crash between write and rename.
repopulate
head -c 32 /dev/urandom > "$CACHE/seg-99999999.log.tmp"
check orphan-tmp

# 6. Stale lock: a dead process's PID in LOCK must be taken over.
repopulate
echo 999999999 > "$CACHE/LOCK"
check stale-lock

echo "crash matrix: all cases recovered with baseline verdicts"
