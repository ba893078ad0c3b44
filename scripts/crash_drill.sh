#!/bin/sh
# crash_drill.sh — kill-and-recover drill for the sweep journal.
#
# Starts a journaled mapsd, submits a slow sweep, SIGKILLs the daemon
# mid-sweep, appends half a record to the store's newest segment (the
# shape of an append the kill cut short), restarts it on the same
# -journal-dir/-store-dir, and verifies the sweep resumes under its
# original ID and completes with the already-finished points served
# from the store and nothing quarantined. It then stops the
# daemon gracefully, restarts it once more, and resubmits the same
# spec: the store answers every point, so the submit reply is already
# done, under a fresh ID, and no journal file is written. The
# walkthrough in docs/ROBUSTNESS.md is this script, narrated.
#
# Port can be overridden: CRASH_DRILL_PORT=9000 make crash-drill
set -eu

PORT="${CRASH_DRILL_PORT:-8773}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
PID=""

cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "crash-drill: building mapsd..."
go build -o "$WORK/mapsd" ./cmd/mapsd

# field NAME: the value of the first "NAME" key in the JSON on stdin,
# quotes stripped. mapsd replies are compact single-line JSON, so a
# greedy line match would land on the last such key, not the first.
field() {
    grep -o "\"$1\": *\"\{0,1\}[^\",}]*" | head -1 | sed 's/^[^:]*: *"\{0,1\}//'
}

start_daemon() {
    "$WORK/mapsd" -addr "127.0.0.1:$PORT" -workers 1 \
        -journal-dir "$WORK/journal" -store-dir "$WORK/store" &
    PID=$!
    i=0
    while ! curl -sf "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "crash-drill: daemon never became healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "crash-drill: starting a journaled daemon on :$PORT..."
start_daemon

SPEC='{
    "base": {"instructions": 5000000, "speculation": true},
    "axes": {
        "benchmarks": ["fft", "canneal"],
        "meta": {"points": ["16KB", "32KB", "64KB", "128KB"]}
    }
}'

# submit: POST the drill's sweep spec, printing the reply.
submit() {
    curl -sf -X POST "$BASE/v1/sweeps" -H 'Content-Type: application/json' -d "$SPEC"
}

# wals: the journal files on disk, one name a line.
wals() {
    ls "$WORK/journal" 2>/dev/null | grep '\.wal$' || true
}

echo "crash-drill: submitting a slow 8-point sweep..."
SUBMIT=$(submit)
ID=$(printf '%s' "$SUBMIT" | field id)
[ -n "$ID" ] || { echo "crash-drill: no sweep id in: $SUBMIT" >&2; exit 1; }
echo "crash-drill: sweep $ID admitted"

echo "crash-drill: waiting for at least 2 completed points..."
i=0
while :; do
    DONE=$(curl -sf "$BASE/v1/sweeps/$ID" | field done)
    [ "${DONE:-0}" -ge 2 ] && break
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "crash-drill: sweep made no progress" >&2
        exit 1
    fi
    sleep 0.1
done
echo "crash-drill: $DONE points done — waiting for the store to flush..."
i=0
while ! curl -sf "$BASE/metrics" | grep -q '^mapsd_store_pending_writes 0$'; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && break
    sleep 0.1
done

echo "crash-drill: SIGKILL (no drain, no goodbye)..."
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

# A torn append: a frame header announcing 255 payload bytes, then
# only three of them. The restart must cut it off, not quarantine it.
SEG="$WORK/store/segments/$(ls "$WORK/store/segments" | tail -1)"
echo "crash-drill: appending a torn record to $(basename "$SEG")..."
printf '\377\000\000\000\000\000\000\000abc' >>"$SEG"

echo "crash-drill: restarting on the same journal and store..."
start_daemon
RECOVERED=$(curl -sf "$BASE/metrics" | sed -n 's/^mapsd_sweeps_recovered_total \([0-9]*\)$/\1/p')
if [ "${RECOVERED:-0}" -ne 1 ]; then
    echo "crash-drill: expected 1 recovered sweep, got ${RECOVERED:-0}" >&2
    exit 1
fi
echo "crash-drill: sweep $ID recovered — waiting for completion..."
i=0
while :; do
    STATUS=$(curl -sf "$BASE/v1/sweeps/$ID")
    STATE=$(printf '%s' "$STATUS" | field state)
    case "$STATE" in
        done) break ;;
        failed|canceled) echo "crash-drill: sweep ended $STATE: $STATUS" >&2; exit 1 ;;
    esac
    i=$((i + 1))
    if [ "$i" -gt 600 ]; then
        echo "crash-drill: recovered sweep never finished" >&2
        exit 1
    fi
    sleep 0.1
done
DEDUPED=$(printf '%s' "$STATUS" | field deduped)
if [ "${DEDUPED:-0}" -lt "$DONE" ]; then
    echo "crash-drill: only ${DEDUPED:-0} of the $DONE points stored before the kill were served from the store" >&2
    exit 1
fi
QUARANTINED=$(curl -sf "$BASE/metrics" | sed -n 's/^mapsd_store_quarantined_total \([0-9]*\)$/\1/p')
if [ "${QUARANTINED:-x}" != 0 ]; then
    echo "crash-drill: the torn append cost ${QUARANTINED:-?} quarantined entries, want 0" >&2
    exit 1
fi
echo "crash-drill: sweep $ID completed; $DEDUPED points served from the store, none re-simulated, none quarantined"
curl -sf "$BASE/metrics" | grep '^mapsd_journal\|^mapsd_sweeps_recovered' || true

echo "crash-drill: SIGTERM (graceful drain), then restart..."
kill -TERM "$PID"
wait "$PID" 2>/dev/null || true
PID=""
start_daemon
BEFORE=$(wals)
echo "crash-drill: resubmitting the finished sweep's spec..."
SUBMIT=$(submit)
STATE=$(printf '%s' "$SUBMIT" | field state)
DEDUPED=$(printf '%s' "$SUBMIT" | field deduped)
NEWID=$(printf '%s' "$SUBMIT" | field id)
if [ "$STATE" != done ] || [ "${DEDUPED:-0}" -ne 8 ]; then
    echo "crash-drill: resubmit reply is not done with 8 deduped points: $SUBMIT" >&2
    exit 1
fi
if [ "$NEWID" = "$ID" ]; then
    echo "crash-drill: resubmitted sweep reused the finished sweep's ID $ID" >&2
    exit 1
fi
if [ "$(wals)" != "$BEFORE" ]; then
    echo "crash-drill: the stored resubmit wrote a journal: $(wals)" >&2
    exit 1
fi
echo "crash-drill: sweep $NEWID done at submit, all 8 points from the store, no journal written"

echo "crash-drill: OK"
