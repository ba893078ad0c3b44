#!/bin/sh
# fuzz_smoke.sh — run one fuzz target and fail unless it was fuzzing
# when time ran out.
#
# Usage: scripts/fuzz_smoke.sh -fuzz=Name [go test flags...] ./pkg
#
# Runs `go test -run '^$'` with the given flags ($GO names the go
# command) and prints its output. `go test -fuzz` passes a
# target whose workers ran no new input for the whole window — one
# stuck minimizing an interesting input, say — so the gate also reads
# the last `fuzz: elapsed: …, execs: N (R/sec)` progress line, whose
# rate covers the last reporting interval, and fails when it is 0/sec
# or missing.
set -eu

GO="${GO:-go}"
out="$(mktemp)"
trap 'rm -f "$out"' EXIT

status=0
"$GO" test -run '^$' "$@" >"$out" 2>&1 || status=$?
cat "$out"
[ "$status" -eq 0 ] || exit "$status"

target="$(printf '%s\n' "$@" | sed -n 's/^-fuzz=//p')"
rate="$(sed -n 's/^fuzz: elapsed: .*execs: [0-9]* (\([0-9]*\)\/sec).*/\1/p' "$out" | tail -n 1)"
if [ -z "$rate" ]; then
	echo "fuzzsmoke: $target printed no progress line" >&2
	exit 1
fi
echo "fuzzsmoke: $target: last interval $rate/sec"
if [ "$rate" -eq 0 ]; then
	echo "fuzzsmoke: $target ran no inputs in its last interval" >&2
	exit 1
fi
