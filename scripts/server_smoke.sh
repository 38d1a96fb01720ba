#!/bin/sh
# Server smoke: boot the real rskipd binary, drive one request through
# each endpoint family, then SIGTERM it and require a clean drain.
# This exercises the wiring httptest cannot — flags, the TCP listener,
# signal handling, process exit — in a few seconds.
set -eu

ADDR=${ADDR:-127.0.0.1:18321}
DIR=$(mktemp -d)
LOG="$DIR/rskipd.log"
trap 'kill $PID 2>/dev/null || true; rm -rf "$DIR"' EXIT

go build -o "$DIR/rskipd" ./cmd/rskipd
"$DIR/rskipd" -addr "$ADDR" -checkpoint-dir "$DIR/ck" 2>"$LOG" &
PID=$!

# Wait for the listener.
i=0
until curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "FAIL: rskipd never became healthy"
		cat "$LOG"
		exit 1
	fi
	sleep 0.2
done
echo "ok    healthz"

curl -fsS -X POST "http://$ADDR/v1/compile" \
	-d '{"bench":"conv1d"}' | grep -q '"candidates"'
echo "ok    compile"

curl -fsS -X POST "http://$ADDR/v1/run" \
	-d '{"bench":"conv1d","scheme":"rskip","scale":"tiny","train":1}' |
	grep -q '"output_matches": *true'
echo "ok    run"

ID=$(curl -fsS -X POST "http://$ADDR/v1/campaigns" \
	-d '{"bench":"conv1d","scheme":"unsafe","n":100,"batch":25}' |
	sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
[ -n "$ID" ]
i=0
until curl -fsS "http://$ADDR/v1/campaigns/$ID" | grep -q '"state": *"done"'; do
	i=$((i + 1))
	if [ "$i" -gt 150 ]; then
		echo "FAIL: campaign $ID never finished"
		curl -fsS "http://$ADDR/v1/campaigns/$ID" || true
		cat "$LOG"
		exit 1
	fi
	sleep 0.2
done
echo "ok    campaign"

# Skip-model leg: an exhaustive instruction-skip campaign over a
# micro-kernel under the hardened scheme must finish at exactly 100%
# protection, and an unknown model must 400 with its dedicated code.
SKIP_ID=$(curl -fsS -X POST "http://$ADDR/v1/campaigns" \
	-d '{"bench":"musum","scheme":"swiftrhard","fault_model":"skip","exhaustive":true}' |
	sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)
[ -n "$SKIP_ID" ]
i=0
until curl -fsS "http://$ADDR/v1/campaigns/$SKIP_ID" | grep -q '"state": *"done"'; do
	i=$((i + 1))
	if [ "$i" -gt 300 ]; then
		echo "FAIL: skip campaign $SKIP_ID never finished"
		curl -fsS "http://$ADDR/v1/campaigns/$SKIP_ID" || true
		cat "$LOG"
		exit 1
	fi
	sleep 0.2
done
curl -fsS "http://$ADDR/v1/campaigns/$SKIP_ID" | grep -q '"protection_rate": *100' || {
	echo "FAIL: hardened scheme below 100% under exhaustive skips"
	curl -fsS "http://$ADDR/v1/campaigns/$SKIP_ID" || true
	exit 1
}
# -f would abort on the expected 400; read the body instead.
curl -sS -X POST "http://$ADDR/v1/campaigns" \
	-d '{"bench":"conv1d","scheme":"unsafe","fault_model":"cosmic-ray"}' |
	grep -q '"unknown_fault_model"'
echo "ok    skip model"

curl -fsS "http://$ADDR/metrics" >"$DIR/metrics.json"
grep -q 'server_requests_total' "$DIR/metrics.json"
echo "ok    metrics"

# Graceful drain on SIGTERM.
kill -TERM $PID
i=0
while kill -0 $PID 2>/dev/null; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "FAIL: rskipd did not exit after SIGTERM"
		cat "$LOG"
		exit 1
	fi
	sleep 0.2
done
wait $PID || {
	echo "FAIL: rskipd exited non-zero"
	cat "$LOG"
	exit 1
}
grep -q 'drained' "$LOG" || {
	echo "FAIL: no drain message in the log"
	cat "$LOG"
	exit 1
}
echo "ok    drain"
echo "server smoke: all checks passed"
