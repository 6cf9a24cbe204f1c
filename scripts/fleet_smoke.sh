#!/usr/bin/env bash
# Fleet smoke test: two msrd workers (one static, one joining via
# -register), one msrfleet coordinator, one sharded msrbench sweep
# through the coordinator, then assertions on ring membership and the
# aggregated /metrics exposition. CI runs this to prove the binaries
# compose outside the Go test harness.
set -euo pipefail

COORD=127.0.0.1:18370
W1=127.0.0.1:18371
W2=127.0.0.1:18372
DIR=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

echo "== building"
go build -o "$DIR/msrd" ./cmd/msrd
go build -o "$DIR/msrfleet" ./cmd/msrfleet
go build -o "$DIR/msrbench" ./cmd/msrbench
go build -o "$DIR/msrtail" ./cmd/msrtail

echo "== starting workers and coordinator"
"$DIR/msrd" -addr "$W1" -store "$DIR/store1" -log-level warn &
PIDS+=($!)
"$DIR/msrfleet" -addr "$COORD" -workers "http://$W1" -health-interval 250ms -log-level info &
PIDS+=($!)
"$DIR/msrd" -addr "$W2" -store "$DIR/store2" -register "http://$COORD" -log-level warn &
PIDS+=($!)

wait_until() { # wait_until <seconds> <cmd...>
  local deadline=$(( $(date +%s) + $1 )); shift
  until "$@" >/dev/null 2>&1; do
    if [ "$(date +%s)" -ge "$deadline" ]; then
      echo "timed out waiting for: $*" >&2
      return 1
    fi
    sleep 0.2
  done
}

two_workers_healthy() {
  curl -fsS "http://$COORD/fleet/v1/workers" | grep -o '"healthy":true' | wc -l | grep -qx 2
}

wait_until 30 curl -fsS "http://$COORD/readyz"
wait_until 30 two_workers_healthy
echo "== ring has two healthy workers"

echo "== tailing the fleet event bus"
# A headless subscriber captures the whole run's lifecycle + telemetry
# stream and asserts queued -> start -> done ordering per job. The
# archive lands in the repo cwd (not $DIR) so CI can keep it.
"$DIR/msrtail" -addr "$COORD" -assert-order -out EVENTS_PR9.ndjson &
TAIL_PID=$!
PIDS+=($TAIL_PID)
subscriber_attached() {
  # No -q: grep must read to the end. The coordinator streams its own
  # series before its workers', so a grep that quit at the match would
  # close the pipe under curl, and pipefail would fail the check.
  curl -fsS "http://$COORD/metrics" | grep '^msrfleet_stream_connections [1-9]'
}
wait_until 30 subscriber_attached

echo "== sharded sweep through the coordinator"
"$DIR/msrbench" -remote "$COORD" -exp table1 -scale 0 >"$DIR/table1.txt"
grep -q . "$DIR/table1.txt"

echo "== repeating the sweep (served from the coordinator's cache)"
"$DIR/msrbench" -remote "$COORD" -exp table1 -scale 0 >/dev/null

METRICS=$(curl -fsS "http://$COORD/metrics")
echo "$METRICS" | grep -q '^msrfleet_jobs_completed_total [1-9]' || {
  echo "coordinator completed no jobs" >&2; exit 1; }
echo "$METRICS" | grep -q 'msrd_jobs_submitted_total{worker="http://'"$W1"'"}' || {
  echo "aggregated metrics missing worker 1 series" >&2; exit 1; }
echo "$METRICS" | grep -q 'msrd_jobs_submitted_total{worker="http://'"$W2"'"}' || {
  echo "aggregated metrics missing worker 2 series" >&2; exit 1; }
# The second sweep must have been answered by the coordinator's own
# result cache, without a worker hop.
HITS=$(echo "$METRICS" | awk '/^msrfleet_cache_hits_total / {print $2}')
[ "${HITS:-0}" -ge 1 ] || { echo "no coordinator cache hits" >&2; exit 1; }

echo "== multi-fidelity spec through the coordinator"
# A fast-forwarded sampled spec exercises the fidelity fields of the wire
# format end to end: the canonical key (distinct from the full-detail
# run's), sharding, and the extrapolated result round-trip.
# sample_interval makes the detailed windows emit live interval frames,
# which must relay up to the coordinator's event bus (asserted below).
FIDSPEC='{"specs":[{"workload":"mcf","scale":0,"engine":"rgid","fast_forward":400,"detailed_window":200,"sample_periods":4,"sample_interval":64,"warm":true}]}'
JOB=$(curl -fsS -X POST -d "$FIDSPEC" "http://$COORD/v1/jobs" | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
[ -n "$JOB" ] || { echo "fidelity job submission failed" >&2; exit 1; }
job_done() {
  curl -fsS "http://$COORD/v1/jobs/$JOB" | grep -q '"state":"done"'
}
wait_until 30 job_done
FIDRES=$(curl -fsS "http://$COORD/v1/jobs/$JOB")
echo "$FIDRES" | grep -q '"extrapolated":true' || {
  echo "fidelity result not extrapolated: $FIDRES" >&2; exit 1; }
echo "$FIDRES" | grep -q '"fast_forwarded":' || {
  echo "fidelity result missing fast_forwarded count: $FIDRES" >&2; exit 1; }
# Resubmitting the identical spec must be a coordinator cache hit.
JOB2=$(curl -fsS -X POST -d "$FIDSPEC" "http://$COORD/v1/jobs" | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
job2_done() {
  curl -fsS "http://$COORD/v1/jobs/$JOB2" | grep -q '"state":"done"'
}
wait_until 30 job2_done
curl -fsS "http://$COORD/v1/jobs/$JOB2" | grep -q '"cache_hits":1' || {
  echo "repeated fidelity spec was not served from cache" >&2; exit 1; }

echo "== checkpoint-sharded sweep through the coordinator"
# Two cold fast-forwarded specs over the same program but different
# engine geometries: distinct canonical keys (no result-cache reuse),
# one shard key. Both must home to the same worker, the first filling
# that worker's checkpoint store and the second restoring from it —
# cross-config checkpoint sharing, asserted on the aggregated
# per-worker msrd_ckpt_* series.
CKSPEC1='{"specs":[{"workload":"mcf","scale":0,"engine":"rgid","fast_forward":400,"detailed_window":200,"sample_periods":4}]}'
CKSPEC2='{"specs":[{"workload":"mcf","scale":0,"engine":"rgid","streams":8,"entries":128,"fast_forward":400,"detailed_window":200,"sample_periods":4}]}'
for SPEC in "$CKSPEC1" "$CKSPEC2"; do
  CKJOB=$(curl -fsS -X POST -d "$SPEC" "http://$COORD/v1/jobs" | sed -n 's/.*"job_id":"\([^"]*\)".*/\1/p')
  [ -n "$CKJOB" ] || { echo "checkpointed job submission failed" >&2; exit 1; }
  ckjob_done() {
    curl -fsS "http://$COORD/v1/jobs/$CKJOB" | grep -q '"state":"done"'
  }
  wait_until 30 ckjob_done
done
METRICS=$(curl -fsS "http://$COORD/metrics")
CKHITS=$(echo "$METRICS" | awk '/^msrd_ckpt_hits_total\{/ {sum += $2} END {print sum+0}')
[ "${CKHITS:-0}" -ge 1 ] || { echo "no checkpoint hits across the fleet" >&2; exit 1; }
# The hits must sit on the worker that owns the mcf@s0 shard — i.e. on
# exactly one worker, the same one whose store the first sweep filled.
OWNERS=$(echo "$METRICS" | awk '/^msrd_ckpt_hits_total\{/ && $2 > 0' | wc -l)
[ "$OWNERS" -eq 1 ] || { echo "checkpoint hits spread across $OWNERS workers (shard homing broken)" >&2; exit 1; }
echo "== checkpoint sharing OK ($CKHITS restores on the owning worker)"

echo "== validating the captured event stream"
# Give trailing frames a beat to flush, then stop the tail; msrtail
# exits 1 on any per-job ordering violation, 0 on a clean capture.
sleep 1
kill -TERM "$TAIL_PID"
if ! wait "$TAIL_PID"; then
  echo "msrtail reported order violations or a broken stream" >&2; exit 1
fi
for TYPE in job_queued job_start spec_dispatched spec_done job_done interval; do
  grep -q '"type":"'"$TYPE"'"' EVENTS_PR9.ndjson || {
    echo "event archive carries no $TYPE events" >&2; exit 1; }
done
grep -q '"worker":"http://'"$W1"'"\|"worker":"http://'"$W2"'"' EVENTS_PR9.ndjson || {
  echo "event archive carries no worker labels" >&2; exit 1; }
EVENTS=$(wc -l < EVENTS_PR9.ndjson)
echo "== event archive OK ($EVENTS frames)"

echo "== fleet smoke OK (coordinator cache hits: $HITS)"
