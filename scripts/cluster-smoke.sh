#!/usr/bin/env bash
# Cluster smoke: three local rayschedd workers, one SIGKILL'd mid-run. The
# coordinator must reassign the killed worker's shards and the merged CSV
# must be byte-identical to a single-node run — verified with cmp, no
# tolerance. Used by `make cluster` and the ci cluster-smoke job.
set -euo pipefail
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
cleanup() {
  # shellcheck disable=SC2046  # word-splitting is the point: one PID per arg
  kill $(jobs -p) 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/rayschedd" ./cmd/rayschedd
go build -o "$dir/raysched" ./cmd/raysched
go build -o "$dir/raybench" ./cmd/raybench

params=(-networks 6 -links 16 -txseeds 2 -fadeseeds 2 -points 3 -seed 7)
urls=http://127.0.0.1:18081,http://127.0.0.1:18082,http://127.0.0.1:18083

# Worker 1 is armed with replication delay faults (3s per replication, every
# replication) so it is reliably still computing its first shard when the
# SIGKILL lands.
"$dir/rayschedd" -addr 127.0.0.1:18081 -log-level off \
  -faults "seed=1,sim.replication=delay:1:3s" & w1=$!
"$dir/rayschedd" -addr 127.0.0.1:18082 -log-level off &
"$dir/rayschedd" -addr 127.0.0.1:18083 -log-level off &

# Wait until every worker accepts connections (pure-bash TCP probe).
for port in 18081 18082 18083; do
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
      exec 3>&- 3<&-
      break
    fi
    sleep 0.1
  done
done

"$dir/raysched" figure1 "${params[@]}" -out "$dir/single.csv"

# Kill worker 1 one second into the distributed run — mid-shard, since its
# first replication alone takes 3s. Its leased shard must be reassigned.
# Hedging is disabled for this phase: it would speculatively rescue the stuck
# shard long before the lease expires, and this phase exists to prove the
# lease-reassignment path. (Hedging has its own -race unit tests.)
( sleep 1; kill -9 "$w1" 2>/dev/null || true ) &

"$dir/raysched" cluster "${params[@]}" \
  -workers "$urls" \
  -shard-size 1 -lease 5s -max-attempts 30 -hedge=-1s \
  -trace "$dir/cluster.trace.json" \
  -out "$dir/cluster.csv" 2> "$dir/cluster.log"
cat "$dir/cluster.log" >&2

# The kill must have actually cost the coordinator a shard: a run that shows
# zero reassignments finished before the chaos landed and proves nothing.
if grep -q ' 0 reassigned,' "$dir/cluster.log"; then
  echo "cluster-smoke: FAIL — the killed worker never lost a shard" >&2
  exit 1
fi

cmp "$dir/single.csv" "$dir/cluster.csv"
echo "cluster-smoke: merged output byte-identical to single-node run (one worker killed mid-shard)"

# The merged trace must be a valid Chrome trace with nested spans from at
# least three processes: the coordinator plus both surviving workers. (The
# killed worker's spans died with it — that's expected, not tolerated-missing.)
"$dir/raybench" tracecheck -nested -min-procs 3 "$dir/cluster.trace.json"

# Keep the merged trace as a CI artifact when the workflow asks for it.
if [[ -n "${CLUSTER_TRACE_OUT:-}" ]]; then
  cp "$dir/cluster.trace.json" "$CLUSTER_TRACE_OUT"
fi

# One-shot aggregated telemetry across the survivors: both live workers must
# show up in the scrape, and the killed one must be reported unreachable
# without failing the command.
"$dir/raysched" cluster -status -workers "$urls" > "$dir/status.txt"
cat "$dir/status.txt"
grep -q 'cluster: 2/3 workers live' "$dir/status.txt"
grep -q '18082' "$dir/status.txt"
grep -q '18083' "$dir/status.txt"
# The per-endpoint lines come from each worker's /healthz document: the
# survivors computed the shards, so at least one must report /v1/shard
# requests.
if ! grep -Eq '^  /v1/shard +[1-9][0-9]* reqs' "$dir/status.txt"; then
  echo "cluster-smoke: FAIL — no surviving worker reports /v1/shard requests in -status" >&2
  exit 1
fi
echo "cluster-smoke: merged trace validated (3+ processes) and -status sees both survivors"

# ---------------------------------------------------------------------------
# Phase 2: kill the COORDINATOR mid-run, then resume from its shard journal.
# The survivors (18082, 18083) serve both runs. Armed client.latency faults
# slow every dispatch by 1s so the SIGKILL reliably lands mid-run; the
# journal directory is the only state that survives the kill.
survivors=http://127.0.0.1:18082,http://127.0.0.1:18083
jdir="${CLUSTER_JOURNAL_DIR:-$dir/journal}"
mkdir -p "$jdir"

"$dir/raysched" cluster "${params[@]}" \
  -workers "$survivors" \
  -shard-size 1 -lease 10s -max-attempts 30 \
  -journal "$jdir" \
  -faults "seed=3,client.latency=delay:1:1s" \
  -out "$dir/killed.csv" 2> "$dir/killed.log" & cpid=$!

# Wait until at least two shards have landed in the journal, then SIGKILL
# the coordinator — no drain, no goodbye, exactly like an OOM kill.
for _ in $(seq 1 200); do
  n=$(find "$jdir" -name '*.shard' 2>/dev/null | wc -l)
  [[ "$n" -ge 2 ]] && break
  sleep 0.1
done
kill -9 "$cpid" 2>/dev/null || true
if wait "$cpid" 2>/dev/null; then
  echo "cluster-smoke: FAIL — coordinator finished before the SIGKILL landed" >&2
  exit 1
fi
cat "$dir/killed.log" >&2 || true

n=$(find "$jdir" -name '*.shard' | wc -l)
if [[ "$n" -lt 1 || "$n" -gt 5 ]]; then
  echo "cluster-smoke: FAIL — journal holds $n shards after the kill; a resume from it proves nothing (want 1..5 of 6)" >&2
  exit 1
fi
echo "cluster-smoke: coordinator SIGKILL'd with $n/6 shards journaled"

# Resume: same run identity, same journal, faults disarmed. Only the
# uncovered ranges may be re-dispatched, and the merged output must still be
# byte-identical to the single-node run.
"$dir/raysched" cluster "${params[@]}" \
  -workers "$survivors" \
  -shard-size 1 -lease 10s -max-attempts 30 \
  -journal "$jdir" \
  -out "$dir/resumed.csv" 2> "$dir/resumed.log"
cat "$dir/resumed.log" >&2

if ! grep -Eq '\([1-9][0-9]* resumed from journal\)' "$dir/resumed.log"; then
  echo "cluster-smoke: FAIL — the resumed run restored nothing from the journal" >&2
  exit 1
fi
cmp "$dir/single.csv" "$dir/resumed.csv"
echo "cluster-smoke: resume after coordinator SIGKILL byte-identical to single-node run"
