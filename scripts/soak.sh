#!/usr/bin/env bash
# soak.sh — launch an N-process rtds-node cluster on localhost and drive it
# with rtds-load. Used by the nightly CI soak and for manual acceptance runs.
#
#   scripts/soak.sh [sites] [jobs] [extra rtds-load args...]
#
# Examples:
#   scripts/soak.sh 3 120                       # small smoke soak
#   scripts/soak.sh 8 600 -verify-live -min-agreement 1.0 \
#       -load 0.25 -tightness 8 -infeasible 0.3 # the acceptance run
#   CHURN=1 scripts/soak.sh 8 0 -load 0.25 -tightness 4 -horizon 6000
#                                               # the churn acceptance run
#   SCHEME=rtds-hier scripts/soak.sh 9 150 -verify-live -min-agreement 1.0 \
#       -load 0.25 -tightness 8 -infeasible 0.3 # region routing across processes
#
# SCHEME (default rtds) is passed as -scheme to every rtds-node and to
# rtds-load, whose -verify-live replay runs the same scheme in process.
#
# The acceptance run uses a margin-robust workload (clearly feasible or
# clearly infeasible deadlines): wall-clock runs cannot pin decisions whose
# margin is below scheduling noise — two runs of the in-process live cluster
# disagree on those — so "identical decisions" is demonstrated where it is
# well-defined. The DES suite pins razor-edge decisions. The 8-site, 600-job
# run at seed 1 still holds two such jobs (arrivals 245 and 458): the
# processes and the in-process replay run the same TCP transport, which
# charges the link delays the DES charges, the DES accepts 245 and rejects
# 458 by less than scheduling noise, and the run can miss 1.0 by one of
# them. The nightly 3-site, 150-job run holds none.
#
# CHURN=1 exercises dynamic membership: mid-run, one node (VICTIM, default
# the last site) is SIGKILLed — no goodbye, its in-flight jobs die with it —
# and after JOIN_AFTER seconds a replacement process for the same site id
# joins the RUNNING cluster with -join. rtds-load runs with
# -optional-sites/-joiner, so the run fails unless every surviving job is
# decided, no reachable node leaks reservations, and the joiner both
# answers at least one enrollment and accepts at least one job of its own.
#
# GATEWAY mode (first argument literally "GATEWAY") puts rtds-gateway in
# front of the cluster and drives rtds-load through it across TENANTS
# (default three). Mid-run the GATEWAY is SIGKILLed — after accepting and
# acking submissions — and restarted on the same write-ahead job log.
# rtds-load retries through the outage with idempotency keys and, at the
# end, reconciles every acked job id against GET /v1/jobs/{id}: a single
# accepted-but-lost submission fails the run. This is the durability
# acceptance run for the write-ahead job log. It is also the only run of the
# real multi-process deployment, so it checks the decision-return path from
# the gateway's /metrics, before the kill and at the end: decisions must
# come back through the per-node watchers (the reconcile tick is the
# fallback, and accounts for the jobs replayed across the kill), and the
# median accept->decision latency must be under 100 ms. A regression to
# tick-only delivery fails the soak. After the restart the median
# submission->ack latency must be under 3 ms: the ack waits for one fsync,
# and for at most one 1.9 ms commit window when it follows another closely.
# The kill lands with forwarded/decided records written and not yet flushed
# (nobody waits for those), so the zero-loss reconciliation also covers
# recovery from a log whose tail lost them. The log starts with a history
# of 6,000 decided jobs written by scripts/joblogseed, which the log
# compacts as it goes in, so the gateway starts and restarts on a
# checkpoint. After the run the gateway is stopped cleanly, and the log must
# be smaller than the bytes appended to it, with no file left beside it.
#
#   scripts/soak.sh GATEWAY 3 300 -load 0.4     # the gateway acceptance run
set -euo pipefail

GATEWAY=0
if [[ "${1:-}" == "GATEWAY" ]]; then GATEWAY=1; shift; fi

SITES="${1:-3}"; shift || true
JOBS="${1:-120}"; shift || true

TOPO="${TOPO:-random}"
SCHEME="${SCHEME:-rtds}"
SEED="${SEED:-1}"
SCALE="${SCALE:-2ms}"
PORT_BASE="${PORT_BASE:-7400}"
HTTP_BASE="${HTTP_BASE:-8400}"
OUT="${OUT:-soak-report.json}"
CHURN="${CHURN:-0}"
VICTIM="${VICTIM:-$((SITES - 1))}"
KILL_AFTER="${KILL_AFTER:-3}"
JOIN_AFTER="${JOIN_AFTER:-3}"
GW_PORT="${GW_PORT:-$((HTTP_BASE + 100))}"
RESTART_AFTER="${RESTART_AFTER:-2}"
TENANTS="${TENANTS:-acme,globex,initech}"

cd "$(dirname "$0")/.."
bin=$(mktemp -d)
go build -o "$bin/rtds-node" ./cmd/rtds-node
go build -o "$bin/rtds-load" ./cmd/rtds-load
if [[ "$GATEWAY" == "1" ]]; then
  go build -o "$bin/rtds-gateway" ./cmd/rtds-gateway
  go build -o "$bin/joblogseed" ./scripts/joblogseed
fi

peers=""
nodes=""
for ((i = 0; i < SITES; i++)); do
  peers+="${peers:+,}$i=127.0.0.1:$((PORT_BASE + i))"
  nodes+="${nodes:+,}$i=127.0.0.1:$((HTTP_BASE + i))"
done

pids=()
gw_pid=""
cleanup() {
  [[ -n "$gw_pid" ]] && kill "$gw_pid" 2>/dev/null || true
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  [[ -n "$gw_pid" ]] && wait "$gw_pid" 2>/dev/null || true
  for pid in "${pids[@]}"; do wait "$pid" 2>/dev/null || true; done
  rm -rf "$bin"
}
trap cleanup EXIT

start_node() { # id, extra args...
  local id="$1"; shift
  "$bin/rtds-node" -id "$id" -sites "$SITES" -topo "$TOPO" -seed "$SEED" \
    -listen "127.0.0.1:$((PORT_BASE + id))" -peers "$peers" \
    -http "127.0.0.1:$((HTTP_BASE + id))" -scale "$SCALE" -scheme "$SCHEME" "$@" &
  pids+=($!)
}

for ((i = 0; i < SITES; i++)); do
  start_node "$i"
done

if [[ "$GATEWAY" == "1" ]]; then
  # Per-tenant quotas: generous rates so throughput is shaped by the
  # workload, not the buckets — this run proves durability, not admission
  # (admission has its own table test in internal/gateway).
  quota_spec=""
  IFS=',' read -ra tnames <<<"$TENANTS"
  for t in "${tnames[@]}"; do
    quota_spec+="${quota_spec:+;}$t:rate=500,burst=1000,inflight=2000"
  done
  gw_nodes=""
  for ((i = 0; i < SITES; i++)); do
    gw_nodes+="${gw_nodes:+,}127.0.0.1:$((HTTP_BASE + i))"
  done
  mkdir "$bin/wal"
  joblog="$bin/wal/gateway.wal"
  appended=$("$bin/joblogseed" "$joblog" 6000)

  start_gateway() {
    "$bin/rtds-gateway" -listen "127.0.0.1:$GW_PORT" -nodes "$gw_nodes" \
      -joblog "$joblog" -tenants "$quota_spec" &
    gw_pid=$!
  }
  start_gateway

  # check_decision_return LABEL: assert on the running gateway's /metrics
  # that watched decisions outnumber polled ones (not counting the jobs
  # replayed from the log, which only the tick can find) and that the median
  # of rtds_gateway_decision_latency_seconds lies in a bucket <= 0.1 s.
  check_decision_return() {
    local label="$1" m
    if ! m=$(curl -fsS "http://127.0.0.1:$GW_PORT/metrics"); then
      echo "soak: $label: cannot scrape the gateway's /metrics" >&2
      return 1
    fi
    awk -v label="$label" '
      /^rtds_gateway_decisions_observed_total\{via="watch"\}/ { watch = $2 }
      /^rtds_gateway_decisions_observed_total\{via="poll"\}/  { poll = $2 }
      /^rtds_gateway_replayed_total /                         { replayed = $2 }
      /^rtds_gateway_decision_latency_seconds_count /         { count = $2 }
      /^rtds_gateway_decision_latency_seconds_bucket/ {
        le = $1; sub(/.*le="/, "", le); sub(/".*/, "", le)
        n++; les[n] = le; cum[n] = $2
      }
      END {
        polled = poll - replayed; if (polled < 0) polled = 0
        printf "soak: %s: decisions via watch=%d poll=%d (replayed=%d)", label, watch, poll, replayed
        if (watch + polled > 0 && watch <= polled) {
          printf "\nsoak: %s: FAIL: decisions are coming back on the reconcile tick, not through the watchers\n", label
          exit 1
        }
        if (count > 0) {
          for (i = 1; i <= n; i++) if (cum[i] >= count / 2) break
          printf ", median decision latency <= %s s over %d samples\n", les[i], count
          if (les[i] == "+Inf" || les[i] + 0 > 0.1) {
            printf "soak: %s: FAIL: median decision latency is not under 100 ms\n", label
            exit 1
          }
        } else printf "\n"
      }' <<<"$m"
  }

  # check_accept_latency LABEL: assert that the median of
  # rtds_gateway_accept_latency_seconds lies in a bucket <= 3 ms. An ack
  # waits for one fsync and one forward, after at most one commit window
  # (1.9 ms); a median above that means a timer in front of every fsync or a
  # second waited-on record is back between a submission and its 202.
  check_accept_latency() {
    local label="$1" m
    if ! m=$(curl -fsS "http://127.0.0.1:$GW_PORT/metrics"); then
      echo "soak: $label: cannot scrape the gateway's /metrics" >&2
      return 1
    fi
    awk -v label="$label" '
      /^rtds_gateway_accept_latency_seconds_count / { count = $2 }
      /^rtds_gateway_accept_latency_seconds_bucket/ {
        le = $1; sub(/.*le="/, "", le); sub(/".*/, "", le)
        n++; les[n] = le; cum[n] = $2
      }
      END {
        if (count == 0) {
          printf "soak: %s: FAIL: no submission was acked by this gateway process\n", label
          exit 1
        }
        for (i = 1; i <= n; i++) if (cum[i] >= count / 2) break
        printf "soak: %s: median accept latency <= %s s over %d acks\n", label, les[i], count
        if (les[i] == "+Inf" || les[i] + 0 > 0.003) {
          printf "soak: %s: FAIL: median accept latency is not under 3 ms\n", label
          exit 1
        }
      }' <<<"$m"
  }

  "$bin/rtds-load" -gateway "127.0.0.1:$GW_PORT" -tenants "$TENANTS" \
    -nodes "$nodes" -sites "$SITES" -topo "$TOPO" -seed "$SEED" \
    -jobs "$JOBS" -scale "$SCALE" -scheme "$SCHEME" -json "$OUT" "$@" &
  load_pid=$!
  sleep "$KILL_AFTER"
  check_decision_return "before the kill"
  echo "soak: SIGKILL gateway (pid $gw_pid)"
  kill -9 "$gw_pid" 2>/dev/null || true
  wait "$gw_pid" 2>/dev/null || true
  sleep "$RESTART_AFTER"
  echo "soak: restarting gateway on the same job log"
  start_gateway
  wait "$load_pid"
  check_decision_return "after the restart"
  check_accept_latency "after the restart"
  # A clean shutdown waits for any compaction, and the log it leaves is
  # smaller than what was appended to it (the history's graphs alone), with
  # nothing beside it.
  kill -TERM "$gw_pid"
  wait "$gw_pid"
  gw_pid=""
  size=$(wc -c <"$joblog")
  echo "soak: job log $size bytes after appending more than $appended"
  if ((size >= appended)); then
    echo "soak: FAIL: the job log did not compact" >&2
    exit 1
  fi
  if [[ "$(ls -A "$bin/wal")" != "gateway.wal" ]]; then
    echo "soak: FAIL: files left beside the job log: $(ls -A "$bin/wal")" >&2
    exit 1
  fi
  echo "gateway soak OK: $SITES sites, tenants $TENANTS, gateway killed+restarted, zero acked submissions lost -> $OUT"
elif [[ "$CHURN" == "1" ]]; then
  "$bin/rtds-load" -nodes "$nodes" -sites "$SITES" -topo "$TOPO" -seed "$SEED" \
    -jobs "$JOBS" -scale "$SCALE" -scheme "$SCHEME" -json "$OUT" \
    -optional-sites "$VICTIM" -joiner "$VICTIM" "$@" &
  load_pid=$!
  sleep "$KILL_AFTER"
  victim_pid="${pids[$VICTIM]}"
  echo "soak: SIGKILL site $VICTIM (pid $victim_pid)"
  kill -9 "$victim_pid" 2>/dev/null || true
  wait "$victim_pid" 2>/dev/null || true
  sleep "$JOIN_AFTER"
  echo "soak: joining replacement for site $VICTIM"
  start_node "$VICTIM" -join
  wait "$load_pid"
  echo "churn soak OK: $SITES sites, site $VICTIM killed and rejoined -> $OUT"
else
  "$bin/rtds-load" -nodes "$nodes" -sites "$SITES" -topo "$TOPO" -seed "$SEED" \
    -jobs "$JOBS" -scale "$SCALE" -scheme "$SCHEME" -json "$OUT" "$@"
  echo "soak OK: $SITES sites, $JOBS jobs -> $OUT"
fi
