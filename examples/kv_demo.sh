#!/usr/bin/env sh
# Replicated key-value service demo: launch a 3-node ecfd-kv cluster as
# three OS processes over loopback UDP, drive a mixed read/write load
# against it, kill the leader with SIGKILL mid-load, and verify that
# every acknowledged write survived (exactly-once, zero acked-write loss).
#
# Usage:  examples/kv_demo.sh [path-to-ecfd_node] [path-to-ecfd_kv]
#         (defaults: build/tools/ecfd_node, build/tools/ecfd_kv)
#         ECFD_BACKEND=uring runs the nodes on the io_uring network
#         backend (degrades to poll where the kernel lacks it).
#
# Exit code 0 when the load generator finishes with no lost acked writes
# and a survivor took over leadership; nonzero otherwise.
set -eu

NODE_BIN="${1:-build/tools/ecfd_node}"
KV_BIN="${2:-build/tools/ecfd_kv}"
BACKEND="${ECFD_BACKEND:-poll}"
WORKDIR="$(mktemp -d)"
trap 'kill $PID0 $PID1 $PID2 $BENCH_PID 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

for bin in "$NODE_BIN" "$KV_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "binary not found at $bin (build first: cmake --build build)" >&2
    exit 2
  fi
done

PORT_BASE=$(( 21000 + ($$ % 1000) * 3 ))
cat > "$WORKDIR/cluster.ini" <<EOF
[cluster]
seed = 7
fd = ecfd
period_ms = 50
initial_timeout_ms = 250
timeout_increment_ms = 100

[kv]
enabled = 1
pipeline_depth = 4
batch_max_ops = 64
batch_wait_ms = 2
lease_establish_ms = 400
snapshot_every = 64
dedup_window = 64

[peers]
0 = 127.0.0.1:$PORT_BASE
1 = 127.0.0.1:$(( PORT_BASE + 1 ))
2 = 127.0.0.1:$(( PORT_BASE + 2 ))
EOF

echo "== launching 3 kv nodes (ports $PORT_BASE..$(( PORT_BASE + 2 )), backend $BACKEND)"
"$NODE_BIN" --config "$WORKDIR/cluster.ini" --id 0 --kv --backend "$BACKEND" --run-ms 60000 > "$WORKDIR/node0.out" & PID0=$!
"$NODE_BIN" --config "$WORKDIR/cluster.ini" --id 1 --kv --backend "$BACKEND" --run-ms 60000 > "$WORKDIR/node1.out" & PID1=$!
"$NODE_BIN" --config "$WORKDIR/cluster.ini" --id 2 --kv --backend "$BACKEND" --run-ms 60000 > "$WORKDIR/node2.out" & PID2=$!
BENCH_PID=""

sleep 1

echo "== single-shot sanity: put / get through the leader"
"$KV_BIN" --config "$WORKDIR/cluster.ini" put demo-key demo-value
"$KV_BIN" --config "$WORKDIR/cluster.ini" get demo-key

echo "== starting mixed load (4 clients, 50% reads, verify at the end)"
"$KV_BIN" --config "$WORKDIR/cluster.ini" bench \
  --clients 4 --ops 2000 --read-pct 50 --keys 500 --verify \
  > "$WORKDIR/bench.out" 2>&1 & BENCH_PID=$!

sleep 2
echo "== kill -9 the leader (node 0, pid $PID0) mid-load"
kill -9 "$PID0" 2>/dev/null || true

BENCH_RC=0
wait "$BENCH_PID" || BENCH_RC=$?
BENCH_PID=""
cat "$WORKDIR/bench.out"

if [ "$BENCH_RC" -ne 0 ]; then
  echo "== FAIL: load generator reported lost acked writes or errors (rc=$BENCH_RC)" >&2
  exit 1
fi

# A survivor must have taken over leadership to keep serving the load.
if ! tail -n 3 "$WORKDIR/node1.out" "$WORKDIR/node2.out" | grep -q '"leader":true'; then
  echo "== FAIL: no survivor took over leadership" >&2
  tail -n 2 "$WORKDIR/node1.out" "$WORKDIR/node2.out" >&2
  exit 1
fi

echo "== OK: leader killed mid-load, zero acked-write loss, failover complete"
exit 0
