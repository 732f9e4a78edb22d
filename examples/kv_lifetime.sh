#!/usr/bin/env sh
# Service-lifetime check for ecfd-kv: a 3-node cluster whose config still
# carries the old `[kv] capacity = 32` slot budget takes 60 one-shot
# `ecfd_kv put`s (each opens a session and writes once, two log slots).
# Every put must be acknowledged, and no node's resident memory may grow
# by more than 10% between put 10 and put 60.
#
# Usage:  examples/kv_lifetime.sh [path-to-ecfd_node] [path-to-ecfd_kv]
#         (defaults: build/tools/ecfd_node, build/tools/ecfd_kv)
#
# Exit code 0 when all 60 puts are acked and RSS stays flat; 1 otherwise.
set -eu

NODE_BIN="${1:-build/tools/ecfd_node}"
KV_BIN="${2:-build/tools/ecfd_kv}"
WORKDIR="$(mktemp -d)"
PID0=""; PID1=""; PID2=""
trap 'kill $PID0 $PID1 $PID2 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

for bin in "$NODE_BIN" "$KV_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "binary not found at $bin (build first: cmake --build build)" >&2
    exit 2
  fi
done

PORT_BASE=$(( 24000 + ($$ % 1000) * 3 ))
cat > "$WORKDIR/cluster.ini" <<EOF
[cluster]
seed = 7
fd = ecfd
period_ms = 50
initial_timeout_ms = 250
timeout_increment_ms = 100

[kv]
enabled = 1
capacity = 32
pipeline_depth = 4
batch_wait_ms = 2
lease_establish_ms = 400
snapshot_every = 8

[peers]
0 = 127.0.0.1:$PORT_BASE
1 = 127.0.0.1:$(( PORT_BASE + 1 ))
2 = 127.0.0.1:$(( PORT_BASE + 2 ))
EOF

"$NODE_BIN" --config "$WORKDIR/cluster.ini" --id 0 --kv --run-ms 120000 > "$WORKDIR/node0.out" 2>&1 & PID0=$!
"$NODE_BIN" --config "$WORKDIR/cluster.ini" --id 1 --kv --run-ms 120000 > "$WORKDIR/node1.out" 2>&1 & PID1=$!
"$NODE_BIN" --config "$WORKDIR/cluster.ini" --id 2 --kv --run-ms 120000 > "$WORKDIR/node2.out" 2>&1 & PID2=$!
sleep 1

rss_kb() { awk '/^VmRSS:/ { print $2 }' "/proc/$1/status"; }

i=1
while [ "$i" -le 60 ]; do
  if ! "$KV_BIN" --config "$WORKDIR/cluster.ini" put "life-$i" "v$i" > /dev/null; then
    echo "== FAIL: put $i of 60 was not acknowledged" >&2
    exit 1
  fi
  if [ "$i" -eq 10 ]; then
    R10="$(rss_kb $PID0) $(rss_kb $PID1) $(rss_kb $PID2)"
  fi
  i=$(( i + 1 ))
done
R60="$(rss_kb $PID0) $(rss_kb $PID1) $(rss_kb $PID2)"
echo "== 60/60 puts acked; VmRSS kB after put 10: $R10; after put 60: $R60"

set -- $R60
for before in $R10; do
  after=$1; shift
  if [ $(( after * 10 )) -gt $(( before * 11 )) ]; then
    echo "== FAIL: a node's RSS grew more than 10% ($before -> $after kB)" >&2
    exit 1
  fi
done
echo "== OK: the log outlived its old 32-slot budget in flat memory"
