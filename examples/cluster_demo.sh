#!/usr/bin/env sh
# Real-network crash-detection demo: launch a 3-node ecfd cluster as three
# OS processes over loopback UDP, kill one with SIGKILL mid-run, and watch
# the survivors suspect it (and, with consensus enabled, still decide).
#
# Usage:  examples/cluster_demo.sh [path-to-ecfd_node] [fd]
#         (default binary: build/tools/ecfd_node, default fd: ecfd)
#         ECFD_BACKEND=uring selects the io_uring transport (default poll);
#         nodes degrade to poll at runtime if the kernel lacks io_uring.
#
# Exit code 0 when both survivors ended up suspecting the killed node;
# nonzero otherwise. fd is any stack name ecfd_node --help lists. (With
# fd=heartbeat_p/efficient_p/ecfd/hier_c/swim the final suspected set is
# exactly the killed node; fd=stable_leader reports the
# pure-Omega view, which by design suspects everyone but the leader.)
set -eu

NODE_BIN="${1:-build/tools/ecfd_node}"
FD="${2:-ecfd}"
BACKEND="${ECFD_BACKEND:-poll}"
WORKDIR="$(mktemp -d)"
trap 'kill $PID0 $PID1 $PID2 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

if [ ! -x "$NODE_BIN" ]; then
  echo "ecfd_node binary not found at $NODE_BIN (build first: cmake --build build)" >&2
  exit 2
fi

PORT_BASE=$(( 19000 + ($$ % 1000) * 3 ))
cat > "$WORKDIR/cluster.ini" <<EOF
[cluster]
seed = 7
fd = $FD
period_ms = 50
initial_timeout_ms = 250
timeout_increment_ms = 100

[peers]
0 = 127.0.0.1:$PORT_BASE
1 = 127.0.0.1:$(( PORT_BASE + 1 ))
2 = 127.0.0.1:$(( PORT_BASE + 2 ))
EOF

echo "== launching 3 nodes (fd=$FD, backend=$BACKEND, ports $PORT_BASE..$(( PORT_BASE + 2 )))"
"$NODE_BIN" --config "$WORKDIR/cluster.ini" --id 0 --backend "$BACKEND" --consensus --run-ms 8000 > "$WORKDIR/node0.out" & PID0=$!
"$NODE_BIN" --config "$WORKDIR/cluster.ini" --id 1 --backend "$BACKEND" --consensus --run-ms 8000 > "$WORKDIR/node1.out" & PID1=$!
"$NODE_BIN" --config "$WORKDIR/cluster.ini" --id 2 --backend "$BACKEND" --consensus --run-ms 8000 > "$WORKDIR/node2.out" & PID2=$!

sleep 3
echo "== kill -9 node 2 (pid $PID2)"
kill -9 "$PID2" 2>/dev/null || true

wait "$PID0" "$PID1" 2>/dev/null || true

echo "== node 0 timeline:"
cat "$WORKDIR/node0.out"
echo "== node 1 timeline:"
cat "$WORKDIR/node1.out"

ok=0
for out in "$WORKDIR/node0.out" "$WORKDIR/node1.out"; do
  if tail -n 1 "$out" | grep -q '"suspected":\[\([0-9],\)*2\]'; then
    ok=$(( ok + 1 ))
  fi
done

if [ "$ok" -eq 2 ]; then
  echo "== OK: both survivors suspect the killed node (p2)"
  exit 0
fi
echo "== FAIL: survivors did not converge on suspecting p2" >&2
exit 1
