#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is kv_write, kv_read, kv_failover, fuzz_sweep, or all. Run it from the
root of a checkout. It builds ecfd_node and perfbench_driver from the
checkout's sources (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR or .bench_build, runs the workload, applies the
correctness gates, and prints one JSON result line last: every end-to-end
metric with --trace 0, every per-layer metric with --trace 1. The line
before it holds the run context (host, build, node config, backend, slot
budget, percentile sample counts, the base of every ratio).

Exit status: 0 = ran and every gate held; 1 = a correctness gate failed
(the result line says "correct": false); 2 = usage, build or launch error
(no result line). perfbench/README.md defines every metric.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import benchlib as bl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
KV_WORKLOADS = ("kv_write", "kv_read", "kv_failover")
WORKLOADS = KV_WORKLOADS + ("fuzz_sweep",)
PACED = {"kv_failover"}
# Where client latency is CPU work: kv_read's lease reads take no timer on
# their path, while kv_write waits on the 2 ms batch timer and kv_failover
# on failure detection. Only these latencies are read at the reference
# host speed (README.md, "Reference host speed").
CPU_BOUND_LATENCY = {"kv_read"}
KV_PROBES = 5  # set-up / idle-failover probe clusters per untraced KV run

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_us", "us"),
    ("p80_us", "us"),
    ("unavail_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("rss_mb", "MB"),
]

PER_LAYER = [
    ("kv.client.attempts_per_op", "count"),
    ("kv.client.redirects_per_op", "count"),
    ("kv.client.timeouts_per_op", "count"),
    ("kv.client.gen_late_us_p99", "us"),
    ("kv.client.fail_ratio", "ratio"),
    ("kv.client.read_p50_us", "us"),
    ("kv.client.read_tail_us", "us"),
    ("kv.client.write_p50_us", "us"),
    ("kv.client.write_tail_us", "us"),
    ("kv.client.unavail_ms", "ms"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.bytes_per_op", "B"),
    ("transport.frames_per_op", "count"),
    ("transport.dgrams_per_op", "count"),
    ("transport.send_batch_mean", "count"),
    ("transport.recv_batch_mean", "count"),
    ("transport.ext_frames_per_op", "count"),
    ("kv.service.ops_per_batch", "count"),
    ("kv.service.lease_read_ratio", "ratio"),
    ("kv.service.overloaded", "count"),
    ("core.slots_per_op", "count"),
    ("core.slot_budget_used", "ratio"),
    ("core.frames_per_slot", "count"),
    ("fd.frame_share", "ratio"),
    ("broadcast.frame_share", "ratio"),
    ("core.frame_share", "ratio"),
    ("fd.detect_ms", "ms"),
    ("fd.omega_ms", "ms"),
    ("fd.leader_changes", "count"),
    ("fd.false_suspicions", "count"),
    ("kv.store.apply_ns", "ns"),
    ("kv.store.read_ns", "ns"),
    ("kv.store.snapshot_us", "us"),
    ("kv.store.snapshots", "count"),
    ("sim.events_per_case", "count"),
    ("sim.msgs_per_case", "count"),
    ("sim.events_per_s", "1/s"),
    ("check.schedule_us", "us"),
    ("check.case_ms_p50", "ms"),
    ("obs.overhead_pct", "%"),
    ("obs.rss_growth_mb", "MB"),
]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target


def build():
    """Configures and builds perfbench/CMakeLists.txt; returns the binary
    directory, or None after logging why the build failed."""
    out = build_dir() / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    logf = out / "build.log"
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                  "--target", "ecfd_node", "perfbench_driver"])
    with open(logf, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                log("build failed: " + " ".join(cmd) + " (see " + str(logf) + ")")
                tail_lines = logf.read_text().splitlines()[-15:]
                print("\n".join(tail_lines), file=sys.stderr)
                return None
    return out


def run_driver(args, seconds):
    """Runs perfbench_driver in its own process group. Afterwards (and on
    timeout) whatever is left of the group, such as nodes of a driver that
    died, is killed, and the call returns once the group is gone. A
    20 s run takes the driver about 35 s; the timeout keeps a traced run,
    which calls it twice, within 180 s."""
    p = subprocess.Popen(args, start_new_session=True)
    try:
        rc = p.wait(timeout=30 + 2.5 * seconds)
    except subprocess.TimeoutExpired:
        log("driver timed out: " + " ".join(args))
        rc = -1
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        return rc
    p.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(p.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    return rc


def fresh_dir(path):
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def load_json(path):
    with open(path) as f:
        return json.load(f)


# --------------------------------------------------------------- KV runs
#
# A KV summary (perfbench_driver kv) holds the set-up / idle-failover
# probes and one entry per measured cluster ("cycle"); kv_failover splits
# its window over several fresh clusters so that it sees several kills.


def kv_run(binaries, workload, seed, seconds, out, probes, trace, micro,
           report_ms):
    """One driver run. report_ms is the nodes' status period: traced
    clusters need 10 ms lines to time detection, and both halves of a
    traced run use the same period, so their difference is the tracing."""
    fresh_dir(out)
    rc = run_driver([str(binaries / "perfbench_driver"), "kv",
                     "--node", str(binaries / "ecfd_node"), "--dir", str(out),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--probes", str(probes),
                     "--trace", str(int(trace)), "--micro", str(int(micro)),
                     "--report-ms", str(report_ms)],
                    seconds)
    if rc != 0:
        return None
    summary = load_json(out / "summary.json")
    for c in summary["cycles"]:
        c["spans_list"] = bl.read_spans((Path(c["dir"]) / "spans.bin").read_bytes())
    return summary


def all_spans(s):
    return [x for c in s["cycles"] for x in c["spans_list"]]


def survivors(victim, n=3):
    return [i for i in range(n) if i != victim]


def cluster_nodes(cluster_dir, victim):
    """Metrics docs of the nodes that were not killed, plus gate errors
    for any that wrote no metrics or did not answer every client request
    exactly once."""
    docs, errors = [], []
    for i in survivors(victim):
        path = Path(cluster_dir) / ("metrics%d.json" % i)
        if not path.exists():
            errors.append("%s: node %d wrote no metrics" % (cluster_dir, i))
            continue
        d = load_json(path)
        c = d.get("counters", {})
        recv, sent = c.get("net.recv_external", 0), c.get("net.sent_external", 0)
        if recv != sent:
            errors.append("%s: node %d got %d client frames but sent %d replies"
                          % (cluster_dir, i, recv, sent))
        docs.append(d)
    return docs, errors


def status_lines(cluster_dir, i):
    """Node i's JSON status lines (ecfd_node stdout)."""
    text = (Path(cluster_dir) / ("node%d.out" % i)).read_text()
    return [json.loads(l) for l in text.splitlines() if l.startswith("{")]


def kill_unavail_ms(c):
    """A cycle's leader kill to the first acknowledged write after it."""
    ack = bl.first_ack_after(c["spans_list"], c["kill_ns"])
    return (ack - c["kill_ns"]) / 1e6 if ack is not None else None


def kv_gates(s):
    """Correctness gates of a KV summary; also returns the node metrics
    docs of each measured cluster (one list per cluster)."""
    errors = list(s["errors"])
    for d, v in zip(s["probe_dirs"], s["probe_victims"]):
        errors += cluster_nodes(d, v)[1]
    docs = []
    for c in s["cycles"]:
        if c["readback_lost"]:
            errors.append("%s: %d acked writes lost" % (c["dir"], c["readback_lost"]))
        if c["stale_reads"]:
            errors.append("%s: %d reads returned a value other than the last "
                          "acked write" % (c["dir"], c["stale_reads"]))
        if c["kill_ns"] >= 0 and kill_unavail_ms(c) is None:
            errors.append("%s: no write was acknowledged after the leader kill"
                          % c["dir"])
        d, e = cluster_nodes(c["dir"], c["victim"])
        docs.append(d)
        errors += e
    return docs, errors


def window_ops(s):
    """Acknowledged measured ops, and the seconds from the start of each
    window to its last completion (so a paced run's throughput still
    shows how late its last requests finished)."""
    ok, seconds = 0, 0.0
    for c in s["cycles"]:
        spans = c["spans_list"]
        ok += sum(1 for x in spans if x.ok)
        seconds += (max(x.done for x in spans) - c["measure_start_ns"]) / 1e9
    return ok, seconds


def node_rss_mb(s):
    return max(x["hwm_kb"] for c in s["cycles"] for x in c["final"]) / 1024.0


def node_cpu_us(s):
    return sum(e["cpu_ns"] - b["cpu_ns"] for c in s["cycles"]
               for b, e in zip(c["cpu_start"], c["cpu_end"])) / 1e3


def slot_budget(s, groups):
    """Log slots used by the fullest measured cluster, over the [kv]
    capacity of the node config."""
    capacity = int(re.search(r"^capacity = (\d+)$", s["node_config"], re.M).group(1))
    used = max(bl.fold_nodes(g)[1].get("kv.applied_slot", 0) for g in groups)
    return bl.ratio(used, capacity)


def kv_context(s, docs):
    """Run context every KV result carries."""
    last = s["cycles"][-1]
    backends = {status_lines(last["dir"], i)[-1].get("backend", "?")
                for i in survivors(last["victim"])}
    return {
        "node_config": s["node_config"],
        "backend": ",".join(sorted(backends)),
        "optimized_build": bool(s["optimized"]),
        "core.slot_budget_used": slot_budget(s, docs),
        "setup_samples": len(s["setup_ns"]),
        "clusters_measured": len(s["cycles"]),
        "sessions": s["sessions"],
    }


def kv_unavail_ms(workload, s):
    """kv_failover: median over its clusters of the kill under load;
    the other KV workloads: median over the idle probe clusters."""
    if workload == "kv_failover":
        kills = [u for u in map(kill_unavail_ms, s["cycles"]) if u is not None]
        return statistics.median(kills) if kills else 0.0  # 0: gate failed
    return statistics.median(s["probe_unavail_ns"]) / 1e6


def latency_context(lat):
    """Sample count behind the percentiles, and the tail the percentile
    rule would report (p99 on every KV workload). The end-to-end tail is
    p80: see README.md, "The bounded tail"."""
    pct, value, n = bl.tail(lat)
    return {"samples": n, "beyond_p80": bl.beyond(n, 80),
            "p90": bl.percentile(lat, 90),
            "tail_by_rule": {"pct": pct, "value": value}}


def kv_end_to_end(workload, s):
    spans = all_spans(s)
    paced = workload in PACED
    ok_ops, seconds = window_ops(s)
    lat = [bl.latency_ns(x, paced) / 1e3 for x in spans]
    cpu_us = node_cpu_us(s)
    refs = [r for c in s["cycles"] for r in c["reference_ns"]]
    scale = bl.reference_scale(refs)
    lat_scale = scale if workload in CPU_BOUND_LATENCY else 1.0
    setup_s = statistics.median(s["setup_ns"]) / 1e9
    metrics = {
        "setup_s": setup_s * scale,
        "ops_per_s": ok_ops / seconds,
        "p50_us": bl.percentile(lat, 50) * lat_scale,
        "p80_us": bl.percentile(lat, 80) * lat_scale,
        "unavail_ms": kv_unavail_ms(workload, s),
        "cpu_us_per_op": bl.ratio(cpu_us * scale, ok_ops)["value"],
        "rss_mb": node_rss_mb(s),
    }
    context = {
        "reference_speed": {
            "reference_work_ns": bl.REFERENCE_NS, "samples": len(refs),
            "median_ns": statistics.median(refs),
            "setup_s_as_timed": setup_s,
            "p50_us_as_timed": bl.percentile(lat, 50),
            "p80_us_as_timed": bl.percentile(lat, 80)},
        "latency_from": "due time" if paced else "send time",
        "latency": latency_context(lat),
        "ops_measured": ok_ops, "window_s": seconds,
        "cpu_us_per_op": bl.ratio(cpu_us, ok_ops),
        "unavail_ms_from": ("leader kill under the paced load" if paced
                            else "leader kill in idle probe clusters"),
    }
    return metrics, context


def split_latency(spans, kind, paced):
    lat = [bl.latency_ns(x, paced) / 1e3 for x in spans if x.kind == kind]
    if not lat:
        return 0.0, 0.0, {"tail_pct": None, "samples": 0}
    pct, v, n = bl.tail(lat)
    return bl.percentile(lat, 50), v, {"tail_pct": pct, "samples": n}


def fd_layer(c):
    """Survivors' times to suspect the killed leader and to trust a new
    one, and the leader changes on their status lines, for one traced
    cluster."""
    detect, omega, changes = [], [], 0
    for i in survivors(c["victim"]):
        lines = status_lines(c["dir"], i)
        changes += bl.leader_changes(lines)
        if c["victim"] < 0:
            continue
        epoch = load_json(Path(c["dir"]) / ("trace%d.json" % i))["wall_epoch_us"]
        for fn, out in ((bl.detect_ms, detect), (bl.omega_ms, omega)):
            t = fn(lines, epoch, c["victim"], c["kill_wall_us"])
            if t is not None:
                out.append(t)
    return detect, omega, changes


def traces_of(c):
    return [load_json(Path(c["dir"]) / ("trace%d.json" % i))
            for i in survivors(c["victim"])]


def kv_layers(workload, u, groups, t, t_groups):
    """Per-layer metrics. Timings and node counters come from the untraced
    run `u` (its node metrics `groups`, one list per cluster), so they
    explain its end-to-end numbers; frame shares, fd transitions and
    false suspicions need the traced run `t` (`t_groups`)."""
    spans = all_spans(u)
    paced = workload in PACED
    counters, gauges, hist = bl.fold_clusters(groups)
    n = len(spans)
    ctx = {}
    m = {}

    def put(name, r):
        m[name] = r["value"]
        ctx[name] = r

    put("kv.client.attempts_per_op", bl.ratio(sum(x.attempts for x in spans), n))
    put("kv.client.redirects_per_op", bl.ratio(sum(x.redirects for x in spans), n))
    put("kv.client.timeouts_per_op", bl.ratio(sum(x.timeouts for x in spans), n))
    late = [bl.gen_late_ns(x) / 1e3 for x in spans]
    m["kv.client.gen_late_us_p99"] = bl.percentile(late, 99) if paced else 0.0
    put("kv.client.fail_ratio", bl.ratio(sum(1 for x in spans if not x.ok), n))
    for kind, label in ((bl.GET, "read"), (bl.PUT, "write")):
        p50, tl, c = split_latency(spans, kind, paced)
        m["kv.client.%s_p50_us" % label] = p50
        m["kv.client.%s_tail_us" % label] = tl
        ctx["kv.client.%s_tail_us" % label] = c
    # From the traced run, so it pairs with fd.detect_ms over the same kills.
    m["kv.client.unavail_ms"] = kv_unavail_ms(workload, t) if paced else 0.0

    msgs = u["wire_messages"] * u["wire_reps"]
    put("wire.encode_ns", bl.ratio(u["wire_encode_ns_total"], msgs))
    put("wire.decode_ns", bl.ratio(u["wire_decode_ns_total"], msgs))
    # One op = one Request plus one Reply.
    put("wire.bytes_per_op", bl.ratio(2 * u["wire_bytes"], u["wire_messages"]))

    reqs = sum(c["client_requests"] for c in u["cycles"])
    ext = counters.get("net.recv_external", 0)
    put("transport.frames_per_op", bl.ratio(bl.sum_prefix(counters, "net.sent.p"), ext))
    put("transport.dgrams_per_op", bl.ratio(bl.sum_prefix(counters, "net.dgram_sent.p"), ext))
    sb = hist.get("net.send_batch", (0, 0))
    rb = hist.get("net.recv_batch", (0, 0))
    put("transport.send_batch_mean", bl.ratio(sb[1], sb[0]))
    put("transport.recv_batch_mean", bl.ratio(rb[1], rb[0]))
    put("transport.ext_frames_per_op",
        bl.ratio(ext + counters.get("net.sent_external", 0), reqs))

    put("kv.service.ops_per_batch",
        bl.ratio(counters.get("kv.batch.ops", 0), counters.get("kv.batches", 0)))
    lease = counters.get("kv.lease.reads", 0)
    put("kv.service.lease_read_ratio",
        bl.ratio(lease, lease + gauges.get("kv.store.log_reads", 0)))
    m["kv.service.overloaded"] = counters.get("kv.overloaded", 0)

    slots = gauges.get("kv.applied_slot", 0)
    put("core.slots_per_op", bl.ratio(slots, gauges.get("kv.store.applied_writes", 0)))
    put("core.slot_budget_used", slot_budget(u, groups))
    put("core.frames_per_slot", bl.ratio(bl.sum_prefix(counters, "msg.cons_c."), slots))

    shares = bl.frame_shares([d for c in t["cycles"] for d in traces_of(c)])
    for layer in ("fd", "broadcast", "core"):
        put(layer + ".frame_share", shares[layer])
    detect, omega, changes = [], [], 0
    for c in t["cycles"]:
        d, o, ch = fd_layer(c)
        detect += d
        omega += o
        changes += ch
    put("fd.detect_ms", bl.ratio(sum(detect), len(detect)))
    put("fd.omega_ms", bl.ratio(sum(omega), len(omega)))
    m["fd.leader_changes"] = changes
    m["fd.false_suspicions"] = bl.fold_clusters(t_groups)[0].get("qos.mistakes", 0)

    put("kv.store.apply_ns", bl.ratio(u["store_apply_ns_total"], u["store_applies"]))
    put("kv.store.read_ns", bl.ratio(u["store_read_ns_total"], u["store_reads"]))
    m["kv.store.snapshot_us"] = statistics.median(u["store_snapshot_ns"]) / 1e3
    ctx["kv.store.snapshot_us"] = {"keys": u["store_keys"],
                                   "bytes": u["store_snapshot_bytes"]}
    m["kv.store.snapshots"] = counters.get("kv.snapshots.taken", 0)

    for name in ("sim.events_per_case", "sim.msgs_per_case", "sim.events_per_s",
                 "check.schedule_us", "check.case_ms_p50"):
        m[name] = 0.0

    ops_t, sec_t = window_ops(t)
    ops_u, sec_u = window_ops(u)
    put("obs.overhead_pct", overhead(ops_u / sec_u, ops_t / sec_t))
    m["obs.rss_growth_mb"] = node_rss_mb(t) - node_rss_mb(u)
    ctx["obs.rss_growth_mb"] = {"traced": node_rss_mb(t), "untraced": node_rss_mb(u)}
    return m, ctx


def overhead(untraced, traced):
    """Throughput lost to tracing, in percent of the untraced run."""
    r = bl.ratio(untraced - traced, untraced)
    return dict(r, value=100.0 * r["value"])


def aborted(runs):
    """A gate failed while a measured cluster was being set up (its probe
    write or prepopulation), so there is nothing to measure: the result
    carries the errors, and every metric reads 0."""
    errors = [e for r in runs for e in r["errors"]]
    metrics = {name: 0.0 for name, _ in END_TO_END + PER_LAYER}
    return metrics, {}, errors, 1, 1


def run_kv_workload(binaries, workload, seed, seconds, trace, work):
    if not trace:
        # kv_failover's own clusters give its set-up samples and kills.
        probes = 0 if workload in PACED else KV_PROBES
        s = kv_run(binaries, workload, seed, seconds, work / "run", probes,
                   False, False, 1000)
        if s is None:
            return None
        if s["aborted"]:
            return aborted([s])
        docs, errors = kv_gates(s)
        metrics, ctx = kv_end_to_end(workload, s)
    else:
        s = kv_run(binaries, workload, seed, seconds, work / "untraced", 0,
                   False, True, 10)
        t = kv_run(binaries, workload, seed, seconds, work / "traced", 0,
                   True, False, 10)
        if s is None or t is None:
            return None
        if s["aborted"] or t["aborted"]:
            return aborted([s, t])
        docs, errors = kv_gates(s)
        t_docs, t_errors = kv_gates(t)
        errors += t_errors
        metrics, ctx = kv_layers(workload, s, docs, t, t_docs)
    ctx.update(kv_context(s, docs))
    spans = all_spans(s)
    return metrics, ctx, errors, len(spans), sum(1 for x in spans if not x.ok)


# -------------------------------------------------------------- fuzz_sweep


def fuzz_run(binaries, seed, seconds, out, recorder):
    fresh_dir(out)
    rc = run_driver([str(binaries / "perfbench_driver"), "fuzz", "--dir", str(out),
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--recorder", str(int(recorder))], seconds)
    if rc != 0:
        return None
    s = load_json(out / "summary.json")
    s["raw_cases"] = bl.read_cases((out / "cases.bin").read_bytes())
    s["cases_list"] = bl.at_reference_speed(s["raw_cases"])
    return s


def fuzz_gates(s):
    errors = []
    bad = [c for c in s["cases_list"] if not c.ok]
    if bad:
        errors.append("%d fuzz cases unclean (first: pass %d case %d)"
                      % (len(bad), bad[0].pass_no, bad[0].idx))
    if len(set(s["pass_digests"])) != 1:
        errors.append("same-seed passes gave different digests: %s"
                      % sorted(set(s["pass_digests"])))
    return errors


def case_ns(cases, field="case_ns"):
    """Each case's wall (or CPU) time, its median over the passes, in case
    order."""
    med = bl.case_medians(cases, field)
    return [med[i][1] for i in sorted(med)]


def fuzz_end_to_end(s):
    med = bl.case_medians(s["cases_list"])
    wall = [med[i][1] for i in sorted(med)]
    lat = [t / 1e3 for t in wall]
    cpu = case_ns(s["cases_list"], "cpu_ns")
    metrics = {
        "setup_s": bl.first_profile_ns(med) / 1e9,
        "ops_per_s": len(wall) / (sum(wall) / 1e9),
        "p50_us": bl.percentile(lat, 50),
        "p80_us": bl.percentile(lat, 80),
        "unavail_ms": bl.slowest_profile_ns(med) / 1e6,
        "cpu_us_per_op": sum(cpu) / len(cpu) / 1e3,
        "rss_mb": s["hwm_kb"] / 1024.0,
    }
    raw = [t / 1e3 for _, t in bl.case_medians(s["raw_cases"]).values()]
    refs = {}
    for c in s["raw_cases"]:
        refs.setdefault(c.pass_no, []).append(c.reference_ns)
    context = {
        "estimator": "each case's median wall and CPU time over %d passes, "
                     "read at the reference host speed" % len(s["pass_digests"]),
        "reference_speed": {
            "reference_work_ns": bl.REFERENCE_NS,
            "pass_median_ns": [statistics.median(refs[p]) for p in sorted(refs)],
            "p50_us_as_timed": bl.percentile(raw, 50)},
        "latency": latency_context(lat),
        "cases_per_pass": s["cases_per_pass"], "seed0": s["seed0"],
        "combined_digest": "%016x" % (s["pass_digests"][0] & (2**64 - 1)),
        "optimized_build": bool(s["optimized"]),
        "fuzz_config": "ecfd_fuzz defaults: n=5, algo ecfd_c, fd ring, all 8 profiles",
    }
    return metrics, context


def fuzz_layers(u, t):
    """Per-layer metrics: timings from the untraced sweep `u`, recorded
    event counts from the same sweep with a recorder attached (`t`)."""
    cases = u["cases_list"]
    first = [c for c in cases if c.pass_no == 0]
    n = len(first)
    wall = case_ns(cases)
    events = sum(c.events for c in t["cases_list"] if c.pass_no == 0)
    m = {name: 0.0 for name, _ in PER_LAYER}
    m["sim.events_per_case"] = bl.ratio(events, n)["value"]
    m["sim.msgs_per_case"] = bl.ratio(sum(c.msgs for c in first), n)["value"]
    m["sim.events_per_s"] = bl.ratio(events, sum(wall) / 1e9)["value"]
    m["check.schedule_us"] = bl.ratio(sum(c.sched_ns for c in cases) / 1e3, len(cases))["value"]
    m["check.case_ms_p50"] = bl.percentile(wall, 50) / 1e6
    ctx = {"sim": {"cases_per_pass": n, "events_per_pass": events,
                   "pass_s": sum(wall) / 1e9}}
    e2e_u, _ = fuzz_end_to_end(u)
    e2e_t, _ = fuzz_end_to_end(t)
    r = overhead(e2e_u["ops_per_s"], e2e_t["ops_per_s"])
    m["obs.overhead_pct"] = r["value"]
    ctx["obs.overhead_pct"] = r
    m["obs.rss_growth_mb"] = e2e_t["rss_mb"] - e2e_u["rss_mb"]
    return m, ctx


def run_fuzz_workload(binaries, seed, seconds, trace, work):
    if not trace:
        s = fuzz_run(binaries, seed, seconds, work / "run", False)
        if s is None:
            return None
        metrics, ctx = fuzz_end_to_end(s)
        errors = fuzz_gates(s)
    else:
        s = fuzz_run(binaries, seed, seconds, work / "untraced", False)
        t = fuzz_run(binaries, seed, seconds, work / "traced", True)
        if s is None or t is None:
            return None
        errors = fuzz_gates(s) + fuzz_gates(t)
        if s["pass_digests"][0] != t["pass_digests"][0]:
            errors.append("attaching a recorder changed the fuzz digest")
        metrics, ctx = fuzz_layers(s, t)
        ctx.update(fuzz_end_to_end(s)[1])
    failed = sum(1 for c in s["cases_list"] if not c.ok)
    return metrics, ctx, errors, len(s["cases_list"]), failed


# ------------------------------------------------------------------- main


def spin_s():
    """Seconds a fixed integer loop takes: the host's CPU speed at run time,
    for reading a run against others (shared hosts drift by tens of %)."""
    t = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i * i
    return time.perf_counter() - t


def host_context(spin):
    return {"nproc": os.cpu_count(), "kernel": platform.release(),
            "machine": platform.machine(), "python": platform.python_version(),
            "spin_s": spin}


def result_line(metrics, names, correct, attempted, failed):
    return json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    })


def run_one(binaries, workload, seed, seconds, trace):
    work = build_dir() / "perfbench-runs" / workload
    spin = spin_s()
    if workload in KV_WORKLOADS:
        got = run_kv_workload(binaries, workload, seed, seconds, trace, work)
    else:
        got = run_fuzz_workload(binaries, seed, seconds, trace, work)
    if got is None:
        log(workload + ": the driver failed (see its messages above)")
        return None
    metrics, ctx, errors, attempted, failed = got
    names = PER_LAYER if trace else END_TO_END
    for e in errors:
        log(workload + ": GATE FAILED: " + e)
    ctx = dict(ctx, host=host_context(spin), workload=workload, seed=seed,
               seconds=seconds, trace=int(trace), gate_errors=errors)
    print(json.dumps({"context": ctx}, default=str))
    line = result_line(metrics, names, not errors, attempted, failed)
    print(line, flush=True)
    return not errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds <= 0:
        ap.error("--seconds must be positive")
    binaries = build()
    if binaries is None:
        return 2
    workloads = WORKLOADS if a.workload == "all" else (a.workload,)
    ok = True
    for w in workloads:
        r = run_one(binaries, w, a.seed, a.seconds, bool(a.trace))
        if r is None:
            return 2
        ok = ok and r
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
