"""The benchmark's own math: percentiles, latencies, ratios and the folds
that turn the driver's raw files and the nodes' --metrics / --trace files
into named metrics. No process or build handling lives here, so
test_benchlib.py can check all of it on hand-made inputs."""

import math
import statistics
import struct
from collections import namedtuple

# One measured request, as perfbench_driver writes it (driver.cpp, Span).
SPAN = struct.Struct("<qqqIIIBBH")
Span = namedtuple("Span", "due sent done attempts redirects timeouts kind ok session")
GET, PUT = 0, 1

# One fuzz case, as perfbench_driver writes it (driver.cpp, run_fuzz).
CASE = struct.Struct("<qqqQqqIIBBHI")
Case = namedtuple("Case", "case_ns sched_ns msgs digest events cpu_ns pass_no idx ok "
                          "profile reference_ns")

# The host speed CPU-bound figures are read at: the one at which the
# driver's reference work (driver.cpp, reference_work_ns) takes 1.5 ms of
# CPU, its typical time on a 4-vCPU Xeon VM.
REFERENCE_NS = 1_500_000

TAIL_CANDIDATES = (99.0, 90.0, 50.0)
MIN_BEYOND = 10


def read_spans(data):
    return [Span(*t) for t in SPAN.iter_unpack(data)]


def read_cases(data):
    return [Case(*t[:10], t[11]) for t in CASE.iter_unpack(data)]


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def beyond(n, p):
    """How many of n samples lie strictly above the nearest-rank p-th
    percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(values, candidates=TAIL_CANDIDATES, min_beyond=MIN_BEYOND):
    """The highest candidate percentile with at least `min_beyond` samples
    beyond it. Returns (pct, value, n); pct is None when no candidate
    qualifies (then value is the maximum, or 0 for no samples)."""
    n = len(values)
    for p in candidates:
        if beyond(n, p) >= min_beyond:
            return p, percentile(values, p), n
    return None, (max(values) if values else 0), n


def latency_ns(span, paced):
    """A paced request is timed from when it was due, so a stall also
    charges the requests queued behind it; a closed-loop one from when it
    was sent."""
    return span.done - (span.due if paced else span.sent)


def gen_late_ns(span):
    """How late the generator sent a request after it fell due."""
    return span.sent - span.due


def ratio(num, base):
    """A ratio that carries its base. A zero base gives value 0 (the layer
    did no work), never a division error."""
    return {"value": (num / base) if base else 0.0, "num": num, "base": base}


# ---------------------------------------------------------------- KV folds


def first_ack_after(spans, t_ns):
    """Completion time of the first acknowledged write done after t_ns."""
    acks = [s.done for s in spans if s.kind == PUT and s.ok and s.done > t_ns]
    return min(acks) if acks else None


def sum_prefix(counters, prefix):
    return sum(v for k, v in counters.items() if k.startswith(prefix))


def fold_nodes(docs):
    """Sums the nodes' ecfd.metrics.v1 counters (and histogram count/sum)
    and keeps the max of each gauge (the gauges are per-replica copies of
    the same quantity)."""
    counters, gauges, hist = {}, {}, {}
    for d in docs:
        for k, v in d.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, v in d.get("gauges", {}).items():
            gauges[k] = max(gauges.get(k, v), v)
        for k, h in d.get("histograms", {}).items():
            c, s = hist.get(k, (0, 0))
            hist[k] = (c + h["count"], s + h["sum"])
    return counters, gauges, hist


def fold_clusters(groups):
    """fold_nodes per cluster (one list of node docs each), then summed
    over the clusters: counters and histograms add up, and so do the
    clusters' gauges (each cluster's replicas hold one copy)."""
    counters, gauges, hist = {}, {}, {}
    for g in groups:
        c, ga, h = fold_nodes(g)
        for src, dst in ((c, counters), (ga, gauges)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, (n, total) in h.items():
            n0, t0 = hist.get(k, (0, 0))
            hist[k] = (n0 + n, t0 + total)
    return counters, gauges, hist


# Protocol ids of net/protocol_ids.hpp, grouped by layer. The replicated
# log installs slot k's consensus at id base+2k and its reliable broadcast
# at base+2k+1 (core/replicated_log.hpp, base 1000).
FD_IDS = {1, 2, 3, 4, 5, 6, 11, 12, 13, 14, 18, 19}
RB_IDS = {7, 16}
KV_IDS = {15}
LOG_BASE = 1000


def protocol_layer(pid):
    if pid in FD_IDS:
        return "fd"
    if pid in RB_IDS:
        return "broadcast"
    if pid in KV_IDS:
        return "kv"
    if pid >= LOG_BASE:
        return "core" if (pid - LOG_BASE) % 2 == 0 else "broadcast"
    return "other"


def frame_shares(trace_docs):
    """Sends per layer over all sends in the traces' retained hot-ring
    window (event [time, host, "send", dst, protocol, label])."""
    counts = {"fd": 0, "broadcast": 0, "core": 0, "kv": 0, "other": 0}
    for d in trace_docs:
        for e in d.get("events", []):
            if e[2] == "send":
                counts[protocol_layer(e[4])] += 1
    total = sum(counts.values())
    return {k: ratio(v, total) for k, v in counts.items()}


def first_after_kill_ms(status_lines, wall_epoch_us, kill_wall_us, pred):
    """Kill to the first status line (ecfd_node stdout) of one survivor for
    which pred(line) holds, in ms. The line's t_ms is node time; the node's
    trace gives the wall clock at node time 0."""
    for st in status_lines:
        wall = wall_epoch_us + st["t_ms"] * 1000
        if wall >= kill_wall_us and pred(st):
            return (wall - kill_wall_us) / 1e3
    return None


def detect_ms(status_lines, wall_epoch_us, victim, kill_wall_us):
    """Kill to the survivor's ◇P output suspecting the victim."""
    return first_after_kill_ms(status_lines, wall_epoch_us, kill_wall_us,
                               lambda st: victim in st.get("suspected", []))


def omega_ms(status_lines, wall_epoch_us, victim, kill_wall_us):
    """Kill to the survivor's Ω trusting someone other than the victim."""
    return first_after_kill_ms(
        status_lines, wall_epoch_us, kill_wall_us,
        lambda st: st.get("trusted") is not None and st["trusted"] != victim)


def leader_changes(status_lines):
    """Changes of the trusted leader between consecutive status lines,
    after the first leader is known."""
    changes, last = 0, None
    for st in status_lines:
        t = st.get("trusted")
        if t is None:
            continue
        if last is not None and t != last:
            changes += 1
        last = t
    return changes


def reference_scale(samples, reference_ns=REFERENCE_NS):
    """The factor that reads a CPU-bound time taken while the reference
    work took `samples` at the reference host speed."""
    return reference_ns / statistics.median(samples)


# -------------------------------------------------------------- fuzz folds


def at_reference_speed(cases, reference_ns=REFERENCE_NS):
    """The cases with their times (case_ns, sched_ns, cpu_ns) read at the
    reference host speed: each scaled by `reference_ns` over the median
    time the driver's fixed reference work took in the same pass. A shared
    host runs the same case 10-20% faster or slower from one pass or run to
    the next; the reference work slows down with it, the repository's code
    does not enter it, so a slower case still reads slower."""
    by_pass = {}
    for c in cases:
        by_pass.setdefault(c.pass_no, []).append(c.reference_ns)
    scale = {p: reference_scale(v, reference_ns) for p, v in by_pass.items()}
    return [c._replace(case_ns=c.case_ns * scale[c.pass_no],
                       sched_ns=c.sched_ns * scale[c.pass_no],
                       cpu_ns=c.cpu_ns * scale[c.pass_no]) for c in cases]


def case_medians(cases, field="case_ns"):
    """{case index: (profile, median of `field` over the passes that ran
    it)}. Every pass repeats the same deterministic cases, so a burst of
    host load in one pass moves no case's median."""
    runs = {}
    for c in cases:
        runs.setdefault(c.idx, (c.profile, []))[1].append(getattr(c, field))
    return {i: (p, statistics.median(v)) for i, (p, v) in runs.items()}


def first_profile_ns(medians):
    """Time to the verdicts of the first profile a pass runs: the sum of
    its cases' medians (cases run profile by profile)."""
    first = medians[min(medians)][0]
    return sum(t for p, t in medians.values() if p == first)


def slowest_profile_ns(medians):
    """The median case time of the slowest profile."""
    by_profile = {}
    for p, t in medians.values():
        by_profile.setdefault(p, []).append(t)
    return max(statistics.median(v) for v in by_profile.values())
