// E13: failure-detector scale. The flat constructions pay O(n^2) messages
// per period (heartbeat ◇P broadcasts all-to-all), which caps practical n
// in the low hundreds. The two scalable ◇C stacks added by this experiment
// — fd/hier_c (two-level hierarchy, ~2n msgs/period) and fd/swim (gossip
// membership, ~2-4 msgs per NODE per period) — push the same property set
// to n=16384. Three measurement sections:
//
//   1. Steady-state message cost on the DETERMINISTIC SIMULATOR: counts
//      are exact per simulated time, so the O(n^2) vs O(n) separation is
//      not polluted by executor saturation (this host has one hardware
//      thread; flat heartbeat at n=4096 already emits ~33M msgs/sim-sec,
//      far past what any single-core wall-clock run can route honestly).
//      Flat at n=16384 is omitted: ~268M messages PER PERIOD is the
//      infeasibility point the hierarchy exists to remove.
//   2. Detection latency on the THREADED RUNTIME (wall clock): crash one
//      non-leader mid-range process after warm-up, every survivor polls
//      its own oracle on its own executor; first/median/max time until the
//      crash is suspected. Wall-clock numbers on a live machine — rerunning
//      moves them; CI compares this bench by SCHEMA (and the headline
//      ratio), never by exact value. The flat stack needs a far slower
//      cadence to fit through a routing fabric at all — its rows use
//      deployment-realistic periods (250ms/1s), the scalable stacks 100ms.
//   3. Per-host memory of the constructed (never started) stacks on the
//      threaded runtime via the counting allocator (sim/alloc_counter):
//      flat keeps O(n) timer state per
//      host (O(n^2) total — ~4 GB at n=16384, constructible here but never
//      runnable), hier O(sqrt n), swim O(faulty).
//
// Flags: --quick (n <= 1024, shorter windows; the CI perf-smoke leg) and
// the table.hpp-standard --json FILE. Checked-in full output:
// BENCH_FD_SCALE.json (validated by tools/check_bench_schema.py
// --bench-fd-scale, including the >=10x headline ratio at n=4096).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "consensus/fd_stacks.hpp"
#include "net/scenario.hpp"
#include "runtime/thread_env.hpp"
#include "sim/alloc_counter.hpp"
#include "table.hpp"

namespace ecfd {
namespace {

using runtime::ThreadSystem;

using consensus::FdStack;

const char* stack_name(FdStack s) { return consensus::fd_stack_info(s).name; }

const char* stack_prefix(FdStack s) {
  switch (s) {
    case FdStack::kHeartbeatP: return "msg.hb_p.";
    case FdStack::kEfficientP: return "msg.effp.";
    case FdStack::kHierC: return "msg.hier.";
    case FdStack::kSwim: return "msg.swim.";
    default: return "?";
  }
}

/// Probe cadence per n for the simulator section: larger universes beat
/// slower, as a real deployment would (and as the WAN scenarios assume).
DurUs period_for(int n) {
  if (n <= 256) return msec(100);
  if (n <= 1024) return msec(200);
  return msec(500);
}

/// Installs one stack instance on a host (sim or threaded) at \p period,
/// with a 3-period initial timeout widened by a period per mistake, and
/// returns it as the suspicion oracle.
const SuspectOracle* install(FdStack s, Host& host, DurUs period) {
  consensus::FdStackParams params;
  params.period = period;
  params.initial_timeout = 3 * period;
  params.timeout_increment = period;
  return consensus::install_fd_stack(s, host, params).suspect;
}

// --- section 1: message cost on the deterministic simulator -------------

std::int64_t sent_with_prefix(const sim::Counters& counters,
                              const char* prefix) {
  const std::string pre(prefix);
  std::int64_t total = 0;
  for (const auto& [key, value] : counters.all()) {
    if (key.rfind(pre, 0) == 0 && key.size() > 5 &&
        key.compare(key.size() - 5, 5, ".sent") == 0) {
      total += value;
    }
  }
  return total;
}

struct MsgCost {
  double per_node_per_period{0};
  double per_node_per_sec{0};
  std::int64_t total{0};
};

MsgCost run_msg_cost(FdStack s, int n, int warm_periods, int window_periods) {
  ScenarioConfig sc;
  sc.n = n;
  sc.seed = 42;
  sc.links = LinkKind::kReliable;
  auto sys = make_system(sc);
  const DurUs period = period_for(n);
  for (ProcessId p = 0; p < n; ++p) install(s, sys->host(p), period);
  sys->start();
  sys->run_for(warm_periods * period);
  const std::int64_t before = sent_with_prefix(sys->counters(), stack_prefix(s));
  sys->run_for(window_periods * period);
  const std::int64_t after = sent_with_prefix(sys->counters(), stack_prefix(s));
  MsgCost r;
  r.total = after - before;
  r.per_node_per_period = static_cast<double>(r.total) / n / window_periods;
  r.per_node_per_sec = static_cast<double>(r.total) * 1e6 /
                       (static_cast<double>(window_periods * period) * n);
  return r;
}

// --- section 2: detection latency on the threaded runtime ---------------

struct DetectResult {
  double first_ms{0};
  double p50_ms{0};
  double max_ms{0};
  int detected{0};
  int observers{0};
  double msgs_per_node_per_sec{0};
};

DetectResult run_detect(FdStack s, int n, DurUs period) {
  ThreadSystem::Config cfg;
  cfg.n = n;
  cfg.seed = 7;
  cfg.min_delay = usec(100);
  cfg.max_delay = msec(2);
  if (s == FdStack::kHierC) {
    // Cell-aware placement: HierC's default cells are contiguous blocks of
    // ceil(sqrt(n)) ids, so pin each cell to one worker.
    cfg.shard_block =
        static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  }
  DetectResult r;
  r.observers = n - 1;

  ThreadSystem sys(cfg);
  std::vector<const SuspectOracle*> oracles(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    oracles[static_cast<std::size_t>(p)] = install(s, sys.host(p), period);
  }

  // Victim: mid-range, never an initial hier cell leader (id % cell != 0).
  const ProcessId victim = n / 2 + 1;

  // Each survivor polls its own oracle on its own executor (so reading the
  // protocol is race-free) and publishes its first-detection wall time.
  auto detect_at = std::make_unique<std::vector<std::atomic<TimeUs>>>(
      static_cast<std::size_t>(n));
  for (auto& a : *detect_at) a.store(-1, std::memory_order_relaxed);
  const DurUs poll = std::max<DurUs>(msec(10), period / 8);
  for (ProcessId p = 0; p < n; ++p) {
    if (p == victim) continue;
    runtime::ThreadHost& host = sys.host(p);
    auto looper = std::make_shared<std::function<void()>>();
    *looper = [&sys, &host, looper,
               oracle = oracles[static_cast<std::size_t>(p)],
               slot = &(*detect_at)[static_cast<std::size_t>(p)], victim,
               poll]() {
      if (oracle->suspected().contains(victim)) {
        slot->store(sys.now(), std::memory_order_relaxed);
        return;  // detected: stop polling
      }
      host.post_at(sys.now() + poll, [looper]() { (*looper)(); });
    };
    host.post_at(0, [looper]() { (*looper)(); });
  }

  sys.start();
  // Warm well past the initial timeout so the crash hits steady state.
  std::this_thread::sleep_for(std::chrono::microseconds(6 * period));
  const std::uint64_t routed0 = sys.messages_routed();
  sys.host(victim).crash();
  const TimeUs crash_t = sys.now();

  const TimeUs deadline = crash_t + 40 * period;
  while (sys.now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    int done = 0;
    for (ProcessId p = 0; p < n; ++p) {
      if (p == victim) continue;
      if ((*detect_at)[static_cast<std::size_t>(p)].load(
              std::memory_order_relaxed) >= 0) {
        ++done;
      }
    }
    if (done == n - 1) break;
  }
  const std::uint64_t routed1 = sys.messages_routed();
  const TimeUs t1 = sys.now();

  std::vector<double> lat;
  for (ProcessId p = 0; p < n; ++p) {
    if (p == victim) continue;
    const TimeUs at = (*detect_at)[static_cast<std::size_t>(p)].load(
        std::memory_order_relaxed);
    if (at >= 0) lat.push_back(static_cast<double>(at - crash_t) / 1000.0);
  }
  std::sort(lat.begin(), lat.end());
  r.detected = static_cast<int>(lat.size());
  if (!lat.empty()) {
    r.first_ms = lat.front();
    r.p50_ms = lat[lat.size() / 2];
    r.max_ms = lat.back();
  }
  r.msgs_per_node_per_sec = static_cast<double>(routed1 - routed0) * 1e6 /
                            (static_cast<double>(t1 - crash_t) * n);
  return r;
}

// --- section 3: memory of constructed stacks ----------------------------

/// Bytes requested through operator new while constructing the system and
/// its stacks. The counting allocator (sim/alloc_counter.cpp, linked into
/// this binary only) is the right probe here: VmRSS deltas read ~0 once
/// the heap has freed arenas from earlier sections to reuse.
double construct_heap_mb(FdStack s, int n) {
  const std::uint64_t before = sim::alloc_bytes();
  ThreadSystem::Config cfg;
  cfg.n = n;
  cfg.seed = 3;
  cfg.workers = 1;
  ThreadSystem sys(cfg);
  for (ProcessId p = 0; p < n; ++p) install(s, sys.host(p), period_for(n));
  const std::uint64_t after = sim::alloc_bytes();
  return static_cast<double>(after - before) / (1024.0 * 1024.0);
}

}  // namespace
}  // namespace ecfd

int main(int argc, char** argv) {
  using namespace ecfd;
  bench::init(argc, argv, "e13_scale_fd");
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  std::cout << "E13: failure-detector scale (" << (quick ? "quick" : "full")
            << " mode; " << std::thread::hardware_concurrency()
            << " hardware thread(s))\n"
            << "flat heartbeat_p = O(n^2) msgs/period; hier_c and swim = "
               "O(n) total.\n"
            << "Section 1 counts exact messages on the deterministic "
               "simulator; sections 2 and 3 run the threaded runtime.\n";

  const int nmax = quick ? 1024 : 16384;
  const int nmax_flat = quick ? 1024 : 4096;
  const std::vector<int> sizes = {256, 1024, 4096, 16384};

  bench::section("E13 steady-state message cost (deterministic sim)");
  bench::Table cost({"stack", "n", "period_ms", "msgs_per_node_per_period",
                     "msgs_per_node_per_sec", "total_msgs"});
  cost.print_header();
  double flat4096 = 0, hier4096 = 0, swim4096 = 0;
  for (FdStack s : {FdStack::kHeartbeatP, FdStack::kEfficientP,
                    FdStack::kHierC, FdStack::kSwim}) {
    for (int n : sizes) {
      const bool flatish =
          s == FdStack::kHeartbeatP || s == FdStack::kEfficientP;
      if (n > (flatish ? nmax_flat : nmax)) continue;
      // Flat at n=4096 moves ~17M messages per period; one window period
      // keeps the run short without changing the count's meaning (the sim
      // is deterministic — the count is exact, not sampled).
      const int warm = (s == FdStack::kHeartbeatP && n >= 4096) ? 1 : 2;
      const int window =
          (s == FdStack::kHeartbeatP && n >= 4096) ? 1 : (quick ? 2 : 4);
      const MsgCost r = run_msg_cost(s, n, warm, window);
      cost.print_row(stack_name(s), n, period_for(n) / 1000,
                     r.per_node_per_period, r.per_node_per_sec, r.total);
      if (n == 4096) {
        if (s == FdStack::kHeartbeatP) flat4096 = r.per_node_per_period;
        if (s == FdStack::kHierC) hier4096 = r.per_node_per_period;
        if (s == FdStack::kSwim) swim4096 = r.per_node_per_period;
      }
    }
  }

  bench::section("E13 detection latency (threaded runtime)");
  bench::Table det({"stack", "n", "period_ms", "detect_first_ms",
                    "detect_p50_ms", "detect_max_ms", "detected", "observers",
                    "msgs_per_node_per_sec"});
  det.print_header();
  const std::vector<int> det_sizes =
      quick ? std::vector<int>{256} : std::vector<int>{256, 1024};
  for (FdStack s : {FdStack::kHeartbeatP, FdStack::kHierC, FdStack::kSwim}) {
    for (int n : det_sizes) {
      // Flat's all-to-all load forces a slow deployment-realistic cadence;
      // the O(n)-total stacks afford 100ms probing at either size.
      const DurUs period =
          s == FdStack::kHeartbeatP ? (n <= 256 ? msec(250) : msec(1000))
                                    : msec(100);
      const DetectResult r = run_detect(s, n, period);
      det.print_row(stack_name(s), n, period / 1000, r.first_ms, r.p50_ms,
                    r.max_ms, r.detected, r.observers, r.msgs_per_node_per_sec);
    }
  }

  bench::section("E13 per-host memory (threaded runtime, constructed stacks)");
  bench::Table mem({"stack", "n", "heap_mb", "kb_per_host"});
  mem.print_header();
  for (FdStack s : {FdStack::kHeartbeatP, FdStack::kHierC, FdStack::kSwim}) {
    for (int n : sizes) {
      // Flat at n=16384 IS constructible (unlike its message load): ~4 GB
      // of per-peer timer state, the O(n^2)-total-memory endpoint.
      if (n > (quick ? 1024 : 16384)) continue;
      const double mb = construct_heap_mb(s, n);
      mem.print_row(stack_name(s), n, mb, mb * 1024.0 / n);
    }
  }

  if (!quick) {
    bench::section("E13 headline: per-node message cost at n=4096");
    bench::Table head({"stack", "msgs_per_node_per_period", "flat_ratio"});
    head.print_header();
    head.print_row("heartbeat_p", flat4096, 1.0);
    head.print_row("hier_c", hier4096,
                   hier4096 > 0 ? flat4096 / hier4096 : 0.0);
    head.print_row("swim", swim4096,
                   swim4096 > 0 ? flat4096 / swim4096 : 0.0);
  }

  return bench::finish();
}
