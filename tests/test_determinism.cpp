// Determinism regression suite.
//
// The E4/E5 golden hashes below were captured from the lazy-tombstone
// binary-heap EventQueue the repo seeded with; the indexed 4-ary-heap /
// inline-action rewrite did not change a single delivery order or counter.
// The typed-detection golden replaced a digest of the string trace: it was
// captured over the typed event stream on the tree that still had the
// string trace, and then carried across that channel's removal unchanged.
// If a change *deliberately* alters simulation semantics (new message,
// different tie-break), re-capture the constants and say so in the change
// description — an unexplained mismatch is a determinism bug.
//
// The parallel half asserts that fanning the same cases across a thread
// pool is bit-identical to running them sequentially on the main thread.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "fd/heartbeat_p.hpp"
#include "net/scenario.hpp"
#include "obs/recorder.hpp"
#include "runner/fingerprint.hpp"
#include "runner/suite.hpp"
#include "runner/thread_pool.hpp"

namespace ecfd {
namespace {

using runner::CaseMetrics;

/// Typed-event digest of a small crash scenario: every send, suspicion flip
/// and crash, in the recorder's merged order, plus counters and events
/// fired. The rings hold the whole 2 s run, so nothing is evicted. The most
/// order-sensitive probe we have short of diffing raw traces.
std::uint64_t typed_detection_hash() {
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.seed = 7;
  cfg.links = LinkKind::kPartialSync;
  cfg.gst = 0;
  cfg.delta = msec(5);
  auto sys = make_system(cfg);
  obs::Recorder rec(std::size_t{1} << 16);
  sys->attach_recorder(&rec);
  for (ProcessId p = 0; p < cfg.n; ++p) sys->host(p).emplace<fd::HeartbeatP>();
  sys->start();
  sys->crash_at(1, msec(500));
  sys->run_until(sec(2));
  EXPECT_EQ(rec.dropped_total(), 0u);

  runner::Fnv1a h;
  for (const obs::Event& e : rec.merged()) {
    if (e.type != obs::EventType::kSend && e.type != obs::EventType::kSuspect &&
        e.type != obs::EventType::kUnsuspect &&
        e.type != obs::EventType::kCrash) {
      continue;
    }
    h.i64(e.time);
    h.i64(e.host);
    h.u64(static_cast<std::uint64_t>(e.type));
    h.i64(e.a);
    h.i64(e.b);
  }
  h.u64(runner::fingerprint_counters(sys->counters()));
  h.u64(sys->scheduler().fired());
  return h.value();
}

// Golden values; see file comment.
constexpr std::uint64_t kGoldenTypedDetection = 0x064a44a5cbea62dbULL;
constexpr std::uint64_t kGoldenE4Case = 0x3d39c4265c0163adULL;
constexpr std::uint64_t kGoldenE5Case = 0xe43cdd4f359bb33eULL;

TEST(Determinism, TypedDetectionMatchesGolden) {
#if defined(ECFD_OBS_DISABLED)
  GTEST_SKIP() << "typed events are compiled out (ECFD_OBS=OFF)";
#endif
  const std::uint64_t h = typed_detection_hash();
  std::printf("typed_detection_hash = 0x%016llx\n",
              static_cast<unsigned long long>(h));
  EXPECT_EQ(h, kGoldenTypedDetection);
}

TEST(Determinism, E4CaseMatchesGolden) {
  const CaseMetrics m = runner::run_detection_case(8, 100);
  std::printf("e4 hash = 0x%016llx events=%llu msgs=%lld\n",
              static_cast<unsigned long long>(m.hash),
              static_cast<unsigned long long>(m.events),
              static_cast<long long>(m.msgs));
  EXPECT_EQ(m.hash, kGoldenE4Case);
}

TEST(Determinism, E5CaseMatchesGolden) {
  const CaseMetrics m =
      runner::run_consensus_case(7, 500, consensus::Algo::kEcfdC, 1);
  std::printf("e5 hash = 0x%016llx events=%llu msgs=%lld\n",
              static_cast<unsigned long long>(m.hash),
              static_cast<unsigned long long>(m.events),
              static_cast<long long>(m.msgs));
  EXPECT_EQ(m.hash, kGoldenE5Case);
}

TEST(Determinism, RepeatedRunsIdentical) {
  const std::uint64_t a = typed_detection_hash();
  const std::uint64_t b = typed_detection_hash();
  EXPECT_EQ(a, b);
  const CaseMetrics m1 = runner::run_churn_case(3, 5'000, 50'000);
  const CaseMetrics m2 = runner::run_churn_case(3, 5'000, 50'000);
  EXPECT_EQ(m1.hash, m2.hash);
  EXPECT_EQ(m1.events, m2.events);
}

TEST(Determinism, ParallelRunnerMatchesSequential) {
  auto suite = runner::build_suite(/*quick=*/true);
  ASSERT_FALSE(suite.empty());

  std::vector<CaseMetrics> seq(suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) seq[i] = suite[i].run();

  std::vector<CaseMetrics> par(suite.size());
  runner::parallel_for(suite.size(), 4,
                       [&](std::size_t i) { par[i] = suite[i].run(); });

  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(seq[i].hash, par[i].hash)
        << suite[i].experiment << " " << suite[i].config << " seed "
        << suite[i].seed;
    EXPECT_EQ(seq[i].events, par[i].events);
    EXPECT_EQ(seq[i].msgs, par[i].msgs);
  }
}

}  // namespace
}  // namespace ecfd
