// The replicated kv service end-to-end in the deterministic simulator:
// commit-and-replicate, leader redirects, lease-read fast path, retry
// dedup across a leader failover (the exactly-once guarantee), snapshot
// install-on-join for a partitioned-away replica, and the quiescent-log
// property that an idle cluster consumes no slots.
#include "kv/service.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ecfd_compose.hpp"
#include "fd/hier_c.hpp"
#include "fd/ring_fd.hpp"
#include "fd/swim.hpp"
#include "net/protocol_ids.hpp"
#include "net/scenario.hpp"
#include "obs/recorder.hpp"
#include "scenario_util.hpp"

namespace ecfd::kv {
namespace {

using testutil::minority;

constexpr std::uint64_t kSess = 0x5E55;

struct Cluster {
  std::unique_ptr<System> sys;
  std::vector<std::unique_ptr<core::EcfdOracle>> oracles;
  std::vector<core::LogReplica*> logs;  // owned by the hosts
  std::vector<KvService*> services;
  /// Replies per host, in arrival order.
  std::map<int, std::vector<Reply>> replies;
};

// Heap-allocated: the reply sinks capture the cluster's address.
std::unique_ptr<Cluster> make_cluster(int n, std::uint64_t seed,
                                      int snapshot_every = 64,
                                      std::size_t max_queued_cmds = 4096) {
  auto c = std::make_unique<Cluster>();
  Cluster* cp = c.get();
  c->sys = make_system(testutil::partial_sync_scenario(n, seed));
  std::vector<fd::RingFd*> rings;
  for (ProcessId p = 0; p < n; ++p) {
    rings.push_back(&c->sys->host(p).emplace<fd::RingFd>());
  }
  for (ProcessId p = 0; p < n; ++p) {
    c->oracles.push_back(std::make_unique<core::EcfdFromRing>(rings[p]));
    core::LogReplica::Config lc;
    lc.pipeline_depth = 2;
    lc.snapshot_every = snapshot_every;
    lc.quiescent = true;
    c->logs.push_back(
        &c->sys->host(p).emplace<core::LogReplica>(c->oracles.back().get(), lc));
    auto& rb = c->sys->host(p).emplace<broadcast::ReliableBroadcast>(
        protocol_ids::kKvBatchRb);
    KvService::Config kc;
    kc.batch_wait = msec(5);
    kc.lease_establish = msec(300);
    kc.gossip_every = msec(100);
    kc.snapshot_every = snapshot_every;
    kc.max_queued_cmds = max_queued_cmds;
    auto& svc = c->sys->host(p).emplace<KvService>(
        c->oracles.back().get(), c->logs.back(), &rb, kc);
    const int host = p;
    svc.set_reply_sink([cp, host](KvService::Token, const Reply& r) {
      cp->replies[host].push_back(r);
    });
    c->services.push_back(&svc);
  }
  return c;
}

Request write_req(std::uint64_t tag, std::uint64_t seq, const std::string& key,
                  const std::string& value, std::uint64_t session = kSess) {
  Request req;
  req.version = kProtoVersion;
  req.session = session;
  req.tag = tag;
  Op op;
  op.op = OpKind::kPut;
  op.seq = seq;
  op.key = key;
  op.value = value;
  req.ops.push_back(op);
  return req;
}

Request open_req(std::uint64_t tag, std::uint64_t session = kSess) {
  Request req;
  req.version = kProtoVersion;
  req.session = session;
  req.tag = tag;
  Op op;
  op.op = OpKind::kOpenSession;
  req.ops.push_back(op);
  return req;
}

Request read_req(std::uint64_t tag, const std::string& key, bool lease) {
  Request req;
  req.version = kProtoVersion;
  req.flags = lease ? kFlagLeaseRead : 0;
  req.session = kSess;
  req.tag = tag;
  Op op;
  op.op = OpKind::kGet;
  op.key = key;
  req.ops.push_back(op);
  return req;
}

const Reply* reply_with_tag(const Cluster& c, int host, std::uint64_t tag) {
  auto it = c.replies.find(host);
  if (it == c.replies.end()) return nullptr;
  for (const Reply& r : it->second) {
    if (r.tag == tag) return &r;
  }
  return nullptr;
}

TEST(KvService, CommitsThroughConsensusAndReplicatesEverywhere) {
  auto c = make_cluster(3, 1);
  c->sys->start();
  c->sys->run_until(msec(400));  // FD stabilizes; p0 is the ring leader

  c->services[0]->handle_request(1, open_req(1));
  c->sys->run_until(msec(600));
  c->services[0]->handle_request(1, write_req(2, 1, "alpha", "one"));
  c->services[0]->handle_request(1, write_req(3, 2, "beta", "two"));
  c->sys->run_until(sec(2));

  for (std::uint64_t tag : {1u, 2u, 3u}) {
    const Reply* r = reply_with_tag(*c, 0, tag);
    ASSERT_NE(r, nullptr) << "tag " << tag;
    EXPECT_EQ(r->status, Status::kOk) << "tag " << tag;
  }
  // Every replica applied the same state.
  const std::uint64_t h = c->services[0]->store().content_hash();
  for (int p = 1; p < 3; ++p) {
    EXPECT_EQ(c->services[p]->store().content_hash(), h) << "replica " << p;
  }
  EXPECT_EQ(c->services[0]->store().read("alpha").value, "one");
}

TEST(KvService, NonLeaderRedirectsWithAHint) {
  auto c = make_cluster(3, 2);
  c->sys->start();
  c->sys->run_until(msec(400));

  c->services[1]->handle_request(7, write_req(1, 1, "k", "v"));
  const Reply* r = reply_with_tag(*c, 1, 1);
  ASSERT_NE(r, nullptr) << "redirect is synchronous";
  EXPECT_EQ(r->status, Status::kNotLeader);
  EXPECT_EQ(r->leader_hint, 0);
}

TEST(KvService, LeaseReadsSkipTheLogAndLogReadsDoNot) {
  auto c = make_cluster(3, 3);
  c->sys->start();
  c->sys->run_until(msec(600));  // > lease_establish: leader holds the lease
  ASSERT_TRUE(c->services[0]->lease_valid());

  c->services[0]->handle_request(1, open_req(1));
  c->services[0]->handle_request(1, write_req(2, 1, "k", "v"));
  c->sys->run_until(sec(2));
  const int slots_before = c->services[0]->applied_slot();

  // Lease read: answered synchronously, no new slot, no store log-read.
  c->services[0]->handle_request(1, read_req(3, "k", /*lease=*/true));
  const Reply* lease_reply = reply_with_tag(*c, 0, 3);
  ASSERT_NE(lease_reply, nullptr);
  EXPECT_EQ(lease_reply->status, Status::kOk);
  ASSERT_EQ(lease_reply->results.size(), 1u);
  EXPECT_EQ(lease_reply->results[0].value, "v");
  EXPECT_EQ(c->services[0]->store().stats().log_reads, 0);

  // Through-the-log read: consumes a slot and shows up in log_reads.
  c->services[0]->handle_request(1, read_req(4, "k", /*lease=*/false));
  c->sys->run_until(sec(3));
  const Reply* log_reply = reply_with_tag(*c, 0, 4);
  ASSERT_NE(log_reply, nullptr);
  EXPECT_EQ(log_reply->status, Status::kOk);
  EXPECT_EQ(log_reply->results[0].value, "v");
  EXPECT_GT(c->services[0]->store().stats().log_reads, 0);
  EXPECT_GT(c->services[0]->applied_slot(), slots_before);
}

// Recording is on in every node with --trace, --postmortem or
// --metrics-port, and such a node runs forever, so no protocol transition
// may intern a per-event string: once warm, the recorder's string table
// must stop growing. The partition below drives every transition that once
// did: SWIM suspicions and a refutation at a higher incarnation, hier_c
// cell suspicions, a kv lease grant/revoke cycle on the partitioned
// replica, and a snapshot install when it rejoins.
TEST(KvService, RecordedRunKeepsTheInternTableFlat) {
#if defined(ECFD_OBS_DISABLED)
  GTEST_SKIP() << "typed events are compiled out (ECFD_OBS=OFF)";
#endif
  auto c = make_cluster(3, 5, /*snapshot_every=*/8);
  obs::Recorder rec(256);
  c->sys->attach_recorder(&rec);
  std::vector<fd::SwimFd*> swims;
  std::vector<fd::HierC*> hiers;
  for (ProcessId p = 0; p < 3; ++p) {
    swims.push_back(&c->sys->host(p).emplace<fd::SwimFd>());
    hiers.push_back(&c->sys->host(p).emplace<fd::HierC>());
  }
  ASSERT_EQ(hiers[0]->n_cells(), 2);  // {p0, p1} and {p2}
  c->sys->start();
  c->sys->run_until(msec(400));
  ASSERT_TRUE(c->services[0]->lease_valid()) << "warm: p0 holds its lease";
  const std::size_t warm = rec.strings().size();
  const std::uint32_t incarnation = swims[2]->incarnation();

  c->sys->network().partition(minority(3, 2));
  c->sys->run_until(msec(600));
  c->services[0]->handle_request(1, open_req(1));
  c->sys->run_until(sec(1));
  for (std::uint64_t q = 1; q <= 24; ++q) {
    c->services[0]->handle_request(
        1, write_req(1 + q, q, "key" + std::to_string(q), "v"));
    c->sys->run_until(sec(1) + msec(50 * static_cast<int>(q)));
  }
  c->sys->run_until(sec(4));
  EXPECT_TRUE(swims[0]->suspected().contains(2));
  EXPECT_TRUE(hiers[1]->suspected().contains(2))
      << "p1 learns of p2 only through the top leader's cell suspicion";
  EXPECT_TRUE(c->services[2]->lease_valid()) << "isolated p2 trusts itself";
  c->services[0]->snapshot_now();

  c->sys->network().heal();
  c->sys->run_until(sec(10));
  EXPECT_FALSE(c->services[2]->lease_valid()) << "p2's lease was revoked";
  EXPECT_GT(c->logs[2]->compacted_upto(), 0) << "p2 installed a snapshot";
  EXPECT_GT(swims[2]->incarnation(), incarnation) << "p2 refuted";
  EXPECT_EQ(rec.strings().size(), warm);
}

TEST(KvService, RetriedWriteAcrossLeaderFailoverAppliesExactlyOnce) {
  auto c = make_cluster(3, 4);
  c->sys->start();
  c->sys->run_until(msec(400));

  c->services[0]->handle_request(1, open_req(1));
  c->sys->run_until(msec(700));
  c->services[0]->handle_request(1, write_req(2, 1, "key", "committed"));
  c->sys->run_until(sec(2));
  ASSERT_NE(reply_with_tag(*c, 0, 2), nullptr);
  ASSERT_EQ(reply_with_tag(*c, 0, 2)->status, Status::kOk);

  // The leader vanishes (partition looks like a crash). The client never
  // saw the ack, so it retries the SAME (session, seq) on the new leader.
  c->sys->network().partition(minority(3, 1));
  c->sys->run_until(sec(4));
  ASSERT_TRUE(c->services[1]->is_leader()) << "p1 took over";

  c->services[1]->handle_request(9, write_req(2, 1, "key", "committed"));
  c->sys->run_until(sec(6));

  const Reply* retry = reply_with_tag(*c, 1, 2);
  ASSERT_NE(retry, nullptr);
  EXPECT_EQ(retry->status, Status::kOk) << "retry acked, not re-applied";
  // Exactly-once: the retry was answered from the replicated dedup window
  // (no log slot burned — applied_slot is -1 on a cached reply) and the
  // write was applied exactly once.
  EXPECT_EQ(retry->applied_slot, -1);
  EXPECT_EQ(c->services[1]->store().stats().applied_writes, 1);
  EXPECT_EQ(c->services[1]->store().read("key").value, "committed");
  EXPECT_EQ(c->services[1]->store().session_last_seq(kSess), 1u);
}

TEST(KvService, PartitionedReplicaCatchesUpViaSnapshotInstall) {
  auto c = make_cluster(3, 5, /*snapshot_every=*/8);
  c->sys->start();
  c->sys->run_until(msec(400));

  // p2 misses everything from here on ({p0, p1} vs {p2}).
  c->sys->network().partition(minority(3, 2));
  c->sys->run_until(msec(600));

  c->services[0]->handle_request(1, open_req(1));
  c->sys->run_until(sec(1));
  // Enough separate batches to cross several snapshot boundaries.
  for (std::uint64_t q = 1; q <= 24; ++q) {
    c->services[0]->handle_request(
        1, write_req(1 + q, q, "key" + std::to_string(q), "v"));
    c->sys->run_until(sec(1) + msec(50 * static_cast<int>(q)));
  }
  c->sys->run_until(sec(4));
  ASSERT_EQ(c->services[0]->store().stats().applied_writes, 24);
  ASSERT_GT(c->logs[0]->compacted_upto(), 0) << "leader compacted its log";
  ASSERT_EQ(c->services[2]->applied_slot(), 0) << "p2 saw nothing";

  // Advance the compaction floor over the full run. Decide messages lost
  // to the partition are never retransmitted (RB is one-shot diffusion),
  // so everything the lagger missed must be covered by the snapshot.
  c->services[0]->snapshot_now();

  // Heal: watermark gossip exposes the lagger, snapshot chunks catch it
  // up past the compaction floor, and the log fast-forwards.
  c->sys->network().heal();
  c->sys->run_until(sec(10));

  EXPECT_EQ(c->services[2]->store().content_hash(),
            c->services[0]->store().content_hash());
  EXPECT_GE(c->logs[2]->applied_slots(), c->logs[0]->compacted_upto());
  EXPECT_GT(c->logs[2]->compacted_upto(), 0) << "installed, not replayed";
  // The installed session table keeps dedup working on the joiner.
  EXPECT_EQ(c->services[2]->store().session_last_seq(kSess), 24u);
}

TEST(KvService, ReplicaPartitionedPastTheWindowRejoinsViaSnapshot) {
  auto c = make_cluster(3, 7, /*snapshot_every=*/8);
  c->sys->start();
  c->sys->run_until(msec(400));
  c->sys->network().partition(minority(3, 2));
  c->sys->run_until(msec(600));

  c->services[0]->handle_request(1, open_req(1));
  c->sys->run_until(msec(800));
  // Two windows of separate batches while p2 hears nothing.
  const int window = c->logs[0]->window();
  std::uint64_t q = 0;
  while (c->logs[0]->applied_slots() < 2 * window) {
    ++q;
    c->services[0]->handle_request(
        1, write_req(1 + q, q, "key" + std::to_string(q % 16), "v"));
    c->sys->run_until(c->sys->now() + msec(10));
    ASSERT_LT(c->sys->now(), sec(30));
  }
  c->sys->run_until(c->sys->now() + sec(1));
  ASSERT_EQ(c->services[2]->applied_slot(), 0) << "p2 saw nothing";

  // Heal, then keep writing: the live slots are past p2's window, so it
  // gives up its gap, keeps answering the leader, and catches up through
  // the snapshot that watermark gossip triggers.
  c->sys->network().heal();
  for (int i = 0; i < 20; ++i) {
    ++q;
    c->services[0]->handle_request(
        1, write_req(1 + q, q, "key" + std::to_string(q % 16), "w"));
    c->sys->run_until(c->sys->now() + msec(50));
  }
  c->sys->run_until(c->sys->now() + sec(2));

  ASSERT_NE(reply_with_tag(*c, 0, 1 + q), nullptr) << "no stall after heal";
  EXPECT_EQ(reply_with_tag(*c, 0, 1 + q)->status, Status::kOk);
  EXPECT_EQ(c->services[2]->store().content_hash(),
            c->services[0]->store().content_hash());
  EXPECT_EQ(c->services[2]->store().session_last_seq(kSess), q);
  EXPECT_FALSE(c->logs[2]->behind());
  for (int p = 0; p < 3; ++p) {
    EXPECT_LE(c->logs[p]->live_instances(), window) << "replica " << p;
  }
}

TEST(KvService, IdleLaggerCatchesUpWithoutFurtherWrites) {
  // p1 misses 31 slots, and the cluster goes idle right after the heal.
  // The last periodic snapshot (every 8 slots) does not cover the last
  // slots p1 missed, so the leader takes a fresh one once p1's gossiped
  // watermark stops moving below its own.
  auto c = make_cluster(3, 10, /*snapshot_every=*/8);
  c->sys->start();
  c->sys->run_until(msec(400));
  ProcessSet lagger(3);
  lagger.add(1);
  c->sys->network().partition(lagger);
  c->sys->run_until(msec(600));
  c->services[0]->handle_request(1, open_req(1));
  for (std::uint64_t q = 1; q <= 30; ++q) {
    c->sys->run_until(c->sys->now() + msec(30));
    c->services[0]->handle_request(1, write_req(1 + q, q, "k", "v"));
  }
  c->sys->run_until(c->sys->now() + sec(1));
  ASSERT_EQ(c->services[0]->applied_slot(), 31);
  ASSERT_EQ(c->services[1]->applied_slot(), 0);

  c->sys->network().heal();
  c->sys->run_until(c->sys->now() + sec(2));
  EXPECT_EQ(c->services[1]->applied_slot(), 31);
  EXPECT_EQ(c->services[1]->store().content_hash(),
            c->services[0]->store().content_hash());
}

TEST(KvService, OverloadIsAnsweredNotSilent) {
  // The leader is cut off from the majority, so nothing it queues can
  // commit. Past max_queued_cmds every further write is refused on the
  // spot with kOverloaded — well inside any client timeout.
  auto c = make_cluster(3, 8, 64, /*max_queued_cmds=*/4);
  c->sys->start();
  c->sys->run_until(msec(400));
  c->sys->network().partition(minority(3, 1));  // {p0} vs {p1, p2}

  int overloaded = 0;
  for (std::uint64_t q = 1; q <= 12; ++q) {
    c->services[0]->handle_request(1, write_req(q, q, "k", "v"));
    const Reply* r = reply_with_tag(*c, 0, q);
    if (q > 4) {
      ASSERT_NE(r, nullptr) << "request " << q << " answered at once";
      EXPECT_EQ(r->status, Status::kOverloaded);
      ++overloaded;
    }
    c->sys->run_until(c->sys->now() + msec(20));  // each write its own batch
  }
  EXPECT_EQ(overloaded, 8);
  EXPECT_EQ(c->logs[0]->pending(), 4u);
}

TEST(KvService, SixtyOneShotClientsAllCommit) {
  // The lifetime check of the old fixed slot budget: sixty one-shot
  // clients (open a session, write once) need two slots each. Every one
  // of them commits, and the live instances stay inside the window.
  auto c = make_cluster(3, 9);
  obs::MetricsRegistry metrics;
  c->services[0]->bind_metrics(&metrics);
  c->sys->start();
  c->sys->run_until(msec(400));
  for (std::uint64_t i = 1; i <= 60; ++i) {
    const std::uint64_t session = 0x1000 + i;
    c->services[0]->handle_request(1, open_req(2 * i, session));
    c->sys->run_until(c->sys->now() + msec(30));
    c->services[0]->handle_request(
        1, write_req(2 * i + 1, 1, "k" + std::to_string(i), "v", session));
    c->sys->run_until(c->sys->now() + msec(30));
  }
  c->sys->run_until(c->sys->now() + sec(1));
  for (std::uint64_t tag = 2; tag <= 121; ++tag) {
    const Reply* r = reply_with_tag(*c, 0, tag);
    ASSERT_NE(r, nullptr) << "tag " << tag;
    EXPECT_EQ(r->status, Status::kOk) << "tag " << tag;
  }
  EXPECT_GE(c->logs[0]->applied_slots(), 120);
  EXPECT_EQ(c->services[2]->store().content_hash(),
            c->services[0]->store().content_hash());
  for (int p = 0; p < 3; ++p) {
    EXPECT_LE(c->logs[p]->live_instances(), c->logs[p]->window());
  }
  // /metrics shows how close the node is to the window limit.
  EXPECT_EQ(metrics.gauge_value("kv.log.head_slot"), c->logs[0]->head_slot());
  EXPECT_EQ(metrics.gauge_value("kv.log.window_live"), 0);
  EXPECT_EQ(metrics.gauge_value("kv.applied_slot"),
            c->services[0]->applied_slot());
}

TEST(KvService, IdleClusterConsumesNoSlots) {
  auto c = make_cluster(3, 6);
  c->sys->start();
  c->sys->run_until(sec(5));
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(c->logs[p]->applied_slots(), 0) << "replica " << p;
    EXPECT_EQ(c->services[p]->applied_slot(), 0) << "replica " << p;
  }
  // And the leader still established its lease (the lease path is driven
  // by the FD, not by log traffic).
  EXPECT_TRUE(c->services[0]->lease_valid());
}

}  // namespace
}  // namespace ecfd::kv
