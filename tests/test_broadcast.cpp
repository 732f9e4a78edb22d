#include "broadcast/reliable_broadcast.hpp"
#include "net/scenario.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ecfd::broadcast {
namespace {

struct RbWorld {
  std::unique_ptr<System> sys;
  std::vector<ReliableBroadcast*> rb;
  std::vector<std::vector<std::string>> delivered;  // per process
};

RbWorld make(int n, std::uint64_t seed, ScenarioConfig cfg = {}) {
  cfg.n = n;
  cfg.seed = seed;
  RbWorld s;
  s.sys = make_system(cfg);
  s.delivered.resize(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    auto& rb = s.sys->host(p).emplace<ReliableBroadcast>();
    rb.set_deliver([&s, p](const RbEnvelope& e) {
      s.delivered[static_cast<std::size_t>(p)].push_back(e.as<std::string>());
    });
    s.rb.push_back(&rb);
  }
  s.sys->start();
  return s;
}

TEST(ReliableBroadcast, ValidityAllCorrectDeliver) {
  RbWorld s = make(4, 1);
  s.rb[0]->r_broadcast(1, std::string("hello"));
  s.sys->run_until(sec(1));
  for (int p = 0; p < 4; ++p) {
    ASSERT_EQ(s.delivered[p].size(), 1u) << "process " << p;
    EXPECT_EQ(s.delivered[p][0], "hello");
  }
}

TEST(ReliableBroadcast, UniformIntegrityNoDuplicates) {
  RbWorld s = make(5, 2);
  s.rb[1]->r_broadcast(1, std::string("x"));
  s.rb[1]->r_broadcast(1, std::string("y"));
  s.sys->run_until(sec(1));
  for (int p = 0; p < 5; ++p) {
    EXPECT_EQ(s.delivered[p].size(), 2u);
  }
}

TEST(ReliableBroadcast, LocalDeliveryIsImmediate) {
  RbWorld s = make(3, 3);
  s.rb[2]->r_broadcast(7, std::string("self"));
  // No simulation time elapsed: the broadcaster has already delivered.
  EXPECT_EQ(s.delivered[2].size(), 1u);
}

TEST(ReliableBroadcast, AgreementUnderLossyLinksViaDiffusion) {
  ScenarioConfig cfg;
  cfg.links = LinkKind::kFairLossy;
  cfg.loss_p = 0.4;
  cfg.force_deliver_every = 5;
  RbWorld s = make(5, 4, cfg);
  s.rb[0]->r_broadcast(1, std::string("m"));
  s.sys->run_until(sec(2));
  // Diffusion: everyone relays on first receipt, so even heavy loss cannot
  // keep a correct process from delivering (n*(n-1) chances).
  for (int p = 0; p < 5; ++p) {
    EXPECT_EQ(s.delivered[p].size(), 1u) << "process " << p;
  }
}

TEST(ReliableBroadcast, AgreementWhenOriginCrashesAfterSending) {
  RbWorld s = make(4, 5);
  s.rb[3]->r_broadcast(1, std::string("last words"));
  s.sys->crash_now(3);  // crashes right after broadcasting
  s.sys->run_until(sec(1));
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(s.delivered[p].size(), 1u) << "process " << p;
  }
}

TEST(ReliableBroadcast, CrashedProcessDoesNotDeliver) {
  RbWorld s = make(3, 6);
  s.sys->crash_now(2);
  s.rb[0]->r_broadcast(1, std::string("m"));
  s.sys->run_until(sec(1));
  EXPECT_TRUE(s.delivered[2].empty());
}

TEST(ReliableBroadcast, ManyBroadcastsAllArrive) {
  RbWorld s = make(4, 7);
  for (int i = 0; i < 20; ++i) {
    s.rb[i % 4]->r_broadcast(1, std::string("m") + std::to_string(i));
  }
  s.sys->run_until(sec(2));
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(s.delivered[p].size(), 20u);
  }
}

TEST(ReliableBroadcast, EnvelopeCarriesOriginAndTag) {
  ScenarioConfig cfg;
  cfg.n = 2;
  cfg.seed = 8;
  auto sys = make_system(cfg);
  ProcessId got_origin = kNoProcess;
  int got_tag = 0;
  auto& rb0 = sys->host(0).emplace<ReliableBroadcast>();
  rb0.set_deliver([&](const RbEnvelope& e) {
    got_origin = e.origin;
    got_tag = e.tag;
  });
  auto& rb1 = sys->host(1).emplace<ReliableBroadcast>();
  rb1.set_deliver([](const RbEnvelope&) {});
  sys->start();
  rb1.r_broadcast(42, std::string("z"));
  sys->run_until(sec(1));
  EXPECT_EQ(got_origin, 1);
  EXPECT_EQ(got_tag, 42);
}

TEST(ReliableBroadcast, InOrderTrafficKeepsOnlyOneWatermarkPerOrigin) {
  // The dedup state of a long-lived instance (the kv batch-body RB) must
  // not grow with the number of broadcasts: 100k in-order broadcasts
  // leave each process holding its n per-origin watermarks and nothing
  // else.
  RbWorld s = make(3, 9);
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 1000; ++i) s.rb[0]->r_broadcast(1, std::string("m"));
    s.sys->run_until(s.sys->now() + msec(50));
  }
  s.sys->run_until(s.sys->now() + sec(1));
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(s.rb[p]->delivered_count(), 100'000u) << "process " << p;
    EXPECT_EQ(s.rb[p]->out_of_order_count(), 0u) << "process " << p;
  }
}

TEST(ReliableBroadcast, OutOfOrderSeqsAreHeldUntilTheGapCloses) {
  RbWorld s = make(3, 10);
  ReliableBroadcast& rb = *s.rb[1];
  const auto relay = [&rb](std::uint64_t seq) {
    RbEnvelope e;
    e.origin = 2;
    e.seq = seq;
    e.tag = 1;
    e.body = std::make_shared<const std::string>("s" + std::to_string(seq));
    e.body_type = &typeid(std::string);
    Message m = Message::make(protocol_ids::kReliableBroadcast, /*relay=*/1,
                              "rb.relay", e);
    m.src = 2;
    rb.on_message(m);
  };
  relay(3);
  relay(2);
  EXPECT_EQ(rb.out_of_order_count(), 2u);
  relay(3);  // duplicate of a held seq
  relay(1);  // closes the gap: all three fold into the watermark
  EXPECT_EQ(rb.out_of_order_count(), 0u);
  relay(2);  // duplicate below the watermark
  EXPECT_EQ(rb.delivered_count(), 3u);
  EXPECT_EQ(s.delivered[1],
            (std::vector<std::string>{"s3", "s2", "s1"}));
}

}  // namespace
}  // namespace ecfd::broadcast
