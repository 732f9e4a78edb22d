#include "consensus/fd_stacks.hpp"

#include <algorithm>

#include "core/c_to_p.hpp"
#include "core/ecfd_compose.hpp"
#include "fd/efficient_p.hpp"
#include "fd/heartbeat_p.hpp"
#include "fd/hier_c.hpp"
#include "fd/leader_candidate.hpp"
#include "fd/ring_fd.hpp"
#include "fd/scripted_fd.hpp"
#include "fd/stable_leader.hpp"
#include "fd/swim.hpp"

namespace ecfd::consensus {

namespace {

/// A detector config with the params' period and timeouts.
template <class Config>
Config timed(const FdStackParams& params) {
  Config c;
  c.period = params.period;
  c.initial_timeout = params.initial_timeout;
  c.timeout_increment = params.timeout_increment;
  return c;
}

/// A single protocol that is a complete ◇C module: no adapter needed.
template <class Fd>
FdInstallation install_complete(Fd& fd) {
  FdInstallation out;
  out.ecfd = &fd;
  out.suspect = &fd;
  out.leader = &fd;
  return out;
}

FdInstallation install_ring(Host& host, const FdStackParams& params) {
  FdInstallation out;
  auto& ring = host.emplace<fd::RingFd>(timed<fd::RingFd::Config>(params));
  out.owned = std::make_unique<core::EcfdFromRing>(&ring);
  out.ecfd = out.owned.get();
  out.suspect = &ring;
  out.leader = &ring;
  return out;
}

FdInstallation install_heartbeat_with(Host& host,
                                      const fd::HeartbeatP::Config& hbc) {
  FdInstallation out;
  auto& hb = host.emplace<fd::HeartbeatP>(hbc);
  auto from_p = std::make_unique<core::EcfdFromP>(&hb);
  out.suspect = &hb;
  out.leader = from_p.get();
  out.ecfd = from_p.get();
  out.owned = std::move(from_p);
  return out;
}

FdInstallation install_heartbeat(Host& host, const FdStackParams& params) {
  return install_heartbeat_with(host, timed<fd::HeartbeatP::Config>(params));
}

FdInstallation install_heartbeat_adaptive(Host& host,
                                          const FdStackParams& params) {
  auto hbc = timed<fd::HeartbeatP::Config>(params);
  hbc.adaptive = true;
  hbc.predictor.fallback_timeout = hbc.initial_timeout;
  return install_heartbeat_with(host, hbc);
}

FdInstallation install_omega_heartbeat(Host& host,
                                       const FdStackParams& params) {
  FdInstallation out;
  auto& hb =
      host.emplace<fd::HeartbeatP>(timed<fd::HeartbeatP::Config>(params));
  auto& lc = host.emplace<fd::LeaderCandidate>(
      timed<fd::LeaderCandidate::Config>(params));
  out.owned = std::make_unique<core::EcfdFromSAndOmega>(&hb, &lc);
  out.ecfd = out.owned.get();
  out.suspect = &hb;
  out.leader = &lc;
  return out;
}

FdInstallation install_efficient_p(Host& host, const FdStackParams& params) {
  return install_complete(
      host.emplace<fd::EfficientP>(timed<fd::EfficientP::Config>(params)));
}

FdInstallation install_scripted(Host& host, const FdStackParams& params) {
  FdInstallation out;
  const int n = host.n();
  // Default params (a UDP node's) script no crashes.
  const ProcessSet crashed =
      params.crashed.universe_size() == n ? params.crashed : ProcessSet(n);
  ProcessId leader = params.leader;
  if (leader == kNoProcess) {
    ProcessSet correct = ProcessSet::full(n) - crashed;
    leader = correct.empty() ? 0 : correct.first();
  }
  auto& scripted = host.emplace<fd::ScriptedFd>(
      params.ewa_only
          ? fd::ewa_only_script(n, host.self(), leader, params.stable_at)
          : fd::stable_script(n, host.self(), crashed, leader,
                              params.stable_at));
  out.owned = std::make_unique<core::EcfdFromSAndOmega>(&scripted, &scripted);
  out.ecfd = out.owned.get();
  out.suspect = &scripted;
  out.leader = &scripted;
  return out;
}

FdInstallation install_hier_c(Host& host, const FdStackParams& params) {
  return install_complete(
      host.emplace<fd::HierC>(timed<fd::HierC::Config>(params)));
}

FdInstallation install_swim(Host& host, const FdStackParams& params) {
  // SWIM has no heartbeat timeout: a probe waits ack_timeout (a quarter
  // period, at least 10 ms) and a suspicion ripens into a death after
  // four periods, at least 400 ms. At the default 10 ms period these are
  // the protocol's own 10 ms and 400 ms.
  fd::SwimFd::Config c;
  c.period = params.period;
  c.ack_timeout = std::max<DurUs>(msec(10), params.period / 4);
  c.timeout_increment = c.ack_timeout;
  c.suspect_timeout = std::max<DurUs>(msec(400), 4 * params.period);
  return install_complete(host.emplace<fd::SwimFd>(c));
}

FdInstallation install_stable_leader(Host& host, const FdStackParams& params) {
  FdInstallation out;
  auto& sl =
      host.emplace<fd::StableLeader>(timed<fd::StableLeader::Config>(params));
  out.owned = std::make_unique<core::EcfdFromOmega>(host.n(), host.self(), &sl);
  out.ecfd = out.owned.get();
  out.suspect = out.owned.get();
  out.leader = &sl;
  return out;
}

FdInstallation install_ecfd(Host& host, const FdStackParams& params) {
  // The paper's composition: a stable Omega, lifted to ◇C, transformed to
  // ◇P by the Fig. 2 algorithm (2(n-1) messages per period in total), and
  // re-packaged as a ◇C with the transformed (accurate) lists.
  FdInstallation out;
  auto& sl =
      host.emplace<fd::StableLeader>(timed<fd::StableLeader::Config>(params));
  core::CToP::Config tc;
  tc.alive_period = params.period;
  tc.list_period = params.period;
  tc.initial_timeout = params.initial_timeout;
  tc.timeout_increment = params.timeout_increment;
  auto& ctp = host.emplace<core::CToP>(&sl, tc);
  out.owned = std::make_unique<core::EcfdFromSAndOmega>(&ctp, &sl);
  out.ecfd = out.owned.get();
  out.suspect = &ctp;
  out.leader = &sl;
  return out;
}

}  // namespace

const std::vector<FdStackInfo>& all_fd_stacks() {
  static const std::vector<FdStackInfo> kStacks = {
      {FdStack::kRing, "ring", "ring",
       "ring ◇S/◇P with its free leader (◇C at no extra cost)",
       &install_ring},
      {FdStack::kHeartbeatP, "heartbeat_p", "heartbeat",
       "all-to-all heartbeat ◇P, leader = first unsuspected",
       &install_heartbeat},
      {FdStack::kOmegaPlusHeartbeat, "omega_heartbeat", "mix",
       "leader-candidate Omega + heartbeat ◇S, composed",
       &install_omega_heartbeat},
      {FdStack::kEfficientP, "efficient_p", "effp",
       "§4 piggybacked Omega+◇P (cheapest flat full stack)",
       &install_efficient_p},
      {FdStack::kScriptedStable, "scripted", "scripted",
       "scripted: chaos until fd_stable_at, then perfect",
       &install_scripted},
      {FdStack::kHeartbeatAdaptive, "heartbeat_adaptive", "adaptive",
       "heartbeat ◇P with Chen-style adaptive timeouts",
       &install_heartbeat_adaptive},
      {FdStack::kHierC, "hier_c", "hier",
       "two-level hierarchical ◇C: √n cells, O(n) msgs/period",
       &install_hier_c},
      {FdStack::kSwim, "swim", "swim",
       "SWIM gossip membership as ◇C: O(1) msgs per node per period",
       &install_swim},
      {FdStack::kStableLeader, "stable_leader", "stable_leader",
       "stable Omega (accusation counters); suspects all but the leader",
       &install_stable_leader},
      {FdStack::kEcfd, "ecfd", "ecfd",
       "the paper's stack: stable Omega -> ◇C -> Fig. 2 ◇P, composed",
       &install_ecfd},
  };
  return kStacks;
}

const FdStackInfo& fd_stack_info(FdStack f) {
  return all_fd_stacks()[static_cast<std::size_t>(f)];
}

const FdStackInfo* fd_stack_by_name(const std::string& s) {
  for (const FdStackInfo& info : all_fd_stacks()) {
    if (s == info.name || s == info.alias) return &info;
  }
  return nullptr;
}

std::string fd_stack_names() {
  std::string out;
  for (const FdStackInfo& info : all_fd_stacks()) {
    if (!out.empty()) out += " | ";
    out += info.name;
  }
  return out;
}

FdInstallation install_fd_stack(FdStack f, Host& host,
                                const FdStackParams& params) {
  return fd_stack_info(f).install(host, params);
}

const std::vector<std::string>& fd_msg_prefixes() {
  static const std::vector<std::string> kPrefixes = {
      "msg.hb_p.", "msg.ring.", "msg.lc.",  "msg.ofs.", "msg.effp.",
      "msg.hier.", "msg.swim.", "msg.sl.",  "msg.ctp.",
  };
  return kPrefixes;
}

}  // namespace ecfd::consensus
