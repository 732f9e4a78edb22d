#include "check/thread_monitor.hpp"

#include <cctype>
#include <chrono>
#include <set>
#include <sstream>

namespace ecfd::check {

namespace {

/// Extracts process ids from "p<digits>" tokens in a witness string (the
/// format fd_monitor's pname() emits).
std::set<ProcessId> processes_in_witness(const std::string& witness, int n) {
  std::set<ProcessId> out;
  for (std::size_t i = 0; i < witness.size(); ++i) {
    if (witness[i] != 'p') continue;
    if (i > 0 && (std::isalnum(static_cast<unsigned char>(witness[i - 1])) ||
                  witness[i - 1] == '_')) {
      continue;  // 'p' inside a word, not a process name
    }
    std::size_t j = i + 1;
    long id = 0;
    while (j < witness.size() &&
           std::isdigit(static_cast<unsigned char>(witness[j]))) {
      id = id * 10 + (witness[j] - '0');
      ++j;
    }
    if (j > i + 1 && id < n) out.insert(static_cast<ProcessId>(id));
    i = j - 1;
  }
  return out;
}

}  // namespace

ThreadedFdMonitor::ThreadedFdMonitor(runtime::ThreadSystem& sys,
                                     FdPropertyMonitor::Config cfg)
    : sys_(sys),
      monitor_(std::move(cfg)),
      suspects_(static_cast<std::size_t>(sys.n()), nullptr),
      leaders_(static_cast<std::size_t>(sys.n()), nullptr),
      got_suspected_(static_cast<std::size_t>(sys.n())),
      got_trusted_(static_cast<std::size_t>(sys.n())) {}

void ThreadedFdMonitor::attach(ProcessId p, const SuspectOracle* s,
                               const LeaderOracle* l) {
  suspects_[static_cast<std::size_t>(p)] = s;
  leaders_[static_cast<std::size_t>(p)] = l;
}

void ThreadedFdMonitor::sample(DurUs timeout) {
  const int n = sys_.n();
  std::uint64_t round;
  {
    std::unique_lock<std::mutex> lk(mu_);
    round = ++round_;
    pending_ = 0;
    for (auto& s : got_suspected_) s.reset();
    for (auto& t : got_trusted_) t.reset();
  }

  ProcessSet crashed(n);
  int expected = 0;
  for (ProcessId p = 0; p < n; ++p) {
    const auto i = static_cast<std::size_t>(p);
    runtime::ThreadHost& host = sys_.host(p);
    if (host.crashed()) {
      crashed.add(p);
      continue;
    }
    if (suspects_[i] == nullptr && leaders_[i] == nullptr) continue;
    ++expected;
    // The read happens on the host's own thread: oracle state is only ever
    // touched there, so this is the race-free way to observe it.
    host.post([this, i, round] {
      std::optional<ProcessSet> susp;
      std::optional<ProcessId> trusted;
      if (suspects_[i] != nullptr) susp = suspects_[i]->suspected();
      if (leaders_[i] != nullptr) trusted = leaders_[i]->trusted();
      std::lock_guard<std::mutex> lk(mu_);
      if (round != round_) return;  // stale reply from a previous sample
      got_suspected_[i] = std::move(susp);
      got_trusted_[i] = std::move(trusted);
      ++pending_;
      cv_.notify_all();
    });
  }

  FdPropertyMonitor::Snapshot snap;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::microseconds(timeout),
                 [&] { return pending_ >= expected; });
    snap.suspected = got_suspected_;
    snap.trusted = got_trusted_;
  }
  snap.time = sys_.now();
  snap.crashed = crashed;
  monitor_.observe(snap);

  // Verdict transitions go to the runtime recorder's system ring so the
  // merged timeline shows when each property flipped, interleaved with the
  // per-host protocol events. sample() is called from one coordinating
  // thread, so last_verdict_state_ needs no lock.
  obs::Recorder* rec = sys_.recorder();
  if (rec != nullptr) {
    for (const Verdict& v : monitor_.verdicts()) {
      const auto it = last_verdict_state_.find(v.property);
      if (it != last_verdict_state_.end() && it->second == v.state) continue;
      const bool first = it == last_verdict_state_.end();
      last_verdict_state_[v.property] = v.state;
      if (first && v.state == VerdictState::kHolding) continue;
      rec->system_ring().push(snap.time, obs::EventType::kVerdict,
                              static_cast<std::int32_t>(v.state), 0,
                              rec->intern(v.property));
    }
  }
}

std::string ThreadedFdMonitor::violation_report() const {
  constexpr std::size_t kMaxTracedHosts = 4;
  std::ostringstream os;
  std::set<ProcessId> implicated;
  for (const Verdict& v : monitor_.verdicts()) {
    if (v.state == VerdictState::kHolding) continue;
    os << v.to_string() << '\n';
    for (ProcessId p : processes_in_witness(v.witness, sys_.n())) {
      implicated.insert(p);
    }
  }
  const obs::Recorder* rec = sys_.recorder();
  std::vector<obs::Event> events;
  std::size_t traced = 0;
  for (ProcessId p : implicated) {
    if (rec == nullptr || p >= rec->hosts()) break;
    if (traced == kMaxTracedHosts) {
      os << "  (further implicated hosts omitted)\n";
      break;
    }
    rec->state_ring(p).snapshot(&events);
    if (events.empty()) continue;
    ++traced;
    os << "  recent trace of p" << p << ":\n";
    for (const obs::Event& e : events) {
      os << "    t=" << e.time << "us " << obs::event_type_name(e.type)
         << " a=" << e.a << " b=" << e.b << '\n';
    }
  }
  return os.str();
}

}  // namespace ecfd::check
