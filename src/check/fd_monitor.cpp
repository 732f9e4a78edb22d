#include "check/fd_monitor.hpp"

#include <algorithm>
#include <cassert>
#include <string>

namespace ecfd::check {

namespace {

std::string pname(ProcessId p) { return "p" + std::to_string(p); }

}  // namespace

void FdPropertyMonitor::EventualState::update(TimeUs now, bool now_ok,
                                              const std::string& why) {
  if (now_ok) {
    if (!ok) {
      ok = true;
      holds_since = now;
    }
    return;
  }
  ok = false;
  last_violation = now;
  witness = why;
  ++violations;
}

Verdict FdPropertyMonitor::EventualState::verdict(const char* name,
                                                  bool required) const {
  Verdict v;
  v.property = name;
  v.eventual = true;
  v.required = required;
  v.state = ok ? VerdictState::kHolding : VerdictState::kPending;
  v.holds_since = holds_since;
  v.violated_at = last_violation;
  // Keep the last violation description even while holding: for a property
  // that stabilized too late, "why not earlier" IS the witness.
  v.witness = witness;
  v.violations = violations;
  return v;
}

FdPropertyMonitor::FdPropertyMonitor(Config cfg) : cfg_(std::move(cfg)) {
  assert(cfg_.n > 0);
  unsuspected_since_.assign(static_cast<std::size_t>(cfg_.n), 0);
  prev_trusted_.assign(static_cast<std::size_t>(cfg_.n), std::nullopt);
}

void FdPropertyMonitor::observe(const Snapshot& snap) {
  assert(snap.time >= last_time_ && "snapshots must be time-ordered");
  assert(static_cast<int>(snap.suspected.size()) == cfg_.n);
  assert(static_cast<int>(snap.trusted.size()) == cfg_.n);
  last_time_ = snap.time;
  ++snapshots_;
  const TimeUs now = snap.time;
  const auto& correct = cfg_.correct;

  if (cfg_.check_suspect) {
    // Detection witnesses: per victim, the first snapshot where the crash
    // was visible and, per observer, the first snapshot sampling the
    // observer suspecting it — plus the observer's current suspicion
    // suffix, for weak completeness.
    for (ProcessId c : snap.crashed.members()) {
      std::size_t k = 0;
      while (k < detections_.size() && detections_[k].victim != c) ++k;
      if (k == detections_.size()) {
        DetectionWitness d;
        d.victim = c;
        d.crashed_seen = now;
        d.first_suspect.assign(static_cast<std::size_t>(cfg_.n), kTimeNever);
        detections_.push_back(std::move(d));
        suspect_since_.emplace_back(static_cast<std::size_t>(cfg_.n),
                                    kTimeNever);
      }
      DetectionWitness& w = detections_[k];
      for (ProcessId q : correct.members()) {
        const auto i = static_cast<std::size_t>(q);
        const auto& sq = snap.suspected[i];
        const bool suspects = sq.has_value() && sq->contains(c);
        if (suspects && w.first_suspect[i] == kTimeNever) {
          w.first_suspect[i] = now;
        }
        TimeUs& since = suspect_since_[k][i];
        if (!suspects) {
          since = kTimeNever;
        } else if (since == kTimeNever) {
          since = now;
        }
      }
    }

    // Strong completeness: every process crashed by now is suspected by
    // every correct process.
    {
      bool ok = true;
      std::string why;
      for (ProcessId c : snap.crashed.members()) {
        for (ProcessId q : correct.members()) {
          const auto& sq = snap.suspected[static_cast<std::size_t>(q)];
          if (!sq.has_value() || !sq->contains(c)) {
            ok = false;
            why = pname(q) + " does not suspect crashed " + pname(c);
            break;
          }
        }
        if (!ok) break;
      }
      completeness_.update(now, ok, why);
    }

    // Eventual strong accuracy: no correct process suspected by any
    // correct process.
    {
      bool ok = true;
      std::string why;
      for (ProcessId q : correct.members()) {
        const auto& sq = snap.suspected[static_cast<std::size_t>(q)];
        if (!sq.has_value()) {
          ok = false;
          why = pname(q) + " has no suspect output";
          break;
        }
        for (ProcessId c : correct.members()) {
          if (sq->contains(c)) {
            ok = false;
            why = pname(q) + " suspects correct " + pname(c);
            break;
          }
        }
        if (!ok) break;
      }
      strong_accuracy_.update(now, ok, why);
    }

    // Eventual weak accuracy: track, per correct candidate c, the suffix
    // during which no correct process suspects c.
    {
      bool any_candidate = false;
      ProcessId suspected_everyone_witness = kNoProcess;
      for (ProcessId c : correct.members()) {
        bool clean = true;
        for (ProcessId q : correct.members()) {
          const auto& sq = snap.suspected[static_cast<std::size_t>(q)];
          if (!sq.has_value() || sq->contains(c)) {
            clean = false;
            suspected_everyone_witness = q;
            break;
          }
        }
        auto& since = unsuspected_since_[static_cast<std::size_t>(c)];
        if (clean) {
          if (since == kTimeNever) since = now;
          any_candidate = true;
        } else {
          since = kTimeNever;
        }
      }
      if (!any_candidate) {
        ++ewa_bad_samples_;
        ewa_last_bad_ = now;
        ewa_witness_ = "every correct process is suspected (last: " +
                       pname(suspected_everyone_witness) +
                       " suspects the final candidate)";
      }
    }
  }

  if (cfg_.check_leader) {
    // Leader agreement (Omega, Property 1): all correct processes trust
    // the same correct process — and keep trusting it (a change of the
    // common leader resets the suffix, so a forever-flapping Omega never
    // stabilizes even when the flaps are synchronized).
    {
      bool ok = true;
      std::string why;
      ProcessId common = kNoProcess;
      for (ProcessId q : correct.members()) {
        const auto& tq = snap.trusted[static_cast<std::size_t>(q)];
        if (!tq.has_value() || *tq == kNoProcess) {
          ok = false;
          why = pname(q) + " has no leader output";
          break;
        }
        if (common == kNoProcess) {
          common = *tq;
        } else if (*tq != common) {
          ok = false;
          why = pname(q) + " trusts " + pname(*tq) + " but " +
                pname(correct.first()) + " trusts " + pname(common);
          break;
        }
      }
      if (ok && !correct.contains(common)) {
        ok = false;
        why = "common leader " + pname(common) + " is faulty";
      }
      if (ok && prev_common_leader_ != kNoProcess &&
          common != prev_common_leader_) {
        ok = false;
        why = "common leader changed " + pname(prev_common_leader_) +
              " -> " + pname(common);
      }
      prev_common_leader_ = ok ? common : kNoProcess;
      leader_agreement_.update(now, ok, why);
    }

    // Leader stability (per process): trusted_q unchanged since the last
    // snapshot, for every correct q. Informational — subsumed by
    // agreement's permanence clause, but a far more precise witness for
    // flapping detectors.
    {
      bool ok = true;
      std::string why;
      for (ProcessId q : correct.members()) {
        const auto& tq = snap.trusted[static_cast<std::size_t>(q)];
        auto& prev = prev_trusted_[static_cast<std::size_t>(q)];
        if (prev.has_value() && tq.has_value() && *prev != *tq) {
          ok = false;
          why = pname(q) + " switched leader " + pname(*prev) + " -> " +
                pname(*tq);
        }
        prev = tq;
      }
      leader_stability_.update(now, ok, why);
    }
  }

  if (cfg_.check_suspect && cfg_.check_leader) {
    // ◇C coupling clause (Definition 1, third clause): eventually
    // trusted_p ∉ suspected_p at every correct p.
    bool ok = true;
    std::string why;
    for (ProcessId q : correct.members()) {
      const auto& tq = snap.trusted[static_cast<std::size_t>(q)];
      const auto& sq = snap.suspected[static_cast<std::size_t>(q)];
      if (!tq.has_value() || !sq.has_value()) continue;
      if (*tq != kNoProcess && sq->contains(*tq)) {
        ok = false;
        why = pname(q) + " suspects its own trusted " + pname(*tq);
        break;
      }
    }
    coupling_.update(now, ok, why);
  }
}

Verdict FdPropertyMonitor::weak_completeness() const {
  Verdict v;
  v.property = "fd.weak_completeness";
  v.eventual = true;
  v.required = true;
  for (std::size_t k = 0; k < detections_.size(); ++k) {
    TimeUs best = kTimeNever;
    ProcessId witness = kNoProcess;
    for (ProcessId q : cfg_.correct.members()) {
      const TimeUs since = suspect_since_[k][static_cast<std::size_t>(q)];
      if (since < best) {
        best = since;
        witness = q;
      }
    }
    if (witness == kNoProcess) {
      v.state = VerdictState::kPending;
      v.violated_at = last_time_;
      v.witness = "no correct process suspects crashed " +
                  pname(detections_[k].victim);
      return v;
    }
    v.holds_since = std::max(v.holds_since, best);
  }
  return v;
}

std::vector<Verdict> FdPropertyMonitor::verdicts() const {
  std::vector<Verdict> out;
  if (cfg_.check_suspect) {
    out.push_back(completeness_.verdict("fd.strong_completeness", true));

    // Eventual weak accuracy: the earliest clean suffix over candidates.
    Verdict ewa;
    ewa.property = "fd.eventual_weak_accuracy";
    ewa.eventual = true;
    ewa.required = true;
    ewa.violations = ewa_bad_samples_;
    ProcessId best = kNoProcess;
    TimeUs best_since = kTimeNever;
    for (ProcessId c : cfg_.correct.members()) {
      const TimeUs since = unsuspected_since_[static_cast<std::size_t>(c)];
      if (since < best_since) {
        best_since = since;
        best = c;
      }
    }
    if (best == kNoProcess) {
      ewa.state = VerdictState::kPending;
      ewa.violated_at = ewa_last_bad_;
      ewa.witness = ewa_witness_.empty()
                        ? std::string("no unsuspected correct candidate")
                        : ewa_witness_;
    } else {
      ewa.state = VerdictState::kHolding;
      ewa.holds_since = best_since;
      ewa.witness = "witness " + pname(best);
    }
    out.push_back(ewa);

    out.push_back(strong_accuracy_.verdict("fd.eventual_strong_accuracy",
                                           cfg_.require_strong_accuracy));
  }
  if (cfg_.check_leader) {
    out.push_back(leader_agreement_.verdict("fd.leader_agreement", true));
    out.push_back(leader_stability_.verdict("fd.leader_stability", false));
  }
  if (cfg_.check_suspect && cfg_.check_leader) {
    out.push_back(coupling_.verdict("fd.coupling", true));
  }
  return out;
}

}  // namespace ecfd::check
