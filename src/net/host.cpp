#include "net/host.hpp"

#include <cassert>
#include <utility>

namespace ecfd {

void Host::add_protocol(std::unique_ptr<Protocol> proto) {
  assert(proto != nullptr);
  assert(!started_ && "register protocols before start()");
  const bool inserted =
      by_id_.emplace(proto->protocol_id(), proto.get()).second;
  assert(inserted && "duplicate protocol id on host");
  (void)inserted;
  owned_.push_back(std::move(proto));
}

void Host::start() {
  started_ = true;
  for (auto& p : owned_) p->start();
}

void InjectableHost::set_gray(std::uint32_t factor_milli, DurUs send_extra) {
  if (crashed()) return;
  assert(factor_milli > 0 && "gray factor must be positive");
  gray_factor_milli_.store(factor_milli, std::memory_order_release);
  gray_send_extra_.store(send_extra, std::memory_order_release);
}

void InjectableHost::set_clock_skew(std::int64_t offset_us,
                                    std::int32_t drift_ppm, DurUs bound_us) {
  if (crashed()) return;
  assert(drift_ppm > -1'000'000 && "clock cannot run backwards");
  skew_offset_.store(offset_us, std::memory_order_relaxed);
  skew_drift_ppm_.store(drift_ppm, std::memory_order_relaxed);
  skew_bound_.store(bound_us, std::memory_order_relaxed);
  skew_since_.store(fabric_now(), std::memory_order_relaxed);
  skew_active_.store(offset_us != 0 || drift_ppm != 0,
                     std::memory_order_release);
}

}  // namespace ecfd
