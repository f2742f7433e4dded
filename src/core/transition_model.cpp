#include "core/transition_model.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "math/distributions.hpp"
#include "util/expects.hpp"

namespace veritas::core {

TransitionModel::TransitionModel(math::Matrix a, std::vector<double> initial)
    : a_(std::move(a)), initial_(std::move(initial)) {
  VERITAS_EXPECTS(a_.rows() == a_.cols());
  VERITAS_EXPECTS(a_.is_row_stochastic(1e-6));
  VERITAS_EXPECTS(initial_.size() == a_.rows());
  double sum = 0.0;
  for (const double p : initial_) {
    VERITAS_EXPECTS(p >= 0.0);
    sum += p;
  }
  VERITAS_EXPECTS(sum > 0.999 && sum < 1.001);
}

TransitionModel::TransitionModel(const TransitionModel& other)
    : a_(other.a_), initial_(other.initial_), slots_(other.slots_.size()) {
  // Only the entries already built; a throw here frees the copied ones
  // through slots_'s destructor.
  for (std::size_t delta = 0; delta < slots_.size(); ++delta) {
    if (const PowerEntry* e =
            other.slots_[delta].load(std::memory_order_acquire)) {
      slots_[delta].store(new PowerEntry(*e), std::memory_order_relaxed);
    }
  }
  const std::shared_lock lock(other.overflow_mutex_);
  overflow_ = other.overflow_;
}

TransitionModel::TransitionModel(TransitionModel&& other) noexcept
    : a_(std::move(other.a_)),
      initial_(std::move(other.initial_)),
      slots_(std::move(other.slots_)) {
  // No lock: moving from a model concurrently served to other threads is
  // a caller bug regardless of the memo.
  overflow_ = std::move(other.overflow_);
}

TransitionModel& TransitionModel::operator=(const TransitionModel& other) {
  if (this == &other) return *this;
  TransitionModel copy(other);
  *this = std::move(copy);
  return *this;
}

TransitionModel& TransitionModel::operator=(TransitionModel&& other) noexcept {
  if (this == &other) return *this;
  a_ = std::move(other.a_);
  initial_ = std::move(other.initial_);
  slots_ = std::move(other.slots_);
  overflow_ = std::move(other.overflow_);
  return *this;
}

TransitionModel TransitionModel::tridiagonal(std::size_t states,
                                             double stay_prob) {
  VERITAS_EXPECTS(states >= 2);
  VERITAS_EXPECTS(stay_prob > 0.0 && stay_prob < 1.0);
  math::Matrix a(states, states, 0.0);
  const double step = (1.0 - stay_prob) / 2.0;
  for (std::size_t i = 0; i < states; ++i) {
    a(i, i) = stay_prob;
    if (i > 0) a(i, i - 1) = step;
    if (i + 1 < states) a(i, i + 1) = step;
    // Renormalize boundary rows.
    double row_sum = a(i, i);
    if (i > 0) row_sum += step;
    if (i + 1 < states) row_sum += step;
    a(i, i) += 1.0 - row_sum;
  }
  return TransitionModel(std::move(a),
                         std::vector<double>(states, 1.0 / double(states)));
}

TransitionModel TransitionModel::uniform(std::size_t states) {
  VERITAS_EXPECTS(states >= 2);
  const double p = 1.0 / static_cast<double>(states);
  return TransitionModel(math::Matrix(states, states, p),
                         std::vector<double>(states, p));
}

TransitionModel TransitionModel::banded(std::size_t states, std::size_t band,
                                        double decay) {
  VERITAS_EXPECTS(states >= 2);
  VERITAS_EXPECTS(band >= 1);
  VERITAS_EXPECTS(decay > 0.0 && decay < 1.0);
  math::Matrix a(states, states, 0.0);
  for (std::size_t i = 0; i < states; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < states; ++j) {
      const auto distance = i > j ? i - j : j - i;
      if (distance <= band) {
        a(i, j) = std::pow(decay, static_cast<double>(distance));
        row_sum += a(i, j);
      }
    }
    for (std::size_t j = 0; j < states; ++j) a(i, j) /= row_sum;
  }
  return TransitionModel(std::move(a),
                         std::vector<double>(states, 1.0 / double(states)));
}

TransitionModel::PowerEntry TransitionModel::make_entry(
    std::size_t delta) const {
  const std::size_t k = states();
  const math::Matrix power = math::matrix_power(a_, delta);
  // Padded copy: logical entries from `power` (optionally transposed),
  // pads filled with the operation's neutral element so SIMD kernels can
  // load full lanes past column k.
  const auto padded = [k, &power](bool transpose, bool log_of,
                                  double fill) {
    math::Matrix out;
    out.resize_padded(k, k, fill);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        const double v = transpose ? power(j, i) : power(i, j);
        out(i, j) = log_of ? math::safe_log(v) : v;
      }
    }
    return out;
  };
  PowerEntry entry;
  entry.p = padded(false, false, 0.0);
  entry.transposed = padded(true, false, 0.0);
  entry.log_p = padded(false, true, math::kNegInf);
  entry.log_transposed = padded(true, true, math::kNegInf);
  return entry;
}

void TransitionModel::precompute_powers(std::size_t max_delta) {
  if (slots_.size() > max_delta) return;
  PowerSlots grown(max_delta + 1);
  for (std::size_t delta = 0; delta < slots_.size(); ++delta) {
    grown[delta].store(slots_[delta].exchange(nullptr),
                       std::memory_order_relaxed);
  }
  slots_ = std::move(grown);
}

const TransitionModel::PowerEntry& TransitionModel::entry(
    std::size_t delta) const {
  if (delta < slots_.size()) {
    std::atomic<const PowerEntry*>& slot = slots_[delta];
    const PowerEntry* e = slot.load(std::memory_order_acquire);
    if (e != nullptr) return *e;
    // First use: build outside any lock and publish. A racing thread
    // that published first wins; its entry is identical (make_entry
    // depends only on a_ and delta), so drop ours and serve its.
    auto fresh = std::make_unique<const PowerEntry>(make_entry(delta));
    if (slot.compare_exchange_strong(e, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return *fresh.release();
    }
    return *e;
  }
  // Read-mostly fast path: after a gap length is memoized once, every
  // later lookup shares the lock, so concurrent lanes replaying long-gap
  // sessions don't serialize. std::map node stability keeps the returned
  // reference valid across later insertions by other threads.
  {
    const std::shared_lock lock(overflow_mutex_);
    const auto it = overflow_.find(delta);
    if (it != overflow_.end()) return it->second;
  }
  const std::unique_lock lock(overflow_mutex_);
  // Re-check: another thread may have computed this delta between the
  // two locks; emplace would discard its (identical) entry anyway, but
  // skipping the O(k³ log Δ) matrix_power is the point.
  const auto it = overflow_.find(delta);
  if (it != overflow_.end()) return it->second;
  const auto [inserted, ok] = overflow_.emplace(delta, make_entry(delta));
  VERITAS_ENSURES(ok);
  return inserted->second;
}

const math::Matrix& TransitionModel::power(std::size_t delta) const {
  return entry(delta).p;
}

math::simd_kernels::DeltaTables TransitionModel::power_view(
    std::size_t delta) const {
  const PowerEntry& e = entry(delta);
  math::simd_kernels::DeltaTables tables;
  tables.p = e.p.row_data(0);
  tables.t = e.transposed.row_data(0);
  tables.log_p = e.log_p.row_data(0);
  tables.log_t = e.log_transposed.row_data(0);
  tables.stride = e.p.col_stride();
  return tables;
}

}  // namespace veritas::core
