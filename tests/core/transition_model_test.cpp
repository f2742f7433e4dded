#include "core/transition_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "math/distributions.hpp"
#include "util/expects.hpp"

namespace veritas::core {
namespace {

namespace sk = math::simd_kernels;

/// Largest Δ the first-use tests look up: past the default 64-slot
/// window, so the overflow memo is covered too.
constexpr std::size_t kMaxTestDelta = 80;

TransitionModel default_window_model(std::size_t states = 7) {
  TransitionModel m = TransitionModel::tridiagonal(states);
  m.precompute_powers(64);
  return m;
}

/// All four padded layouts of two views, pad columns included, compared
/// bit for bit.
void expect_views_bit_identical(const sk::DeltaTables& a,
                                const sk::DeltaTables& b, std::size_t k,
                                std::size_t delta) {
  ASSERT_EQ(a.stride, b.stride);
  const std::size_t bytes = k * a.stride * sizeof(double);
  EXPECT_EQ(std::memcmp(a.p, b.p, bytes), 0) << "p, delta " << delta;
  EXPECT_EQ(std::memcmp(a.t, b.t, bytes), 0) << "t, delta " << delta;
  EXPECT_EQ(std::memcmp(a.log_p, b.log_p, bytes), 0)
      << "log_p, delta " << delta;
  EXPECT_EQ(std::memcmp(a.log_t, b.log_t, bytes), 0)
      << "log_t, delta " << delta;
}

TEST(TransitionModel, TridiagonalStructure) {
  const TransitionModel m = TransitionModel::tridiagonal(5, 0.8);
  const math::Matrix& a = m.matrix();
  EXPECT_TRUE(a.is_row_stochastic(1e-12));
  // Interior row: stay 0.8, each neighbour 0.1, others 0.
  EXPECT_DOUBLE_EQ(a(2, 2), 0.8);
  EXPECT_DOUBLE_EQ(a(2, 1), 0.1);
  EXPECT_DOUBLE_EQ(a(2, 3), 0.1);
  EXPECT_DOUBLE_EQ(a(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(a(2, 4), 0.0);
}

TEST(TransitionModel, TridiagonalBoundaryRenormalized) {
  const TransitionModel m = TransitionModel::tridiagonal(5, 0.8);
  const math::Matrix& a = m.matrix();
  EXPECT_DOUBLE_EQ(a(0, 0), 0.9);  // absorbs the missing left step
  EXPECT_DOUBLE_EQ(a(0, 1), 0.1);
  EXPECT_DOUBLE_EQ(a(4, 4), 0.9);
  EXPECT_DOUBLE_EQ(a(4, 3), 0.1);
}

TEST(TransitionModel, UniformInitialDistribution) {
  const TransitionModel m = TransitionModel::tridiagonal(4);
  for (const double u : m.initial()) EXPECT_DOUBLE_EQ(u, 0.25);
}

TEST(TransitionModel, UniformPrior) {
  const TransitionModel m = TransitionModel::uniform(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(m.matrix()(i, j), 0.25);
    }
  }
}

TEST(TransitionModel, BandedStructure) {
  const TransitionModel m = TransitionModel::banded(7, 2, 0.5);
  const math::Matrix& a = m.matrix();
  EXPECT_TRUE(a.is_row_stochastic(1e-12));
  EXPECT_DOUBLE_EQ(a(3, 0), 0.0);  // outside band
  EXPECT_GT(a(3, 3), a(3, 4));     // decays off-diagonal
  EXPECT_GT(a(3, 4), a(3, 5));
  EXPECT_NEAR(a(3, 2), a(3, 4), 1e-12);  // symmetric
}

TEST(TransitionModel, PowerZeroIsIdentity) {
  const TransitionModel m = TransitionModel::tridiagonal(4);
  EXPECT_DOUBLE_EQ(m.power(0).max_abs_diff(math::Matrix::identity(4)), 0.0);
}

TEST(TransitionModel, PowerOneIsMatrix) {
  const TransitionModel m = TransitionModel::tridiagonal(4);
  EXPECT_DOUBLE_EQ(m.power(1).max_abs_diff(m.matrix()), 0.0);
}

TEST(TransitionModel, PowersConsistent) {
  const TransitionModel m = TransitionModel::tridiagonal(6);
  const math::Matrix a2 = m.matrix() * m.matrix();
  EXPECT_LT(m.power(2).max_abs_diff(a2), 1e-12);
  const math::Matrix a5 = a2 * a2 * m.matrix();
  EXPECT_LT(m.power(5).max_abs_diff(a5), 1e-12);
}

TEST(TransitionModel, PowerCacheReturnsSameObject) {
  const TransitionModel m = TransitionModel::tridiagonal(4);
  const math::Matrix& first = m.power(7);
  const math::Matrix& second = m.power(7);
  EXPECT_EQ(&first, &second);
}

TEST(TransitionModel, CustomMatrixValidated) {
  math::Matrix bad(2, 2, 0.7);  // rows sum to 1.4
  EXPECT_THROW(TransitionModel(bad, {0.5, 0.5}), veritas::ContractViolation);
  math::Matrix good = math::Matrix::from_rows({{0.5, 0.5}, {0.3, 0.7}});
  EXPECT_THROW(TransitionModel(good, {0.9, 0.9}),  // initial not normalized
               veritas::ContractViolation);
  EXPECT_NO_THROW(TransitionModel(good, {0.5, 0.5}));
}

TEST(TransitionModel, HighStayProbabilityConcentratesPower) {
  // With stay = 0.98, A^3 still keeps most mass on the diagonal.
  const TransitionModel m = TransitionModel::tridiagonal(9, 0.98);
  const math::Matrix& p = m.power(3);
  EXPECT_GT(p(4, 4), 0.9);
}

TEST(TransitionModel, PrecomputedPowersMatchFallbackBitExactly) {
  TransitionModel slotted = TransitionModel::tridiagonal(6);
  slotted.precompute_powers(16);
  EXPECT_EQ(slotted.precomputed_powers(), 17u);
  const TransitionModel memoized = TransitionModel::tridiagonal(6);
  for (std::size_t delta = 0; delta <= 20; ++delta) {
    EXPECT_EQ(slotted.power(delta).max_abs_diff(memoized.power(delta)), 0.0)
        << "delta " << delta;
  }
}

TEST(TransitionModel, PowerViewLayoutsAreConsistent) {
  TransitionModel m = TransitionModel::tridiagonal(5);
  m.precompute_powers(4);
  // Slot deltas and deltas beyond the slots (served from the memo) get
  // the same padded layouts.
  for (const std::size_t delta : {0u, 1u, 2u, 3u, 4u, 9u, 40u}) {
    const math::simd_kernels::DeltaTables view = m.power_view(delta);
    ASSERT_NE(view.p, nullptr);
    ASSERT_NE(view.t, nullptr);
    ASSERT_NE(view.log_p, nullptr);
    ASSERT_NE(view.log_t, nullptr);
    ASSERT_EQ(view.stride, math::padded_cols(5));
    const math::Matrix& p = m.power(delta);
    ASSERT_EQ(view.p, p.row_data(0));
    for (std::size_t i = 0; i < 5; ++i) {
      for (std::size_t j = 0; j < 5; ++j) {
        EXPECT_EQ(view.t[i * view.stride + j], p(j, i));
        EXPECT_EQ(view.log_p[i * view.stride + j], math::safe_log(p(i, j)));
        EXPECT_EQ(view.log_t[i * view.stride + j], math::safe_log(p(j, i)));
      }
      for (std::size_t j = 5; j < view.stride; ++j) {
        EXPECT_EQ(view.p[i * view.stride + j], 0.0);
        EXPECT_EQ(view.t[i * view.stride + j], 0.0);
        EXPECT_EQ(view.log_p[i * view.stride + j], math::kNegInf);
        EXPECT_EQ(view.log_t[i * view.stride + j], math::kNegInf);
      }
    }
  }
  EXPECT_EQ(m.precomputed_powers(), 5u);
}

TEST(TransitionModel, PrecomputeIsIdempotentAndOnlyGrows) {
  TransitionModel m = TransitionModel::tridiagonal(4);
  m.precompute_powers(8);
  const math::Matrix* before = &m.power(5);
  m.precompute_powers(4);  // no-op: table already larger
  EXPECT_EQ(m.precomputed_powers(), 9u);
  EXPECT_EQ(&m.power(5), before);
  m.precompute_powers(12);
  EXPECT_EQ(m.precomputed_powers(), 13u);
}

TEST(TransitionModel, ConcurrentOverflowLookupsAreSafeAndStable) {
  // Many threads hammer deltas beyond the slot array; every returned
  // reference must stay valid and correct (the memo is mutex-guarded and
  // std::map nodes are stable).
  TransitionModel m = TransitionModel::tridiagonal(5);
  m.precompute_powers(2);
  const math::Matrix expected = math::matrix_power(m.matrix(), 33);
  std::vector<std::thread> threads;
  std::vector<double> worst(8, 1.0);
  for (std::size_t t = 0; t < worst.size(); ++t) {
    threads.emplace_back([&, t] {
      double local = 0.0;
      for (std::size_t delta = 30; delta < 40; ++delta) {
        const math::Matrix& p = m.power(delta);
        if (delta == 33) local = std::max(local, p.max_abs_diff(expected));
      }
      worst[t] = local;
    });
  }
  for (auto& thread : threads) thread.join();
  for (const double w : worst) EXPECT_EQ(w, 0.0);
}

TEST(TransitionModel, SharedLockHitsCoexistWithFirstComputeWriters) {
  // The read-mostly overflow memo (PR 7): half the threads hammer a
  // pre-warmed delta through the shared-lock fast path while the other
  // half race to first-compute fresh deltas under the exclusive lock.
  // Every reference must stay valid across the writers' insertions
  // (std::map node stability) and every matrix must be exact.
  TransitionModel m = TransitionModel::tridiagonal(6);
  m.precompute_powers(2);
  const math::Matrix warm_expected = math::matrix_power(m.matrix(), 50);
  const math::Matrix& warm = m.power(50);  // memoize before the storm
  ASSERT_EQ(warm.max_abs_diff(warm_expected), 0.0);

  std::vector<std::thread> threads;
  std::vector<double> worst(8, 1.0);
  for (std::size_t t = 0; t < worst.size(); ++t) {
    threads.emplace_back([&, t] {
      double local = 0.0;
      if (t % 2 == 0) {
        // Reader lane: repeated hits on the warm delta; the reference
        // taken before the writers started must keep reading correctly.
        for (int round = 0; round < 200; ++round) {
          local = std::max(local, m.power(50).max_abs_diff(warm_expected));
          local = std::max(local, warm.max_abs_diff(warm_expected));
        }
      } else {
        // Writer lane: unique fresh deltas per thread, so every thread
        // takes the exclusive first-compute path at least once.
        for (std::size_t delta = 60 + t * 10; delta < 60 + t * 10 + 10;
             ++delta) {
          const math::Matrix& p = m.power(delta);
          local = std::max(
              local, p.max_abs_diff(math::matrix_power(m.matrix(), delta)));
        }
      }
      worst[t] = local;
    });
  }
  for (auto& thread : threads) thread.join();
  for (const double w : worst) EXPECT_EQ(w, 0.0);
}

TEST(TransitionModel, CopyPreservesDenseTableAndIndependence) {
  TransitionModel original = TransitionModel::tridiagonal(4);
  original.precompute_powers(6);
  const TransitionModel copy = original;
  EXPECT_EQ(copy.precomputed_powers(), 7u);
  EXPECT_EQ(copy.power(5).max_abs_diff(original.power(5)), 0.0);
  // Distinct storage: the copy serves its own matrices.
  EXPECT_NE(&copy.power(5), &original.power(5));
}

TEST(TransitionModel, FirstUseOrderIndependent) {
  // make_entry depends only on A and Δ, so the order in which a model
  // first builds its entries cannot change them.
  std::vector<std::size_t> shuffled(kMaxTestDelta + 1);
  std::iota(shuffled.begin(), shuffled.end(), std::size_t{0});
  std::mt19937_64 rng(20);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  const TransitionModel by_shuffle = default_window_model();
  for (const std::size_t delta : shuffled) (void)by_shuffle.power_view(delta);
  const TransitionModel ascending = default_window_model();
  for (std::size_t delta = 0; delta <= kMaxTestDelta; ++delta) {
    expect_views_bit_identical(by_shuffle.power_view(delta),
                               ascending.power_view(delta),
                               ascending.states(), delta);
  }
}

TEST(TransitionModel, ConcurrentFirstUse) {
  // 4 threads race first use of every Δ (slot and overflow range) on a
  // fresh model: each slot is published once, so every thread must see
  // the same storage, and the racing losers' copies must be freed. A
  // larger k makes each build slow enough for the threads to collide.
  const TransitionModel m = default_window_model(41);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<sk::DeltaTables>> seen(kThreads);
  std::atomic<std::size_t> started{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together so the first uses really race, and alternate
      // directions so threads collide on both ends.
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (std::size_t i = 0; i <= kMaxTestDelta; ++i) {
        const std::size_t delta = t % 2 == 0 ? i : kMaxTestDelta - i;
        seen[t].push_back(m.power_view(delta));
      }
      if (t % 2 == 1) std::reverse(seen[t].begin(), seen[t].end());
    });
  }
  for (auto& thread : threads) thread.join();

  const TransitionModel reference = default_window_model(41);
  for (std::size_t delta = 0; delta <= kMaxTestDelta; ++delta) {
    const sk::DeltaTables& first = seen[0][delta];
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][delta].p, first.p) << "delta " << delta;
      EXPECT_EQ(seen[t][delta].t, first.t) << "delta " << delta;
      EXPECT_EQ(seen[t][delta].log_p, first.log_p) << "delta " << delta;
      EXPECT_EQ(seen[t][delta].log_t, first.log_t) << "delta " << delta;
    }
    expect_views_bit_identical(first, reference.power_view(delta),
                               m.states(), delta);
  }
}

TEST(TransitionModel, CopyAndMoveOfPartlyFilledModelKeepViews) {
  // Build a few slot entries and one overflow entry, leave the rest
  // empty; a copy gets its own storage with the same contents (and
  // builds the missing entries identically), a move keeps the storage.
  TransitionModel original = default_window_model();
  const std::vector<std::size_t> built = {0, 2, 5, 63, 70};
  for (const std::size_t delta : built) (void)original.power_view(delta);

  const TransitionModel copy = original;
  EXPECT_EQ(copy.precomputed_powers(), original.precomputed_powers());
  for (std::size_t delta = 0; delta <= kMaxTestDelta; ++delta) {
    const sk::DeltaTables from_copy = copy.power_view(delta);
    const sk::DeltaTables from_original = original.power_view(delta);
    EXPECT_NE(from_copy.p, from_original.p) << "delta " << delta;
    expect_views_bit_identical(from_copy, from_original, copy.states(),
                               delta);
  }

  TransitionModel source = default_window_model();
  std::vector<sk::DeltaTables> before;
  for (const std::size_t delta : built) {
    before.push_back(source.power_view(delta));
  }
  const TransitionModel moved = std::move(source);
  EXPECT_EQ(moved.precomputed_powers(), 65u);
  // A moved-from model keeps no slots.
  EXPECT_EQ(source.precomputed_powers(), 0u);
  for (std::size_t i = 0; i < built.size(); ++i) {
    const sk::DeltaTables after = moved.power_view(built[i]);
    EXPECT_EQ(after.p, before[i].p) << "delta " << built[i];
    expect_views_bit_identical(after, original.power_view(built[i]),
                               moved.states(), built[i]);
  }

  TransitionModel assigned = TransitionModel::tridiagonal(7);
  assigned.precompute_powers(4);
  (void)assigned.power_view(1);  // freed by the assignment below
  assigned = copy;
  for (std::size_t delta = 0; delta <= kMaxTestDelta; ++delta) {
    expect_views_bit_identical(assigned.power_view(delta),
                               original.power_view(delta), copy.states(),
                               delta);
  }
}

}  // namespace
}  // namespace veritas::core
