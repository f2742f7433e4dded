#include "util/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

namespace veritas::util {
namespace {

using namespace std::chrono_literals;

TEST(BoundedQueue, Fifo) {
  BoundedQueue<int> queue(8);
  for (const int v : {10, 20, 0, 11, 1}) EXPECT_TRUE(queue.push(int{v}));
  for (const int v : {10, 20, 0, 11, 1}) EXPECT_EQ(queue.pop().value(), v);
}

TEST(BoundedQueue, TryPushRespectsCapacity) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.capacity(), 2u);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_TRUE(queue.try_push(3));
}

TEST(BoundedQueue, FailedPushLeavesTheValueUntouched) {
  BoundedQueue<std::shared_ptr<int>> queue(1);
  ASSERT_TRUE(queue.push(std::make_shared<int>(1)));
  std::shared_ptr<int> value = std::make_shared<int>(2);
  EXPECT_FALSE(queue.try_push(std::move(value)));  // full
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 2);
  queue.close();
  EXPECT_FALSE(queue.push(std::move(value)));  // closed
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 2);
}

TEST(BoundedQueue, PushBlocksUntilRoomAppears) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.push(1));
  std::thread popper([&queue] {
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(queue.pop().value(), 1);
  });
  EXPECT_TRUE(queue.push(2));  // waits for the popper
  popper.join();
  EXPECT_EQ(queue.pop().value(), 2);
}

TEST(BoundedQueue, CloseDrainsAcceptedWork) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  queue.close();
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.pop().value(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueue, CloseFailsPushesAndWakesWaiters) {
  BoundedQueue<int> full(1);
  ASSERT_TRUE(full.push(1));
  BoundedQueue<int> empty(1);
  std::thread producer([&full] { EXPECT_FALSE(full.push(2)); });
  std::thread consumer([&empty] { EXPECT_EQ(empty.pop(), std::nullopt); });
  std::this_thread::sleep_for(20ms);
  full.close();
  empty.close();
  producer.join();
  consumer.join();
  EXPECT_EQ(full.pop().value(), 1);  // accepted before close: drained
  EXPECT_FALSE(full.try_push(3));
}

TEST(BoundedQueue, ManyProducersManyConsumersDeliverEachOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 400;
  BoundedQueue<int> queue(8);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.push(p * kPerProducer + i));
      }
    });
  }

  std::mutex seen_mutex;
  std::set<int> seen;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (const auto value = queue.pop()) {
        const std::lock_guard<std::mutex> lock(seen_mutex);
        EXPECT_TRUE(seen.insert(*value).second) << "duplicate " << *value;
      }
    });
  }

  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.size(), std::size_t{kProducers} * kPerProducer);
}

TEST(BoundedQueue, MoveOnlyPayload) {
  BoundedQueue<std::unique_ptr<int>> queue(2);
  EXPECT_TRUE(queue.push(std::make_unique<int>(42)));
  const auto value = queue.pop();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(**value, 42);
}

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>(0), ContractViolation);
}

}  // namespace
}  // namespace veritas::util
