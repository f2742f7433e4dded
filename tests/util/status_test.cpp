#include "util/status.hpp"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <utility>

namespace veritas {
namespace {

TEST(Status, DefaultIsOk) {
  const Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_TRUE(status.message().empty());
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status rejected = Status::rejected("queue full");
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kRejected);
  EXPECT_EQ(rejected.message(), "queue full");
  EXPECT_EQ(rejected.to_string(), "rejected: queue full");

  EXPECT_EQ(Status::not_found("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::internal("x").code(), StatusCode::kInternal);
}

TEST(Status, CodeNamesAreStable) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "ok");
  EXPECT_STREQ(status_code_name(StatusCode::kRejected), "rejected");
  EXPECT_STREQ(status_code_name(StatusCode::kNotFound), "not_found");
  EXPECT_STREQ(status_code_name(StatusCode::kInternal), "internal");
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::rejected("a"), Status::rejected("a"));
  EXPECT_NE(Status::rejected("a"), Status::rejected("b"));
  EXPECT_NE(Status::rejected("a"), Status::internal("a"));
}

TEST(Expected, HoldsValue) {
  Expected<int> expected(42);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(static_cast<bool>(expected));
  EXPECT_EQ(expected.value(), 42);
  EXPECT_EQ(*expected, 42);
  EXPECT_TRUE(expected.status().ok());
  EXPECT_EQ(expected.value_or(0), 42);
}

TEST(Expected, HoldsError) {
  const Expected<int> expected(Status::rejected("shutting down"));
  EXPECT_FALSE(expected.ok());
  EXPECT_FALSE(static_cast<bool>(expected));
  EXPECT_EQ(expected.status().code(), StatusCode::kRejected);
  EXPECT_EQ(expected.value_or(-1), -1);
}

TEST(Expected, ValueOnErrorThrowsWithStatusText) {
  const Expected<int> expected(Status::internal("inference failed"));
  try {
    (void)expected.value();
    FAIL() << "value() on error must throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("internal"), std::string::npos);
    EXPECT_NE(what.find("inference failed"), std::string::npos);
  }
}

TEST(Expected, OkStatusIsAContractViolation) {
  EXPECT_THROW(Expected<int>(Status::ok_status()), ContractViolation);
}

TEST(Expected, ArrowReachesMembers) {
  struct Payload {
    int x = 7;
  };
  Expected<Payload> expected(Payload{});
  EXPECT_EQ(expected->x, 7);
}

TEST(Expected, MovesThroughFutures) {
  // The exact shape the service relies on: promise/future transport of
  // both arms without ever breaking a promise.
  std::promise<Expected<std::string>> ok_promise;
  auto ok_future = ok_promise.get_future();
  ok_promise.set_value(Expected<std::string>(std::string("payload")));
  EXPECT_EQ(ok_future.get().value(), "payload");

  std::promise<Expected<std::string>> err_promise;
  auto err_future = err_promise.get_future();
  err_promise.set_value(Expected<std::string>(Status::rejected("full")));
  const Expected<std::string> result = err_future.get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status(), Status::rejected("full"));
}

TEST(Expected, MoveOutValue) {
  Expected<std::string> expected(std::string("long enough to allocate"));
  const std::string taken = std::move(expected).value();
  EXPECT_EQ(taken, "long enough to allocate");
}

}  // namespace
}  // namespace veritas
