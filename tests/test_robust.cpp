/// Tests for the serving-layer robustness stack: the Status/StatusOr
/// error taxonomy, cooperative cancellation, the deterministic fault
/// injector, request deadlines + admission control on the executor, and
/// the RobustPermuteService degradation ladder (including the chaos
/// acceptance scenario: 30% plan-build failures, zero incorrect
/// responses, zero aborts).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/permuter.hpp"
#include "core/plan_io.hpp"
#include "perm/generators.hpp"
#include "runtime/cancel.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/metrics.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/service.hpp"
#include "runtime/status.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"

namespace hmm {
namespace {

using namespace std::chrono_literals;
using runtime::Status;
using runtime::StatusCode;
using runtime::StatusOr;

// ------------------------------------------------------------------- status

TEST(Status, DefaultIsOkAndCarriesNoMessage) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
  EXPECT_EQ(s, Status::ok());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s(StatusCode::kDeadlineExceeded, "queued past the request deadline");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.to_string(), "DEADLINE_EXCEEDED: queued past the request deadline");
}

TEST(Status, CodeNamesAreStable) {
  EXPECT_EQ(runtime::to_string(StatusCode::kOk), "OK");
  EXPECT_EQ(runtime::to_string(StatusCode::kInvalidArgument), "INVALID_ARGUMENT");
  EXPECT_EQ(runtime::to_string(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
  EXPECT_EQ(runtime::to_string(StatusCode::kPlanBuildFailed), "PLAN_BUILD_FAILED");
  EXPECT_EQ(runtime::to_string(StatusCode::kCancelled), "CANCELLED");
  EXPECT_EQ(runtime::to_string(StatusCode::kUnavailable), "UNAVAILABLE");
}

TEST(Status, TransientTaxonomyDrivesRetryPolicy) {
  EXPECT_TRUE(runtime::is_transient(StatusCode::kPlanBuildFailed));
  EXPECT_TRUE(runtime::is_transient(StatusCode::kUnavailable));
  EXPECT_TRUE(runtime::is_transient(StatusCode::kResourceExhausted));
  EXPECT_FALSE(runtime::is_transient(StatusCode::kInvalidArgument));
  EXPECT_FALSE(runtime::is_transient(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(runtime::is_transient(StatusCode::kCancelled));
}

TEST(StatusOr, HoldsValueOrError) {
  StatusOr<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);

  StatusOr<int> bad(Status(StatusCode::kUnavailable, "nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kUnavailable);
}

TEST(StatusOr, WorksWithMoveOnlyAndNonDefaultConstructibleTypes) {
  struct NoDefault {
    explicit NoDefault(int x) : v(x) {}
    int v;
  };
  StatusOr<NoDefault> got(NoDefault(3));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().v, 3);

  StatusOr<std::unique_ptr<int>> moved(std::make_unique<int>(9));
  ASSERT_TRUE(moved.ok());
  std::unique_ptr<int> out = std::move(moved).value();
  EXPECT_EQ(*out, 9);
}

// ------------------------------------------------------------------- cancel

TEST(Cancel, DefaultTokenCanNeverFire) {
  runtime::CancelToken token;
  EXPECT_FALSE(token.can_be_cancelled());
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancel, SourceFiresEveryToken) {
  runtime::CancelSource source;
  runtime::CancelToken token = source.token();
  runtime::CancelToken copy = token;
  EXPECT_TRUE(token.can_be_cancelled());
  EXPECT_FALSE(token.cancelled());
  source.request_cancel();
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
  source.request_cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

// ------------------------------------------------------------- fault injector

TEST(FaultInjector, DisarmedChecksNeverFireOrCount) {
  auto& faults = runtime::FaultInjector::instance();
  faults.disarm();
  EXPECT_FALSE(faults.armed());
  EXPECT_FALSE(faults.should_fire("some.site"));
  EXPECT_EQ(faults.checks("some.site"), 0u);
  EXPECT_EQ(faults.total_fired(), 0u);
}

TEST(FaultInjector, RateZeroStaysDisarmedRateOneAlwaysFires) {
  {
    // A zero rate never arms: checks stay on the one-atomic-load fast
    // path and no counters accrue.
    runtime::ScopedFaultInjection chaos({.seed = 11, .rate = 0.0, .sites = {}});
    auto& faults = runtime::FaultInjector::instance();
    EXPECT_FALSE(faults.armed());
    for (int i = 0; i < 64; ++i) EXPECT_FALSE(faults.should_fire("site.a"));
    EXPECT_EQ(faults.checks("site.a"), 0u);
    EXPECT_EQ(faults.fired("site.a"), 0u);
  }
  {
    runtime::ScopedFaultInjection chaos({.seed = 11, .rate = 1.0, .sites = {}});
    auto& faults = runtime::FaultInjector::instance();
    for (int i = 0; i < 64; ++i) EXPECT_TRUE(faults.should_fire("site.a"));
    EXPECT_EQ(faults.fired("site.a"), 64u);
  }
}

TEST(FaultInjector, SameSeedReplaysTheSamePattern) {
  auto pattern = [](std::uint64_t seed) {
    runtime::ScopedFaultInjection chaos({.seed = seed, .rate = 0.5, .sites = {}});
    auto& faults = runtime::FaultInjector::instance();
    std::vector<bool> fired;
    for (int i = 0; i < 128; ++i) fired.push_back(faults.should_fire("site.x"));
    return fired;
  };
  const std::vector<bool> a = pattern(42);
  const std::vector<bool> b = pattern(42);
  const std::vector<bool> c = pattern(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed, different chaos (2^-128 flake odds)
  // Rate 0.5 should actually mix fires and non-fires.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjector, SitesAreIndependentStreams) {
  runtime::ScopedFaultInjection chaos({.seed = 9, .rate = 0.5, .sites = {}});
  auto& faults = runtime::FaultInjector::instance();
  std::vector<bool> a, b;
  for (int i = 0; i < 128; ++i) a.push_back(faults.should_fire("site.a"));
  for (int i = 0; i < 128; ++i) b.push_back(faults.should_fire("site.b"));
  EXPECT_NE(a, b);  // site name is part of the decision hash
}

TEST(FaultInjector, SiteFilterScopesTheBlastRadius) {
  runtime::ScopedFaultInjection chaos({.seed = 5, .rate = 1.0, .sites = "only.this,and.that"});
  auto& faults = runtime::FaultInjector::instance();
  EXPECT_TRUE(faults.should_fire("only.this"));
  EXPECT_TRUE(faults.should_fire("and.that"));
  EXPECT_FALSE(faults.should_fire("something.else"));
  EXPECT_EQ(faults.fired("something.else"), 0u);
}

TEST(FaultInjector, MaybeThrowCarriesTheStatusCode) {
  runtime::ScopedFaultInjection chaos({.seed = 1, .rate = 1.0, .sites = {}});
  try {
    runtime::FaultInjector::instance().maybe_throw("site.t", StatusCode::kPlanBuildFailed,
                                                   "injected");
    FAIL() << "maybe_throw at rate 1.0 must throw";
  } catch (const runtime::FaultInjectedError& e) {
    EXPECT_EQ(e.code, StatusCode::kPlanBuildFailed);
    // Messages are tagged so an injected failure can never be mistaken
    // for a real one in logs.
    EXPECT_NE(std::string(e.what()).find("[fault-injected]"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
}

// ------------------------------------------------------ executor: lifecycle

/// An executor over a single-thread pool whose worker is parked on a
/// gate: requests submitted behind the gate stay *queued*
/// deterministically until release() — the scaffolding for the
/// dequeue-time deadline/cancel tests.
/// Submit options carrying only a deadline and a cancel token.
runtime::Executor::SubmitOptions submit_options(std::chrono::steady_clock::time_point deadline,
                                                runtime::CancelToken cancel = {}) {
  runtime::Executor::SubmitOptions opts;
  opts.deadline = deadline;
  opts.cancel = std::move(cancel);
  return opts;
}

/// An executor config admitting one request at a time under `admission`.
runtime::Executor::Config one_in_flight(runtime::Executor::Admission admission) {
  runtime::Executor::Config config;
  config.max_in_flight = 1;
  config.admission = admission;
  return config;
}

struct BlockedExecutor {
  explicit BlockedExecutor(runtime::Executor::Config config = {})
      : pool(1), executor(pool, &metrics, config) {
    blocker = pool.submit_task([gate = release.get_future().share()] { gate.wait(); });
  }
  ~BlockedExecutor() {
    release_worker();
    blocker.wait();
  }
  void release_worker() {
    if (!released) {
      release.set_value();
      released = true;
    }
  }

  runtime::ServiceMetrics metrics;
  util::ThreadPool pool;
  runtime::Executor executor;
  std::promise<void> release;
  std::future<void> blocker;
  bool released = false;
};

std::shared_ptr<const core::OfflinePermuter<float>> make_permuter(std::uint64_t n) {
  return std::make_shared<const core::OfflinePermuter<float>>(perm::bit_reversal(n));
}

TEST(ExecutorRobust, CancelledWhileQueuedNeverExecutes) {
  BlockedExecutor ctx;
  const std::uint64_t n = 1024;
  auto h = make_permuter(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n, -1.0f);

  runtime::CancelSource cancel;
  auto submitted = ctx.executor.try_submit<float>(
      h, std::span<const float>(a.data(), n), std::span<float>(b.data(), n),
      submit_options(runtime::Executor::kNoDeadline, cancel.token()));
  ASSERT_TRUE(submitted.ok());
  cancel.request_cancel();  // request is still queued behind the blocker
  ctx.release_worker();

  const Status status = std::move(submitted).value().get();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  ctx.executor.wait_idle();
  // Never executed: output untouched, no execute sample recorded.
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[i], -1.0f) << "executed after cancel";
  const runtime::MetricsSnapshot snap = ctx.metrics.snapshot();
  EXPECT_EQ(snap.execute_count, 0u);
  EXPECT_EQ(snap.cancelled, 1u);
  EXPECT_EQ(ctx.executor.in_flight(), 0u);
}

TEST(ExecutorRobust, DeadlineExpiredInQueueRejectsWithoutExecuting) {
  BlockedExecutor ctx;
  const std::uint64_t n = 1024;
  auto h = make_permuter(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n, -1.0f);

  auto submitted = ctx.executor.try_submit<float>(
      h, std::span<const float>(a.data(), n), std::span<float>(b.data(), n),
      submit_options(std::chrono::steady_clock::now() + 20ms));
  ASSERT_TRUE(submitted.ok());
  std::this_thread::sleep_for(60ms);  // let the deadline pass while queued
  ctx.release_worker();

  const Status status = std::move(submitted).value().get();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  ctx.executor.wait_idle();
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[i], -1.0f) << "executed past deadline";
  const runtime::MetricsSnapshot snap = ctx.metrics.snapshot();
  EXPECT_EQ(snap.execute_count, 0u);
  EXPECT_EQ(snap.deadline_exceeded, 1u);
}

TEST(ExecutorRobust, PreExpiredDeadlineIsRefusedSynchronously) {
  runtime::ServiceMetrics metrics;
  runtime::Executor executor(util::ThreadPool::global(), &metrics);
  const std::uint64_t n = 1024;
  auto h = make_permuter(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  auto submitted = executor.try_submit<float>(
      h, std::span<const float>(a.data(), n), std::span<float>(b.data(), n),
      submit_options(std::chrono::steady_clock::now() - 1ms));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kDeadlineExceeded);
  const runtime::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.submitted, 0u);  // refused before admission
  EXPECT_EQ(snap.execute_count, 0u);
  EXPECT_EQ(executor.in_flight(), 0u);
}

TEST(ExecutorRobust, InvalidRequestsAreRefusedTyped) {
  runtime::Executor executor(util::ThreadPool::global());
  const std::uint64_t n = 1024;
  auto h = make_permuter(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n / 2);  // wrong size

  auto wrong_size = executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                               std::span<float>(b.data(), b.size()));
  ASSERT_FALSE(wrong_size.ok());
  EXPECT_EQ(wrong_size.status().code(), StatusCode::kInvalidArgument);

  auto null_handle = executor.try_submit<float>(nullptr, std::span<const float>(a.data(), n),
                                                std::span<float>(b.data(), b.size()));
  ASSERT_FALSE(null_handle.ok());
  EXPECT_EQ(null_handle.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExecutorRobust, AdmissionRejectFailsFastAtTheBound) {
  BlockedExecutor ctx(one_in_flight(runtime::Executor::Admission::kReject));
  const std::uint64_t n = 1024;
  auto h = make_permuter(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b1(n), b2(n);

  auto first = ctx.executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                              std::span<float>(b1.data(), n));
  ASSERT_TRUE(first.ok());  // admitted, queued behind the blocker
  auto second = ctx.executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                               std::span<float>(b2.data(), n));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.metrics.snapshot().rejected, 1u);

  ctx.release_worker();
  EXPECT_TRUE(std::move(first).value().get().is_ok());
  ctx.executor.wait_idle();
  const perm::Permutation p = perm::bit_reversal(n);
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b1[p(i)], a[i]);
}

TEST(ExecutorRobust, AdmissionBlockHonorsTheDeadline) {
  BlockedExecutor ctx(one_in_flight(runtime::Executor::Admission::kBlock));
  const std::uint64_t n = 1024;
  auto h = make_permuter(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b1(n), b2(n);

  auto first = ctx.executor.try_submit<float>(h, std::span<const float>(a.data(), n),
                                              std::span<float>(b1.data(), n));
  ASSERT_TRUE(first.ok());
  // The slot is held; blocking admission must give up at the deadline.
  auto second = ctx.executor.try_submit<float>(
      h, std::span<const float>(a.data(), n), std::span<float>(b2.data(), n),
      submit_options(std::chrono::steady_clock::now() + 50ms));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kDeadlineExceeded);

  ctx.release_worker();
  EXPECT_TRUE(std::move(first).value().get().is_ok());
  ctx.executor.wait_idle();
}

// --------------------------------------------------------------- service

struct ServiceFixture {
  explicit ServiceFixture(runtime::RobustPermuteService::Config config = {})
      : service(util::ThreadPool::global(), config) {}
  runtime::RobustPermuteService service;
};

TEST(RobustService, ValidatesRequestsBeforeTouchingTheLadder) {
  ServiceFixture fx;
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::bit_reversal(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  auto mismatched = fx.service.submit<float>(p, std::span<const float>(a.data(), n),
                                             std::span<float>(b.data(), n / 2));
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  util::aligned_vector<float> aliased = test::iota_data<float>(n);
  auto in_place = fx.service.submit<float>(p, std::span<const float>(aliased.data(), n),
                                           std::span<float>(aliased.data(), n));
  ASSERT_FALSE(in_place.ok());
  EXPECT_EQ(in_place.status().code(), StatusCode::kInvalidArgument);

  // Nothing was admitted or executed.
  EXPECT_EQ(fx.service.metrics().snapshot().submitted, 0u);
}

TEST(RobustService, ExpiredDeadlineIsRejectedWithoutExecuting) {
  ServiceFixture fx;
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::bit_reversal(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n, -1.0f);

  runtime::RequestOptions opts;
  opts.deadline = std::chrono::steady_clock::now() - 1ms;
  auto submitted =
      fx.service.submit<float>(p, std::span<const float>(a.data(), n),
                               std::span<float>(b.data(), n), opts);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kDeadlineExceeded);
  const runtime::MetricsSnapshot snap = fx.service.metrics().snapshot();
  EXPECT_EQ(snap.submitted, 0u);
  EXPECT_EQ(snap.execute_count, 0u);
  EXPECT_GE(snap.deadline_exceeded, 1u);
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[i], -1.0f);
}

TEST(RobustService, PreCancelledRequestResolvesWithoutExecuting) {
  ServiceFixture fx;
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::bit_reversal(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  runtime::CancelSource cancel;
  cancel.request_cancel();
  runtime::RequestOptions opts;
  opts.cancel = cancel.token();
  auto submitted =
      fx.service.submit<float>(p, std::span<const float>(a.data(), n),
                               std::span<float>(b.data(), n), opts);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(fx.service.metrics().snapshot().submitted, 0u);
}

TEST(RobustService, HappyPathServesAndCaches) {
  ServiceFixture fx;
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::bit_reversal(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  for (int round = 0; round < 2; ++round) {
    auto submitted = fx.service.submit<float>(p, std::span<const float>(a.data(), n),
                                              std::span<float>(b.data(), n));
    ASSERT_TRUE(submitted.ok());
    EXPECT_TRUE(std::move(submitted).value().get().is_ok());
  }
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]);
  const runtime::MetricsSnapshot snap = fx.service.metrics().snapshot();
  EXPECT_EQ(snap.plan_builds, 1u);  // second round is a cache hit
  EXPECT_EQ(snap.hits, 1u);
  EXPECT_EQ(snap.degraded_executions, 0u);
}

TEST(RobustService, TransientBuildFailureIsRetriedThenServedOptimally) {
  // Find a seed whose plan_cache.build stream goes [fire, pass]: the
  // first build attempt fails, the single retry succeeds.
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; s < 512; ++s) {
    runtime::ScopedFaultInjection probe(
        {.seed = s, .rate = 0.5, .sites = std::string(runtime::fault_sites::kPlanBuild)});
    auto& faults = runtime::FaultInjector::instance();
    const bool first = faults.should_fire(runtime::fault_sites::kPlanBuild);
    const bool second = faults.should_fire(runtime::fault_sites::kPlanBuild);
    if (first && !second) {
      seed = s;
      break;
    }
  }
  ASSERT_NE(seed, 0u) << "no [fire, pass] seed below 512 (injector broken?)";

  runtime::RobustPermuteService::Config config;
  config.max_build_retries = 1;
  config.retry_backoff_base = std::chrono::microseconds(10);
  ServiceFixture fx(config);
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::bit_reversal(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  runtime::ScopedFaultInjection chaos(
      {.seed = seed, .rate = 0.5, .sites = std::string(runtime::fault_sites::kPlanBuild)});
  auto submitted = fx.service.submit<float>(p, std::span<const float>(a.data(), n),
                                            std::span<float>(b.data(), n));
  ASSERT_TRUE(submitted.ok());
  EXPECT_TRUE(std::move(submitted).value().get().is_ok());
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]);

  const runtime::MetricsSnapshot snap = fx.service.metrics().snapshot();
  EXPECT_EQ(snap.build_retries, 1u);
  EXPECT_EQ(snap.plan_builds, 1u);        // the retry built the real plan
  EXPECT_EQ(snap.degraded_executions, 0u);  // never fell off the optimal tier
}

TEST(RobustService, ScheduledDefaultAppliesWherePlansSupportIt) {
  runtime::RobustPermuteService::Config config;
  config.strategy = core::Strategy::kScheduled;
  ServiceFixture fx(config);
  const model::MachineParams mp = config.machine;
  // 4096 elements: the default forces the scheduled plan (kAuto would
  // gather an L2-resident source). 1000 elements: no scheduled plan
  // exists, so the default falls back to kAuto instead of aborting.
  for (const std::uint64_t n : {std::uint64_t{4096}, std::uint64_t{1000}}) {
    const perm::Permutation p = perm::by_name("random", n, 3);
    const auto a = test::iota_data<float>(n);
    util::aligned_vector<float> b(n);
    auto submitted = fx.service.submit<float>(p, std::span<const float>(a.data(), n),
                                              std::span<float>(b.data(), n));
    ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
    ASSERT_TRUE(std::move(submitted).value().get().is_ok());
    for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]) << n << " at " << i;
  }
  EXPECT_TRUE(fx.service.cache().contains(
      runtime::PlanCache::plan_key<float>(perm::by_name("random", 4096, 3), mp,
                                          core::Strategy::kScheduled)));
  const runtime::MetricsSnapshot snap = fx.service.metrics().snapshot();
  EXPECT_EQ(snap.plans_scheduled, 1u);
  EXPECT_EQ(snap.plans_s_designated, 1u);
}

TEST(RobustService, ExhaustedRetriesDegradeToConventionalAndStayCorrect) {
  runtime::RobustPermuteService::Config config;
  config.max_build_retries = 1;
  config.retry_backoff_base = std::chrono::microseconds(10);
  ServiceFixture fx(config);
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::bit_reversal(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  runtime::ScopedFaultInjection chaos(
      {.seed = 2, .rate = 1.0, .sites = std::string(runtime::fault_sites::kPlanBuild)});
  auto submitted = fx.service.submit<float>(p, std::span<const float>(a.data(), n),
                                            std::span<float>(b.data(), n));
  ASSERT_TRUE(submitted.ok());
  EXPECT_TRUE(std::move(submitted).value().get().is_ok());
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(b[p(i)], a[i]);

  const runtime::MetricsSnapshot snap = fx.service.metrics().snapshot();
  EXPECT_EQ(snap.degraded_executions, 1u);
  EXPECT_EQ(snap.build_retries, 1u);
  EXPECT_EQ(snap.plan_builds, 0u);  // every scheduled build failed
}

TEST(RobustService, DegradationOffSurfacesTheBuildError) {
  runtime::RobustPermuteService::Config config;
  config.allow_degraded = false;
  config.max_build_retries = 0;
  ServiceFixture fx(config);
  const std::uint64_t n = 1024;
  const perm::Permutation p = perm::bit_reversal(n);
  const auto a = test::iota_data<float>(n);
  util::aligned_vector<float> b(n);

  runtime::ScopedFaultInjection chaos(
      {.seed = 2, .rate = 1.0, .sites = std::string(runtime::fault_sites::kPlanBuild)});
  auto submitted = fx.service.submit<float>(p, std::span<const float>(a.data(), n),
                                            std::span<float>(b.data(), n));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kPlanBuildFailed);
  EXPECT_EQ(fx.service.metrics().snapshot().submitted, 0u);
}

// The ISSUE acceptance scenario: 30% plan-build fault rate, every
// accepted request still resolves OK with a fully correct output, the
// process never aborts, and the degraded/retry counters expose what the
// ladder absorbed.
TEST(RobustService, ChaosThirtyPercentBuildFailureServesEveryAcceptedRequest) {
  runtime::RobustPermuteService::Config config;
  config.max_build_retries = 1;
  config.retry_backoff_base = std::chrono::microseconds(10);
  ServiceFixture fx(config);

  const std::uint64_t n = 1024;
  const std::uint64_t kPerms = 30;
  std::vector<perm::Permutation> population;
  for (std::uint64_t r = 0; r < kPerms; ++r) {
    population.push_back(perm::by_name("random", n, 1000 + r));
  }
  const auto a = test::iota_data<float>(n);

  struct Request {
    std::uint64_t rank;
    util::aligned_vector<float> b;
    std::future<runtime::Status> done;
  };
  std::vector<Request> requests;

  runtime::ScopedFaultInjection chaos(
      {.seed = 7, .rate = 0.3, .sites = std::string(runtime::fault_sites::kPlanBuild)});
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t r = 0; r < kPerms; ++r) {
      Request req;
      req.rank = r;
      req.b.assign(n, -1.0f);
      auto submitted = fx.service.submit<float>(population[r],
                                                std::span<const float>(a.data(), n),
                                                std::span<float>(req.b.data(), n));
      ASSERT_TRUE(submitted.ok()) << submitted.status().to_string();
      req.done = std::move(submitted).value();
      requests.push_back(std::move(req));
    }
  }

  const std::uint64_t fired =
      runtime::FaultInjector::instance().fired(runtime::fault_sites::kPlanBuild);
  EXPECT_GT(fired, 0u) << "chaos run injected nothing";

  // 100% of accepted requests must resolve OK with a correct output.
  for (Request& req : requests) {
    const runtime::Status status = req.done.get();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    const perm::Permutation& p = population[req.rank];
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(req.b[p(i)], a[i]) << "perm " << req.rank << " at index " << i;
    }
  }
  fx.service.wait_idle();

  const runtime::MetricsSnapshot snap = fx.service.metrics().snapshot();
  EXPECT_EQ(snap.completed, requests.size());
  EXPECT_EQ(snap.failed, 0u);
  EXPECT_GT(snap.degraded_executions, 0u);  // seed 7 exhausts retries at least once
  EXPECT_GT(snap.build_retries, 0u);
  // Every request was served by *some* tier: the optimal one (built or
  // cached) or the conventional fallback.
  EXPECT_EQ(snap.submitted, requests.size());
}

// ----------------------------------------------------------- plan_io status

std::string temp_plan_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(PlanLoad, CheckedLoaderRoundTrips) {
  const perm::Permutation p = perm::bit_reversal(4096);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, model::MachineParams::gtx680());
  const std::string path = temp_plan_path("robust_roundtrip.hmmplan");
  ASSERT_TRUE(core::save_plan_file(path, plan));

  StatusOr<core::ScheduledPlan> loaded = runtime::load_plan_checked(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().size(), plan.size());
  EXPECT_TRUE(loaded.value().validate(p));
  std::remove(path.c_str());
}

TEST(PlanLoad, MissingFileIsUnavailable) {
  StatusOr<core::ScheduledPlan> loaded =
      runtime::load_plan_checked(temp_plan_path("does_not_exist.hmmplan"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(loaded.status().message().empty());
}

TEST(PlanLoad, InjectedCorruptionIsRejectedAsInvalid) {
  const perm::Permutation p = perm::bit_reversal(4096);
  const core::ScheduledPlan plan = core::ScheduledPlan::build(p, model::MachineParams::gtx680());
  const std::string path = temp_plan_path("robust_corrupt.hmmplan");
  ASSERT_TRUE(core::save_plan_file(path, plan));

  runtime::ScopedFaultInjection chaos(
      {.seed = 3, .rate = 1.0, .sites = std::string(runtime::fault_sites::kPlanRead)});
  StatusOr<core::ScheduledPlan> loaded = runtime::load_plan_checked(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(loaded.status().message().empty());  // carries the loader's reason
  std::remove(path.c_str());
}

TEST(PlanLoad, LoaderNamesTheReason) {
  std::istringstream garbage("definitely not a plan file");
  std::string reason;
  EXPECT_FALSE(core::load_plan(garbage, &reason).has_value());
  EXPECT_NE(reason.find("magic"), std::string::npos);

  std::istringstream empty;
  reason.clear();
  EXPECT_FALSE(core::load_plan(empty, &reason).has_value());
  EXPECT_FALSE(reason.empty());
}

}  // namespace
}  // namespace hmm
