#include "service/session_manager.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "service/scheduler.hpp"
#include "service/session.hpp"

namespace insitu::service {
namespace {

SessionSpec small_spec(const std::string& tenant, std::uint64_t seed = 7) {
  SessionSpec spec;
  spec.tenant = tenant;
  spec.name = tenant + "/s" + std::to_string(seed);
  spec.ranks = 2;
  spec.grid = 8;
  spec.steps = 2;
  spec.seed = seed;
  spec.analyses.set("statistics.enabled", "true");
  return spec;
}

double counter_value(const obs::MetricsSnapshot& snapshot,
                     const std::string& key) {
  for (const obs::MetricSample& sample : snapshot) {
    if (sample.key == key) return sample.value;
  }
  return 0.0;
}

// ---------------------------------------------------------------- stride

TEST(StrideScheduler, PicksProportionalToWeight) {
  StrideScheduler sched;
  sched.set_weight("a", 1.0);
  sched.set_weight("b", 2.0);
  std::map<std::string, int> picks;
  for (int i = 0; i < 30; ++i) {
    auto p = sched.pick({"a", "b"});
    ASSERT_TRUE(p.has_value());
    ++picks[*p];
  }
  // Stride scheduling is deterministic: exactly weight-proportional over
  // any aligned window.
  EXPECT_EQ(picks["a"], 10);
  EXPECT_EQ(picks["b"], 20);
}

TEST(StrideScheduler, EmptyEligibleReturnsNothing) {
  StrideScheduler sched;
  EXPECT_FALSE(sched.pick({}).has_value());
}

TEST(StrideScheduler, NewcomerJoinsAtCurrentMinPass) {
  StrideScheduler sched;
  sched.set_weight("a", 1.0);
  for (int i = 0; i < 4; ++i) (void)sched.pick({"a"});
  ASSERT_DOUBLE_EQ(sched.pass("a"), 4.0);
  // A latecomer starts level with the field, not at zero — otherwise it
  // would monopolize the service until it "caught up".
  sched.set_weight("b", 1.0);
  EXPECT_DOUBLE_EQ(sched.pass("b"), sched.pass("a"));
  std::map<std::string, int> picks;
  for (int i = 0; i < 10; ++i) ++picks[*sched.pick({"a", "b"})];
  EXPECT_EQ(picks["a"], 5);
  EXPECT_EQ(picks["b"], 5);
}

TEST(StrideScheduler, IneligibleTenantNeverBlocksOthers) {
  StrideScheduler sched;
  sched.set_weight("idle", 1.0);
  sched.set_weight("busy", 1.0);
  for (int i = 0; i < 5; ++i) {
    auto p = sched.pick({"busy"});
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, "busy");
  }
}

// ------------------------------------------------------------ spec parse

TEST(SessionSpecParse, ParsesFullSpec) {
  pal::Config config;
  config.set("session.tenant", "acme");
  config.set("session.name", "nightly");
  config.set("session.ranks", "3");
  config.set("session.grid", "10");
  config.set("session.steps", "5");
  config.set("session.weight", "2.5");
  config.set("session.quota_mb", "64");
  config.set("session.seed", "42");
  config.set("histogram.enabled", "true");
  auto spec = SessionSpec::parse(config);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->tenant, "acme");
  EXPECT_EQ(spec->name, "nightly");
  EXPECT_EQ(spec->ranks, 3);
  EXPECT_EQ(spec->grid, 10);
  EXPECT_EQ(spec->steps, 5);
  EXPECT_DOUBLE_EQ(spec->weight, 2.5);
  EXPECT_EQ(spec->quota_bytes, std::size_t{64} << 20);
  EXPECT_EQ(spec->seed, 42u);
}

TEST(SessionSpecParse, RejectsUnknownSessionKey) {
  pal::Config config;
  config.set("session.tennant", "typo");
  auto spec = SessionSpec::parse(config);
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(spec.status().to_string().find("session.tennant"),
            std::string::npos);
}

TEST(SessionSpecParse, RejectsInvalidValues) {
  for (const auto& [key, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"session.ranks", "0"},
           {"session.grid", "1"},
           {"session.steps", "0"},
           {"session.weight", "0"},
           {"session.quota_mb", "-1"}}) {
    pal::Config config;
    config.set(key, value);
    auto spec = SessionSpec::parse(config);
    ASSERT_FALSE(spec.ok()) << key;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << key;
  }
}

TEST(SessionSpecParse, ValidatesAnalysisSectionsAtSubmitTime) {
  pal::Config config;
  config.set("session.tenant", "acme");
  config.set("histgram.enabled", "true");  // typo'd analysis section
  auto spec = SessionSpec::parse(config);
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------- lifecycle

TEST(SessionManager, SubmitRunsToCompletion) {
  SessionManager manager;
  auto id = manager.submit(small_spec("acme"));
  ASSERT_TRUE(id.ok());
  auto status = manager.wait(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, SessionState::kCompleted);
  EXPECT_EQ(status->steps_executed, 2);
  EXPECT_EQ(status->rank_virtual_seconds.size(), 2u);
  EXPECT_GT(status->virtual_seconds, 0.0);
  EXPECT_GT(status->p99_step_seconds, 0.0);
  EXPECT_FALSE(status->degraded);
}

TEST(SessionManager, SubmitFromConfig) {
  SessionManager manager;
  pal::Config config;
  config.set("session.tenant", "cfg");
  config.set("session.ranks", "2");
  config.set("session.grid", "8");
  config.set("session.steps", "2");
  config.set("statistics.enabled", "true");
  auto id = manager.submit(config);
  ASSERT_TRUE(id.ok());
  auto status = manager.wait(*id);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->state, SessionState::kCompleted);

  // A bad config is refused before it ever becomes a session.
  pal::Config bad;
  bad.set("session.ranks", "0");
  EXPECT_FALSE(manager.submit(bad).ok());
}

TEST(SessionManager, QueryUnknownIdIsNotFound) {
  SessionManager manager;
  auto status = manager.query(SessionId{999});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(manager.cancel(SessionId{999}).ok());
  EXPECT_FALSE(manager.wait(SessionId{999}).ok());
}

TEST(SessionManager, CancelQueuedSessionOnly) {
  ServiceOptions options;
  options.runners = 1;
  SessionManager manager(options);
  // One runner: the first session occupies it; later submissions queue.
  // Cancelling the LAST of several queued sessions is deterministic in
  // practice — it could only be running if every earlier one finished
  // within the few microseconds between submit and cancel.
  auto first = manager.submit(small_spec("acme", 1));
  ASSERT_TRUE(first.ok());
  std::vector<SessionId> rest;
  for (std::uint64_t s = 2; s <= 4; ++s) {
    auto id = manager.submit(small_spec("acme", s));
    ASSERT_TRUE(id.ok());
    rest.push_back(*id);
  }
  ASSERT_TRUE(manager.cancel(rest.back()).ok());
  auto cancelled = manager.wait(rest.back());
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->state, SessionState::kCancelled);

  manager.wait_all();
  // A finished session can no longer be cancelled.
  auto done = manager.cancel(*first);
  ASSERT_FALSE(done.ok());
  EXPECT_EQ(done.code(), StatusCode::kFailedPrecondition);
  // The other queued sessions were unaffected.
  for (std::size_t i = 0; i + 1 < rest.size(); ++i) {
    EXPECT_EQ(manager.query(rest[i])->state, SessionState::kCompleted);
  }
}

// ----------------------------------------------------- quotas, admission

TEST(SessionManager, RejectsSessionThatCanNeverFitItsQuota) {
  SessionManager manager;
  SessionSpec greedy = small_spec("greedy");
  greedy.quota_bytes = 1024;  // far below any session's estimate
  auto id = manager.submit(greedy);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);

  // The rejection is still queryable and metered — never an abort.
  bool found = false;
  for (const SessionStatus& status : manager.statuses()) {
    if (status.tenant == "greedy") {
      EXPECT_EQ(status.state, SessionState::kRejected);
      EXPECT_FALSE(status.message.empty());
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GE(counter_value(
                manager.metrics(),
                obs::metric_key("service.admission", {{"outcome", "rejected"},
                                                      {"tenant", "greedy"}})),
            1.0);
}

TEST(SessionManager, RejectPolicyRefusesPressuredSubmits) {
  ServiceOptions options;
  options.policy = AdmissionPolicy::kReject;
  options.tenant_queue_capacity = 1;
  SessionManager manager(options);
  ASSERT_TRUE(manager.submit(small_spec("burst", 1)).ok());
  // The admission ledger is virtual arithmetic, so the second submit of
  // a burst deterministically overflows a capacity-1 queue.
  auto second = manager.submit(small_spec("burst", 2));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
}

TEST(SessionManager, DegradePolicyRunsPressuredSessionsWithoutPooling) {
  ServiceOptions options;
  options.policy = AdmissionPolicy::kDegrade;
  options.tenant_queue_capacity = 1;
  SessionManager manager(options);
  auto first = manager.submit(small_spec("burst", 1));
  auto second = manager.submit(small_spec("burst", 2));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  auto status = manager.wait(*second);
  ASSERT_TRUE(status.ok());
  // Degradation trades the pool away, never correctness: the session
  // still completes (and computes the same numbers — see the identity
  // test below and bench/service_throughput).
  EXPECT_EQ(status->state, SessionState::kCompleted);
  EXPECT_TRUE(status->degraded);
  manager.wait_all();
  EXPECT_GE(counter_value(manager.metrics(),
                          obs::metric_key("service.admission",
                                          {{"outcome", "degraded"},
                                           {"tenant", "burst"}})),
            1.0);
}

TEST(SessionManager, QueuePolicyEventuallyRunsEverything) {
  ServiceOptions options;
  options.policy = AdmissionPolicy::kQueue;
  options.tenant_queue_capacity = 1;
  options.runners = 2;
  SessionManager manager(options);
  std::vector<SessionId> ids;
  for (std::uint64_t s = 1; s <= 6; ++s) {
    auto id = manager.submit(small_spec("burst", s));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  manager.wait_all();
  for (const SessionId id : ids) {
    EXPECT_EQ(manager.query(id)->state, SessionState::kCompleted);
  }
}

// --------------------------------------------- accounting and isolation

TEST(SessionManager, TenantAccountingIsPoolingInvariant) {
  SessionManager manager;
  auto id = manager.submit(small_spec("acct"));
  ASSERT_TRUE(id.ok());
  manager.wait_all();
  auto tenant = manager.tenant("acct");
  ASSERT_TRUE(tenant.ok());
  // Everything the session allocated was released; bytes the ranks'
  // pools parked are the pools' own, never a tracker's, so they do not
  // linger as phantom tenant usage.
  EXPECT_EQ(tenant->current_bytes, 0u);
  EXPECT_GT(tenant->high_water_bytes, 0u);
  EXPECT_EQ(tenant->overage_events, 0u);
  EXPECT_EQ(tenant->queued, 0);
  EXPECT_EQ(tenant->running, 0);
}

TEST(SessionManager, ConcurrentRunIsBitIdenticalToSolo) {
  SessionSpec spec = small_spec("ident", 99);
  ServiceOptions options;
  options.runners = 4;
  SessionManager manager(options);
  // Surround the measured session with co-tenant noise.
  for (std::uint64_t s = 1; s <= 3; ++s) {
    ASSERT_TRUE(manager.submit(small_spec("noise", s)).ok());
  }
  auto id = manager.submit(spec);
  ASSERT_TRUE(id.ok());
  manager.wait_all();
  auto concurrent = manager.query(*id);
  ASSERT_TRUE(concurrent.ok());

  pal::MemoryTracker solo_tracker;
  SessionRunContext context;
  context.tenant_label = spec.tenant;
  context.tenant_tracker = &solo_tracker;
  context.sched = manager.options().sched;
  context.sched_workers = manager.options().sched_workers;
  auto solo = run_session_pipeline(spec, context);
  ASSERT_TRUE(solo.ok());
  ASSERT_EQ(concurrent->rank_virtual_seconds.size(),
            solo->report.ranks.size());
  for (std::size_t r = 0; r < solo->report.ranks.size(); ++r) {
    EXPECT_EQ(concurrent->rank_virtual_seconds[r],
              solo->report.ranks[r].virtual_seconds)
        << "rank " << r;
  }
}

TEST(SessionManager, SessionMetricsCarryTenantLabel) {
  SessionManager manager;
  auto id = manager.submit(small_spec("labelled"));
  ASSERT_TRUE(id.ok());
  manager.wait_all();
  const std::string bridge_key = obs::metric_key_with_label(
      "bridge.execute.seconds", "tenant", "labelled");
  bool saw_bridge = false;
  for (const obs::MetricSample& sample : manager.metrics()) {
    if (sample.key == bridge_key) saw_bridge = true;
    // No session series may leak out unlabeled.
    if (sample.key == "bridge.execute.seconds") {
      ADD_FAILURE() << "unlabeled session metric escaped";
    }
  }
  EXPECT_TRUE(saw_bridge);
}

// ------------------------------------------------------- TSan stressor

TEST(SessionManager, ConcurrentAdmissionStress) {
  // Hammer submit/query/statuses/tenant from several threads at once;
  // run under TSan in CI. Sessions are tiny — the point is the locking,
  // not the pipeline.
  ServiceOptions options;
  options.runners = 4;
  SessionManager manager(options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 6;
  std::vector<std::vector<SessionId>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string tenant = "s" + std::to_string(t % 2);
        auto id = manager.submit(
            small_spec(tenant, static_cast<std::uint64_t>(t * 100 + i)));
        if (id.ok()) ids[static_cast<std::size_t>(t)].push_back(*id);
        (void)manager.statuses();
        (void)manager.tenant(tenant);
        if (!ids[static_cast<std::size_t>(t)].empty()) {
          (void)manager.query(ids[static_cast<std::size_t>(t)].front());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  manager.wait_all();
  int completed = 0;
  for (const auto& mine : ids) {
    for (const SessionId id : mine) {
      auto status = manager.query(id);
      ASSERT_TRUE(status.ok());
      EXPECT_EQ(status->state, SessionState::kCompleted);
      ++completed;
    }
  }
  // Default policy is kQueue: every submit is admitted and completes.
  EXPECT_EQ(completed, kThreads * kPerThread);
}

}  // namespace
}  // namespace insitu::service
