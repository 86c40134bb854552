// Orchestrator robustness: the seeded fault harness drives every recovery
// path — worker exceptions, injected hangs (timeout + worker abandonment),
// torn result writes, poisoned caches — and the sweep must always end in
// retried success or quarantine, never in an abort, with a byte-identical
// aggregate across reruns.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/fileio.hpp"
#include "sim/driver.hpp"
#include "sweep/orchestrator.hpp"
#include "sweep/sweep_spec.hpp"
#include "sweep/worker_pool.hpp"

namespace hybridnoc::sweep {
namespace {

class OrchestratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("hn_orch_test_") + ::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  SweepSpec small_spec(const char* extra = "") {
    SweepSpec spec;
    SpecError err;
    const std::string text = std::string("name = orch\n"
                                         "set k = 4\n"
                                         "set warmup_packets = 40\n"
                                         "set warmup_min_cycles = 200\n"
                                         "set measure_packets = 120\n"
                                         "set max_cycles = 60000\n"
                                         "sweep rate = 0.03, 0.06\n") +
                             extra;
    EXPECT_TRUE(parse_sweep_spec(text, &spec, &err)) << err.to_string();
    return spec;
  }

  SweepOptions opts() {
    SweepOptions o;
    o.out_dir = dir_;
    o.workers = 2;
    o.backoff_base_ms = 1;
    o.backoff_cap_ms = 8;
    return o;
  }

  std::string dir_;
};

TEST_F(OrchestratorTest, CleanSweepCompletes) {
  const SweepSpec spec = small_spec();
  const SweepReport rep = run_sweep(spec, opts());
  EXPECT_EQ(rep.degradation.points, 2);
  EXPECT_EQ(rep.degradation.completed, 2);
  EXPECT_EQ(rep.degradation.quarantined, 0);
  EXPECT_TRUE(rep.degradation.complete());
  for (const auto& o : rep.outcomes) {
    EXPECT_TRUE(o.ok);
    EXPECT_GT(o.result.measured_packets, 0u);
  }
  std::string aggregate;
  ASSERT_TRUE(read_file(rep.aggregate_path, &aggregate));
  EXPECT_EQ(aggregate, format_aggregate(spec, rep.outcomes));
}

TEST_F(OrchestratorTest, RerunServesFromCacheBitIdentically) {
  const SweepSpec spec = small_spec();
  const SweepReport first = run_sweep(spec, opts());
  std::string agg1;
  ASSERT_TRUE(read_file(first.aggregate_path, &agg1));

  const SweepReport second = run_sweep(spec, opts());
  EXPECT_EQ(second.degradation.cache_hits, 2);
  EXPECT_TRUE(second.degradation.resumed);
  std::string agg2;
  ASSERT_TRUE(read_file(second.aggregate_path, &agg2));
  EXPECT_EQ(agg1, agg2);
}

TEST_F(OrchestratorTest, WorkerExceptionsRetryToSuccess) {
  const SweepSpec spec = small_spec();
  SweepOptions o = opts();
  o.max_attempts = 6;
  o.faults.enabled = true;
  o.faults.seed = 3;
  o.faults.throw_prob = 0.5;  // some attempts throw; 6 tries ~never all do
  const SweepReport rep = run_sweep(spec, o);
  EXPECT_EQ(rep.degradation.completed + rep.degradation.quarantined, 2);
  // Every outcome is terminal: ok or quarantined, nothing dropped.
  for (const auto& out : rep.outcomes) {
    EXPECT_TRUE(out.ok || out.quarantined) << out.label;
  }
}

TEST_F(OrchestratorTest, AlwaysThrowingWorkerQuarantines) {
  const SweepSpec spec = small_spec();
  SweepOptions o = opts();
  o.max_attempts = 3;
  o.faults.enabled = true;
  o.faults.throw_prob = 1.0;
  const SweepReport rep = run_sweep(spec, o);
  EXPECT_EQ(rep.degradation.quarantined, 2);
  EXPECT_EQ(rep.degradation.completed, 0);
  EXPECT_EQ(rep.degradation.retries, 2 * (3 - 1));
  EXPECT_FALSE(rep.degradation.complete());
  for (const auto& out : rep.outcomes) {
    EXPECT_TRUE(out.quarantined);
    EXPECT_EQ(out.attempts, 3);
    EXPECT_NE(out.last_error.find("injected worker fault"),
              std::string::npos);
  }
  // The aggregate still exists, with quarantined rows.
  std::string aggregate;
  ASSERT_TRUE(read_file(rep.aggregate_path, &aggregate));
  EXPECT_NE(aggregate.find("quarantined"), std::string::npos);
}

TEST_F(OrchestratorTest, QuarantineIsStickyAcrossResume) {
  const SweepSpec spec = small_spec();
  SweepOptions o = opts();
  o.max_attempts = 2;
  o.faults.enabled = true;
  o.faults.throw_prob = 1.0;
  const SweepReport first = run_sweep(spec, o);
  EXPECT_EQ(first.degradation.quarantined, 2);
  std::string agg1;
  ASSERT_TRUE(read_file(first.aggregate_path, &agg1));

  // Resume with the harness off: quarantine decisions replay from the
  // journal instead of being re-derived (no new attempts are run).
  SweepOptions o2 = opts();
  o2.max_attempts = 2;
  const SweepReport second = run_sweep(spec, o2);
  EXPECT_TRUE(second.degradation.resumed);
  EXPECT_EQ(second.degradation.quarantined, 2);
  EXPECT_EQ(second.degradation.retries, 0);
  std::string agg2;
  ASSERT_TRUE(read_file(second.aggregate_path, &agg2));
  EXPECT_EQ(agg1, agg2);

  // A --fresh run re-decides and (harness off) completes everything.
  SweepOptions o3 = opts();
  o3.resume = false;
  const SweepReport third = run_sweep(spec, o3);
  EXPECT_EQ(third.degradation.quarantined, 0);
  EXPECT_EQ(third.degradation.completed, 2);
}

TEST_F(OrchestratorTest, TornWritesAreDetectedAndRetried) {
  // Pick a harness seed (via the deterministic plan itself, so the test
  // cannot rot) where the first point's first attempt tears its result
  // write and the second attempt is clean.
  const SweepSpec spec = small_spec();
  SweepFaultPlan plan;
  plan.enabled = true;
  plan.torn_write_prob = 0.5;
  std::uint64_t seed = 1;
  for (; seed < 500; ++seed) {
    plan.seed = seed;
    if (plan.action(spec.points[0].hash, 1) == FaultAction::TornWrite &&
        plan.action(spec.points[0].hash, 2) == FaultAction::None &&
        plan.action(spec.points[1].hash, 1) == FaultAction::None) {
      break;
    }
  }
  ASSERT_LT(seed, 500u) << "no suitable harness seed found";

  SweepOptions o = opts();
  o.max_attempts = 6;
  o.faults = plan;
  const SweepReport rep = run_sweep(spec, o);
  EXPECT_EQ(rep.degradation.completed, 2);
  EXPECT_GE(rep.degradation.retries, 1);
  for (const auto& out : rep.outcomes) {
    EXPECT_TRUE(out.ok) << out.label;
    // Whatever ended up in the store decodes cleanly.
    EXPECT_GT(out.result.cycles, 0u);
  }
  // The torn write surfaced as a failed (retried) attempt, journaled with
  // the read-back-verification reason — never as a poisoned cache entry.
  std::string journal;
  ASSERT_TRUE(read_file(dir_ + "/journal", &journal));
  EXPECT_NE(journal.find("verification failed"), std::string::npos);
}

TEST_F(OrchestratorTest, InjectedHangsTimeOutAndQuarantine) {
  const SweepSpec spec = small_spec();
  SweepOptions o = opts();
  o.workers = 2;
  o.max_attempts = 2;
  o.timeout_ms = 150;
  o.faults.enabled = true;
  o.faults.hang_prob = 1.0;
  const SweepReport rep = run_sweep(spec, o);
  EXPECT_EQ(rep.degradation.quarantined, 2);
  EXPECT_EQ(rep.degradation.timeouts, 2 * 2);
  EXPECT_GE(rep.degradation.workers_abandoned, 1);
  for (const auto& out : rep.outcomes) {
    EXPECT_TRUE(out.quarantined);
    EXPECT_EQ(out.last_error, "wall-clock timeout");
  }
}

TEST_F(OrchestratorTest, HangsRecoverWhenLaterAttemptsClean) {
  // Hang only on the first attempt of each point (probability keyed by
  // attempt): pick a seed where attempt 1 hangs and attempt 2 does not,
  // verified via the plan itself so the test cannot rot.
  SweepFaultPlan plan;
  plan.enabled = true;
  plan.hang_prob = 0.5;
  const SweepSpec spec = small_spec();
  std::uint64_t seed = 1;
  for (; seed < 500; ++seed) {
    plan.seed = seed;
    bool good = true;
    for (const auto& pt : spec.points) {
      if (plan.action(pt.hash, 1) != FaultAction::Hang ||
          plan.action(pt.hash, 2) != FaultAction::None) {
        good = false;
        break;
      }
    }
    if (good) break;
  }
  ASSERT_LT(seed, 500u) << "no suitable harness seed found";

  SweepOptions o = opts();
  o.max_attempts = 3;
  // Generous budget: the clean second attempt must finish inside it even
  // under sanitizers; the injected hang still times out promptly enough.
  o.timeout_ms = 2000;
  o.faults = plan;
  const SweepReport rep = run_sweep(spec, o);
  EXPECT_EQ(rep.degradation.completed, 2);
  EXPECT_EQ(rep.degradation.quarantined, 0);
  EXPECT_EQ(rep.degradation.timeouts, 2);
  EXPECT_EQ(rep.degradation.workers_abandoned, 2);
  for (const auto& out : rep.outcomes) {
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(out.attempts, 2);
  }
}

TEST_F(OrchestratorTest, CorruptResultEntryIsRecomputed) {
  const SweepSpec spec = small_spec();
  const SweepReport first = run_sweep(spec, opts());
  std::string agg1;
  ASSERT_TRUE(read_file(first.aggregate_path, &agg1));

  // Poison one stored result (truncate: digest now fails).
  const std::string victim =
      dir_ + "/results/" + hex64(spec.points[0].hash) + ".result";
  std::string bytes;
  ASSERT_TRUE(read_file(victim, &bytes));
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 3));
  }

  const SweepReport second = run_sweep(spec, opts());
  EXPECT_EQ(second.degradation.corrupt_results_recomputed, 1);
  EXPECT_EQ(second.degradation.completed, 2);
  EXPECT_EQ(second.degradation.cache_hits, 1);
  std::string agg2;
  ASSERT_TRUE(read_file(second.aggregate_path, &agg2));
  EXPECT_EQ(agg1, agg2);  // recomputation is bit-identical
}

// A sweep point is the measurement hybridnoc makes: the stored result of
// every point equals run_synthetic(pt.cfg, pt.params) bit for bit, for the
// packet baseline, Hybrid-TDM, and the config with path sharing and gating.
using SweepMethodology = OrchestratorTest;

TEST_F(SweepMethodology, PointsEqualRunSynthetic) {
  SweepSpec spec;
  SpecError err;
  ASSERT_TRUE(parse_sweep_spec(
      "name = methodology\n"
      "sweep preset = packet_vc4, hybrid_tdm_vc4, hybrid_tdm_hop_vct\n"
      "set k = 4\n"
      "set warmup_packets = 60\n"
      "set warmup_min_cycles = 400\n"
      "set measure_packets = 250\n"
      "set max_cycles = 80000\n"
      "set seed = 7\n"
      "sweep rate = 0.05, 0.12\n",
      &spec, &err))
      << err.to_string();
  ASSERT_EQ(spec.points.size(), 6u);
  const SweepReport rep = run_sweep(spec, opts());
  ASSERT_TRUE(rep.degradation.complete());
  for (std::size_t i = 0; i < spec.points.size(); ++i) {
    const SweepPoint& pt = spec.points[i];
    SCOPED_TRACE(pt.label);
    ASSERT_EQ(pt.cfg.k, 4);
    ASSERT_TRUE(rep.outcomes[i].ok);
    const RunResult& a = rep.outcomes[i].result;
    const RunResult b = run_synthetic(pt.cfg, pt.params);
    EXPECT_GT(b.measured_packets, 0u);
    EXPECT_EQ(a.offered_rate, b.offered_rate);
    EXPECT_EQ(a.accepted_rate, b.accepted_rate);
    EXPECT_EQ(a.avg_latency, b.avg_latency);
    EXPECT_EQ(a.p99_latency, b.p99_latency);
    EXPECT_EQ(a.saturated, b.saturated);
    EXPECT_EQ(a.measured_packets, b.measured_packets);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cs_flit_fraction, b.cs_flit_fraction);
    EXPECT_EQ(a.config_flit_fraction, b.config_flit_fraction);
    EXPECT_EQ(a.energy, b.energy) << first_difference(a.energy, b.energy);
  }
}

TEST_F(OrchestratorTest, JournalFromDifferentSpecRefused) {
  const SweepSpec spec = small_spec();
  run_sweep(spec, opts());
  const SweepSpec other = small_spec("set seed = 5\n");
  EXPECT_THROW(run_sweep(other, opts()), std::runtime_error);
  // ...but --fresh takes the directory over.
  SweepOptions o = opts();
  o.resume = false;
  const SweepReport rep = run_sweep(other, o);
  EXPECT_EQ(rep.degradation.completed, 2);
}

TEST_F(OrchestratorTest, FaultPlanIsDeterministic) {
  SweepFaultPlan plan;
  plan.enabled = true;
  plan.seed = 9;
  plan.throw_prob = 0.3;
  plan.hang_prob = 0.2;
  plan.torn_write_prob = 0.2;
  int counts[4] = {0, 0, 0, 0};
  for (std::uint64_t h = 0; h < 400; ++h) {
    const FaultAction a = plan.action(h * 0x9e3779b97f4a7c15ull, 1);
    EXPECT_EQ(a, plan.action(h * 0x9e3779b97f4a7c15ull, 1));  // pure
    ++counts[static_cast<int>(a)];
  }
  // Roughly the configured mix (wide tolerances; the draw is hash-based).
  EXPECT_GT(counts[static_cast<int>(FaultAction::Throw)], 60);
  EXPECT_GT(counts[static_cast<int>(FaultAction::Hang)], 30);
  EXPECT_GT(counts[static_cast<int>(FaultAction::TornWrite)], 30);
  EXPECT_GT(counts[static_cast<int>(FaultAction::None)], 60);
}

// Worker-pool stress under concurrency — named *Thread* so the tsan leg
// (ctest --test-dir build-tsan -R Thread) picks it up.
TEST(SweepWorkerPoolThreadStress, SubmitThrowAbandonUnderLoad) {
  WorkerPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::uint64_t> hang_ids;
  constexpr int kJobs = 120;
  for (int i = 0; i < kJobs; ++i) {
    if (i % 10 == 3) {
      // A cooperative hang, abandoned below.
      hang_ids.push_back(pool.submit([&](const CancelToken& t) {
        while (!t.cancelled()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw std::runtime_error("hang cancelled");
      }));
    } else if (i % 10 == 7) {
      pool.submit([&](const CancelToken&) {
        ran.fetch_add(1);
        throw std::runtime_error("boom");
      });
    } else {
      pool.submit([&](const CancelToken&) {
        ran.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
    }
  }
  for (const std::uint64_t id : hang_ids) pool.abandon(id);

  int completions = 0, failures = 0, abandoned = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (completions < kJobs) {
    const auto d = pool.wait_any(deadline);
    ASSERT_TRUE(d.has_value()) << "pool lost a completion";
    ++completions;
    if (!d->ok) ++failures;
    if (d->abandoned) ++abandoned;
  }
  EXPECT_EQ(ran.load(), kJobs - static_cast<int>(hang_ids.size()));
  // Every hang either failed (cancelled mid-run, abandoned=true) or was
  // dropped while queued (also a failure); every thrower failed.
  EXPECT_EQ(failures, 2 * static_cast<int>(hang_ids.size()));
  EXPECT_EQ(abandoned, pool.workers_abandoned());
  // Only hangs caught *running* retire a worker; queued ones are dropped.
  EXPECT_LE(pool.workers_abandoned(), static_cast<int>(hang_ids.size()));
  EXPECT_EQ(pool.workers_spawned(), 4 + pool.workers_abandoned());
}

TEST(SweepWorkerPoolThreadStress, DestructorJoinsHungWorkers) {
  auto pool = std::make_unique<WorkerPool>(2);
  for (int i = 0; i < 4; ++i) {
    pool->submit([](const CancelToken& t) {
      while (!t.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  // Destruction cancels every token and joins all workers without waiting
  // on any external signal.
  pool.reset();
  SUCCEED();
}

}  // namespace
}  // namespace hybridnoc::sweep
