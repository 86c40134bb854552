// Golden-trace harness: each workload generator is pinned to a checked-in
// shrunk reference trace (tests/workloads/fixtures/). The tests regenerate
// the trace from the same parameters and demand bit-identical entries, so
// any change to generator arithmetic, rng consumption order or descriptor
// contents shows up as a diff against a reviewable fixture; save/load round
// trips prove the trace format carries the workloads losslessly.
//
// Regenerating a fixture after an intentional generator change (one shell
// command per fixture, wrapped here):
//   build/tools/hybridnoc trace-gen --workload nn:resnet50 --k 6
//     --intensity 0.05 --iterations 1 --seed 9
//     --out tests/workloads/fixtures/nn_resnet50_6x6.trace
//   build/tools/hybridnoc trace-gen --workload coherence --k 6
//     --cycles 300 --seed 9
//     --out tests/workloads/fixtures/coherence_6x6.trace
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "common/fileio.hpp"
#include "expect_input_error.hpp"
#include "fastmodel/fast_model.hpp"
#include "sim/driver.hpp"
#include "traffic/trace.hpp"
#include "workloads/workload.hpp"

namespace hybridnoc {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(HN_WORKLOAD_FIXTURE_DIR) + "/" + name;
}

WorkloadOptions nn_fixture_options() {
  WorkloadOptions o;
  o.k = 6;
  o.seed = 9;
  o.intensity = 0.05;
  o.nn_iterations = 1;
  return o;
}

WorkloadOptions coherence_fixture_options() {
  WorkloadOptions o;
  o.k = 6;
  o.seed = 9;
  o.coherence_cycles = 300;
  return o;
}

std::vector<TraceEntry> load_fixture(const std::string& name) {
  std::ifstream in(fixture_path(name));
  EXPECT_TRUE(in.good()) << "missing fixture " << fixture_path(name)
                         << " — regenerate per the header comment";
  return load_trace(in);
}

TEST(GoldenTraceTest, NnMatchesCheckedInReference) {
  const WorkloadTrace wt = build_workload("nn:resnet50", nn_fixture_options());
  const auto golden = load_fixture("nn_resnet50_6x6.trace");
  ASSERT_FALSE(wt.entries.empty());
  EXPECT_EQ(wt.entries, golden);
}

TEST(GoldenTraceTest, CoherenceMatchesCheckedInReference) {
  const WorkloadTrace wt =
      build_workload("coherence", coherence_fixture_options());
  const auto golden = load_fixture("coherence_6x6.trace");
  ASSERT_FALSE(wt.entries.empty());
  EXPECT_EQ(wt.entries, golden);
}

TEST(GoldenTraceTest, SaveLoadRoundTripIsLossless) {
  for (const char* spec : {"nn:transformer", "coherence"}) {
    SCOPED_TRACE(spec);
    WorkloadOptions o;
    o.k = 6;
    o.seed = 5;
    o.intensity = spec[0] == 'n' ? 0.1 : 1.0;
    o.nn_iterations = 1;
    o.coherence_cycles = 200;
    const WorkloadTrace wt = build_workload(spec, o);
    std::stringstream buf;
    save_trace(buf, wt.entries);
    EXPECT_EQ(load_trace(buf), wt.entries);
  }
}

TEST(GoldenTraceTest, GoldenTracesReplayThroughBothFidelities) {
  // Acceptance: both workloads replay from their golden traces end to end.
  // Tiny windows keep this a smoke check; the accuracy harness owns the
  // drift gates.
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(6);
  for (const char* name : {"nn_resnet50_6x6.trace", "coherence_6x6.trace"}) {
    SCOPED_TRACE(name);
    const auto entries = load_fixture(name);
    ASSERT_FALSE(entries.empty());
    RunParams p;
    p.warmup_packets = 50;
    p.warmup_min_cycles = 200;
    p.measure_packets = 300;
    p.seed = 1;
    p.fidelity = Fidelity::Cycle;
    const RunResult cycle = run_trace(cfg, entries, p);
    EXPECT_GT(cycle.measured_packets, 0u);
    p.fidelity = Fidelity::Fast;
    const RunResult fast = run_trace(cfg, entries, p);
    EXPECT_GT(fast.measured_packets, 0u);
    // Replays are themselves deterministic.
    p.fidelity = Fidelity::Cycle;
    const RunResult again = run_trace(cfg, entries, p);
    EXPECT_EQ(cycle.measured_packets, again.measured_packets);
    EXPECT_EQ(cycle.cycles, again.cycles);
    EXPECT_DOUBLE_EQ(cycle.avg_latency, again.avg_latency);
    EXPECT_DOUBLE_EQ(cycle.total_energy_pj(), again.total_energy_pj());
  }
}

TEST(GoldenTraceDeathTest, RunTraceRejectsBrokenTraces) {
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  RunParams p;
  EXPECT_INPUT_ERROR((void)run_trace(cfg, {}, p), "empty trace");
  EXPECT_INPUT_ERROR((void)run_trace(cfg, {TraceEntry{0, 3, 3, 5}}, p),
                     "self-directed");
  EXPECT_INPUT_ERROR((void)run_trace(cfg, {TraceEntry{0, 0, 99, 5}}, p),
                     "outside the mesh");
}

TEST(GoldenTraceDeathTest, BothFidelitiesValidateEntries) {
  // run_trace and run_trace_fast share one validator: no out-of-mesh index
  // or zero-length message reaches either engine, and a message too long
  // for the fast model's 16-bit transfer length is refused, not truncated.
  const NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  RunParams p;
  EXPECT_INPUT_ERROR((void)run_trace_fast(cfg, {TraceEntry{0, 0, 99, 5}}, p),
                     "outside the mesh");
  EXPECT_INPUT_ERROR((void)run_trace_fast(cfg, {TraceEntry{0, 3, 3, 5}}, p),
                     "self-directed");
  EXPECT_INPUT_ERROR((void)run_trace_fast(cfg, {}, p), "empty trace");
  EXPECT_INPUT_ERROR((void)run_trace(cfg, {TraceEntry{0, 0, 1, 0}}, p),
                     "flits outside");
  EXPECT_INPUT_ERROR((void)run_trace_fast(cfg, {TraceEntry{0, 0, 1, 70000}}, p),
                     "flits outside");
  EXPECT_INPUT_ERROR((void)run_trace_fast(
                         cfg, {TraceEntry{5, 0, 1, 5}, TraceEntry{3, 1, 2, 5}}, p),
                     "cycle order");
}

TEST(GoldenTraceDeathTest, WorkloadSpecRejectsUnknownAndUnreadable) {
  WorkloadOptions o;
  o.k = 6;
  EXPECT_INPUT_ERROR((void)build_workload("bogus", o), "unknown workload");
  EXPECT_INPUT_ERROR((void)build_workload("nn:@/no/such/file", o), "cannot open");
  EXPECT_INPUT_ERROR((void)build_workload("nn:alexnet", o), "unknown builtin");
}

TEST(GoldenTraceTest, FileDescriptorsLoadLikeBuiltins) {
  // nn:@file must resolve through the same parser: write the bundled
  // resnet50 text to a file and expect an identical trace.
  const std::string path = ::testing::TempDir() + "resnet50_6.nn";
  ASSERT_TRUE(
      write_file_atomic(path, builtin_nn_descriptor_text("resnet50", 6)));
  const WorkloadOptions o = nn_fixture_options();
  const WorkloadTrace from_file = build_workload("nn:@" + path, o);
  const WorkloadTrace builtin = build_workload("nn:resnet50", o);
  EXPECT_EQ(from_file.entries, builtin.entries);
  EXPECT_DOUBLE_EQ(from_file.offered_rate, builtin.offered_rate);
}

}  // namespace
}  // namespace hybridnoc
