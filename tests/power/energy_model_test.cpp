#include "power/energy_model.hpp"

#include <gtest/gtest.h>

namespace hybridnoc {
namespace {

TEST(EnergyModel, ZeroCountersZeroEnergy) {
  const auto b = compute_breakdown(EnergyCounters{}, EnergyParams::nangate45());
  EXPECT_DOUBLE_EQ(b.total(), 0.0);
}

TEST(EnergyModel, BufferDynamicEnergy) {
  EnergyCounters c;
  c.buffer_writes = 10;
  c.buffer_reads = 10;
  const auto p = EnergyParams::nangate45();
  const auto b = compute_breakdown(c, p);
  EXPECT_DOUBLE_EQ(b.dynamic(EnergyComponent::Buffer),
                   10 * p.buffer_write + 10 * p.buffer_read);
  EXPECT_DOUBLE_EQ(b.total_static(), 0.0);
}

TEST(EnergyModel, CsComponentCollectsAllCircuitHardware) {
  EnergyCounters c;
  c.slot_table_reads = 3;
  c.slot_table_writes = 2;
  c.dlt_accesses = 5;
  c.cs_latch_flits = 7;
  const auto p = EnergyParams::nangate45();
  const auto b = compute_breakdown(c, p);
  EXPECT_DOUBLE_EQ(b.dynamic(EnergyComponent::CsComponent),
                   3 * p.slot_table_read + 2 * p.slot_table_write +
                       5 * p.dlt_access + 7 * p.cs_latch);
}

TEST(EnergyModel, LeakageScalesWithActivityIntegrals) {
  EnergyCounters c;
  c.cycles = 100;
  c.vc_active_cycles = 100 * 20;  // 20 powered VCs for 100 cycles
  c.slot_entry_active_cycles = 100 * 128;
  c.link_active_cycles = 100 * 4;
  const auto p = EnergyParams::nangate45();
  const auto b = compute_breakdown(c, p);
  EXPECT_DOUBLE_EQ(b.leakage(EnergyComponent::Buffer), 2000 * p.leak_per_vc_buffer);
  EXPECT_DOUBLE_EQ(b.leakage(EnergyComponent::CsComponent),
                   12800 * p.leak_slot_entry);
  EXPECT_DOUBLE_EQ(b.leakage(EnergyComponent::Crossbar), 100 * p.leak_xbar);
  EXPECT_DOUBLE_EQ(b.leakage(EnergyComponent::Link), 400 * p.leak_link);
  EXPECT_DOUBLE_EQ(b.leakage(EnergyComponent::Clock), 0.0);
}

TEST(EnergyModel, GatingVcsReducesBufferLeakage) {
  EnergyCounters full, gated;
  full.cycles = gated.cycles = 1000;
  full.vc_active_cycles = 1000 * 20;  // 4 VCs x 5 ports
  gated.vc_active_cycles = 1000 * 5;  // 1 VC x 5 ports
  const auto p = EnergyParams::nangate45();
  EXPECT_LT(compute_breakdown(gated, p).leakage(EnergyComponent::Buffer),
            compute_breakdown(full, p).leakage(EnergyComponent::Buffer));
}

TEST(EnergyModel, CountersMergeAdditively) {
  EnergyCounters a, b;
  a.buffer_writes = 3;
  a.cycles = 10;
  b.buffer_writes = 4;
  b.cycles = 20;
  b.link_flits = 7;
  a += b;
  EXPECT_EQ(a.buffer_writes, 7u);
  EXPECT_EQ(a.cycles, 30u);
  EXPECT_EQ(a.link_flits, 7u);
}

TEST(EnergyModel, BreakdownMergeMatchesCounterMerge) {
  EnergyCounters a, b;
  a.buffer_writes = 5;
  a.xbar_flits = 9;
  a.cycles = 50;
  b.link_flits = 11;
  b.vc_active_cycles = 60;
  const auto p = EnergyParams::nangate45();
  EnergyBreakdown merged = compute_breakdown(a, p);
  merged += compute_breakdown(b, p);
  EnergyCounters both = a;
  both += b;
  EXPECT_DOUBLE_EQ(merged.total(), compute_breakdown(both, p).total());
}

TEST(EnergyModel, ComponentSharesAreCalibrated) {
  // A representative moderate-load activity mix: buffer energy must dominate
  // router dynamic energy (the premise of the paper's savings — references
  // [3], [4], [21]).
  EnergyCounters c;
  const std::uint64_t flit_hops = 100000;
  c.buffer_writes = flit_hops;
  c.buffer_reads = flit_hops;
  c.xbar_flits = flit_hops;
  c.link_flits = flit_hops;
  c.vc_arbs = flit_hops / 5;
  c.sw_arbs = flit_hops;
  const auto b = compute_breakdown(c, EnergyParams::nangate45());
  EXPECT_GT(b.dynamic(EnergyComponent::Buffer), b.dynamic(EnergyComponent::Crossbar));
  EXPECT_GT(b.dynamic(EnergyComponent::Buffer), b.dynamic(EnergyComponent::Link));
  EXPECT_GT(b.dynamic(EnergyComponent::Buffer), 10.0 * b.dynamic(EnergyComponent::Arbiter));
}

TEST(EnergyModel, SlotTableLeakageIsSmallShareOfRouter) {
  // Fig 9(b): CS static overhead ~2%. One router, 128 active entries,
  // 20 powered VCs.
  EnergyCounters c;
  c.cycles = 10000;
  c.vc_active_cycles = 10000 * 20;
  c.slot_entry_active_cycles = 10000 * 128;
  c.dlt_active_cycles = 10000;
  c.cs_misc_active_cycles = 10000;
  const auto b = compute_breakdown(c, EnergyParams::nangate45());
  const double share = b.leakage(EnergyComponent::CsComponent) / b.total_static();
  EXPECT_GT(share, 0.01);
  EXPECT_LT(share, 0.12);
}

// Every field is in kEnergyFields, so sums, window differences and the
// equivalence suites' diagnostic all cover it.
TEST(EnergyModel, FieldTableCoversEveryCounter) {
  EnergyCounters a;
  std::uint64_t v = 1;
  for (const EnergyField& f : kEnergyFields) a.*f.member = v++;
  EnergyCounters sum = a;
  sum += a;
  for (const EnergyField& f : kEnergyFields) {
    EXPECT_EQ(sum.*f.member, 2 * (a.*f.member)) << f.name;
  }
  EXPECT_EQ(sum - a, a);
  EXPECT_EQ(first_difference(a, a), "");
  EnergyCounters b = a;
  b.link_active_cycles += 1;
  EXPECT_NE(a, b);
  EXPECT_EQ(first_difference(a, b), "link_active_cycles: 16 vs 17");
}

}  // namespace
}  // namespace hybridnoc
