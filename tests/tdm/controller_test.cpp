#include "tdm/controller.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/state_io.hpp"

namespace hybridnoc {
namespace {

NocConfig dyn_cfg() {
  NocConfig c = NocConfig::hybrid_tdm_vc4();
  c.dynamic_slot_sizing = true;
  c.initial_active_slots = 16;
  c.resize_failure_threshold = 8;
  c.policy_epoch_cycles = 100;
  return c;
}

TEST(TdmController, StaticSizingUsesFullTable) {
  TdmController c(NocConfig::hybrid_tdm_vc4());
  EXPECT_EQ(c.active_slots(), 128);
  for (int i = 0; i < 100; ++i) c.record_setup_failure();
  for (Cycle t = 0; t < 1000; ++t) c.tick(t);
  EXPECT_EQ(c.active_slots(), 128);
  EXPECT_EQ(c.resizes(), 0);
}

TEST(TdmController, DynamicSizingStartsSmallAndDoublesOnFailures) {
  TdmController c(dyn_cfg());
  EXPECT_EQ(c.active_slots(), 16);
  int resets = 0;
  c.set_reset_hook([&](int new_active) {
    ++resets;
    EXPECT_EQ(new_active, 32);
  });
  for (int i = 0; i < 10; ++i) c.record_setup_failure();
  for (Cycle t = 0; t <= 200; ++t) c.tick(t);
  EXPECT_EQ(c.active_slots(), 32);
  EXPECT_EQ(resets, 1);
  EXPECT_EQ(c.resizes(), 1);
}

TEST(TdmController, FewFailuresNoResize) {
  TdmController c(dyn_cfg());
  for (int i = 0; i < 3; ++i) c.record_setup_failure();
  for (Cycle t = 0; t <= 500; ++t) c.tick(t);
  EXPECT_EQ(c.active_slots(), 16);
}

TEST(TdmController, ResetWaitsForCircuitQuiescence) {
  TdmController c(dyn_cfg());
  c.cs_flit_launched();
  for (int i = 0; i < 10; ++i) c.record_setup_failure();
  for (Cycle t = 0; t <= 300; ++t) c.tick(t);
  // Flit still in flight: resize pending, CS disallowed, size unchanged.
  EXPECT_EQ(c.active_slots(), 16);
  EXPECT_FALSE(c.cs_allowed());
  c.cs_flit_retired();
  c.tick(301);
  EXPECT_EQ(c.active_slots(), 32);
  EXPECT_TRUE(c.cs_allowed());
}

TEST(TdmController, ConfigInFlightDoesNotBlockReset) {
  TdmController c(dyn_cfg());
  EXPECT_EQ(c.table_generation(), 0u);
  c.config_launched();
  for (int i = 0; i < 10; ++i) c.record_setup_failure();
  for (Cycle t = 0; t <= 300; ++t) c.tick(t);
  // Config messages are generation-fenced, so the reset proceeds with one
  // still in flight; the straggler is discarded at its next endpoint.
  EXPECT_EQ(c.active_slots(), 32);
  EXPECT_EQ(c.table_generation(), 1u);
  c.config_retired();  // the stale message eventually drains and retires
  EXPECT_EQ(c.config_in_flight(), 0u);
}

TEST(TdmController, RequestResizeBumpsGenerationEachReset) {
  TdmController c(dyn_cfg());
  c.request_resize();
  EXPECT_FALSE(c.cs_allowed());
  c.tick(1);
  EXPECT_EQ(c.table_generation(), 1u);
  EXPECT_EQ(c.active_slots(), 32);
  EXPECT_TRUE(c.cs_allowed());
  c.request_resize();
  c.tick(2);
  EXPECT_EQ(c.table_generation(), 2u);
  EXPECT_EQ(c.active_slots(), 64);
  EXPECT_EQ(c.resizes(), 2);
}

TEST(TdmController, ResetHonoursQuiescedCheck) {
  TdmController c(dyn_cfg());
  bool planned = true;
  c.set_quiesced_check([&] { return !planned; });
  for (int i = 0; i < 10; ++i) c.record_setup_failure();
  for (Cycle t = 0; t <= 300; ++t) c.tick(t);
  EXPECT_EQ(c.active_slots(), 16);
  planned = false;
  c.tick(301);
  EXPECT_EQ(c.active_slots(), 32);
}

TEST(TdmController, StopsAtCapacity) {
  NocConfig cfg = dyn_cfg();
  cfg.initial_active_slots = 64;
  TdmController c(cfg);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 10; ++i) c.record_setup_failure();
    for (Cycle t = static_cast<Cycle>(round * 300);
         t <= static_cast<Cycle>(round * 300) + 300; ++t) {
      c.tick(t);
    }
  }
  EXPECT_EQ(c.active_slots(), 128);  // capacity, no further doubling
  EXPECT_EQ(c.resizes(), 1);
}

TEST(TdmControllerDeathTest, RetireWithoutLaunchAborts) {
  TdmController c(dyn_cfg());
  EXPECT_DEATH(c.cs_flit_retired(), "HN_CHECK");
}

// A hand-built controller archive whose active-slot count is `active`.
std::string controller_archive(int active) {
  StateWriter w;
  w.section("tdm_controller");
  w.i32(active);
  w.u64(/*generation=*/2);
  w.u64(/*failures=*/0);
  w.u64(/*successes=*/0);
  w.b(false);
  w.u64(/*epoch_start=*/100);
  w.i32(/*resizes=*/1);
  return w.seal();
}

void restore_from(TdmController& c, const std::string& sealed) {
  StateReader r(sealed);
  c.restore_state(r);
}

TEST(TdmControllerRestore, WellFormedArchiveRestores) {
  TdmController c(dyn_cfg());
  restore_from(c, controller_archive(32));
  EXPECT_EQ(c.active_slots(), 32);
  EXPECT_EQ(c.resizes(), 1);
}

TEST(TdmControllerRestore, ZeroActiveSlotsThrows) {
  TdmController c(dyn_cfg());
  EXPECT_THROW(restore_from(c, controller_archive(0)), StateError);
}

TEST(TdmControllerRestore, ActiveSlotsBeyondTableThrows) {
  const NocConfig cfg = dyn_cfg();
  TdmController c(cfg);
  EXPECT_THROW(restore_from(c, controller_archive(cfg.slot_table_size + 1)),
               StateError);
}

}  // namespace
}  // namespace hybridnoc
