#include "common/config.hpp"

#include <gtest/gtest.h>

#include "expect_input_error.hpp"

namespace hybridnoc {
namespace {

TEST(NocConfig, TableIDefaults) {
  const NocConfig c;
  EXPECT_EQ(c.k, 6);
  EXPECT_EQ(c.num_nodes(), 36);
  EXPECT_EQ(c.num_vcs, 4);
  EXPECT_EQ(c.vc_buffer_depth, 5);
  EXPECT_EQ(c.channel_bytes, 16);
  EXPECT_EQ(c.ps_data_flits, 5);
  EXPECT_EQ(c.cs_data_flits, 4);
  EXPECT_EQ(c.config_flits, 1);
  EXPECT_EQ(c.slot_table_size, 128);
  EXPECT_DOUBLE_EQ(c.reservation_threshold, 0.9);
  c.validate();
}

TEST(NocConfig, PresetArchitectures) {
  EXPECT_EQ(NocConfig::packet_vc4().arch, RouterArch::PacketSwitched);
  EXPECT_EQ(NocConfig::hybrid_tdm_vc4().arch, RouterArch::HybridTdm);
  EXPECT_EQ(NocConfig::hybrid_sdm_vc4().arch, RouterArch::HybridSdm);
  EXPECT_FALSE(NocConfig::hybrid_tdm_vc4().vc_power_gating);
  EXPECT_TRUE(NocConfig::hybrid_tdm_vct().vc_power_gating);
  const auto hop = NocConfig::hybrid_tdm_hop_vc4();
  EXPECT_TRUE(hop.hitchhiker_sharing);
  EXPECT_TRUE(hop.vicinity_sharing);
  EXPECT_FALSE(hop.vc_power_gating);
  EXPECT_TRUE(NocConfig::hybrid_tdm_hop_vct().vc_power_gating);
}

TEST(NocConfig, SlotTableScalesWithNetworkSize) {
  // Section IV-D: 256-entry tables for the 8x8 and 16x16 networks.
  EXPECT_EQ(NocConfig::hybrid_tdm_vc4(6).slot_table_size, 128);
  EXPECT_EQ(NocConfig::hybrid_tdm_vc4(8).slot_table_size, 256);
  EXPECT_EQ(NocConfig::hybrid_tdm_vc4(16).slot_table_size, 256);
}

TEST(NocConfig, ReservationDuration) {
  NocConfig c = NocConfig::hybrid_tdm_vc4();
  // 64-byte line / 16-byte flits = 4 slots (Section II-B).
  EXPECT_EQ(c.reservation_duration(), 4);
  // Vicinity-sharing needs one extra header slot (Section III-A2).
  c.vicinity_sharing = true;
  EXPECT_EQ(c.reservation_duration(), 5);
}

TEST(NocConfig, ValidateAcceptsAllPresets) {
  for (int k : {4, 6, 8, 16}) {
    NocConfig::packet_vc4(k).validate();
    NocConfig::hybrid_tdm_vc4(k).validate();
    NocConfig::hybrid_tdm_vct(k).validate();
    NocConfig::hybrid_sdm_vc4(k).validate();
    NocConfig::hybrid_tdm_hop_vc4(k).validate();
    NocConfig::hybrid_tdm_hop_vct(k).validate();
  }
}

TEST(NocConfigDeathTest, RejectsNonPowerOfTwoSlotTable) {
  NocConfig c = NocConfig::hybrid_tdm_vc4();
  c.slot_table_size = 100;
  EXPECT_INPUT_ERROR(c.validate(), "power of two");
}

TEST(NocConfigDeathTest, RejectsInvertedVcThresholds) {
  NocConfig c = NocConfig::hybrid_tdm_vct();
  c.vc_threshold_high = 0.1;
  c.vc_threshold_low = 0.5;
  EXPECT_INPUT_ERROR(c.validate(), "vc_threshold_high");
}

// The engine starts one worker per shard, so a huge tick_threads must be
// rejected by validate() before a network starts any.
TEST(NocConfigDeathTest, RejectsTickThreadsAboveTheLimit) {
  NocConfig c = NocConfig::hybrid_tdm_vc4(64);
  c.tick_threads = NocConfig::kMaxTickThreads;
  c.validate();
  c.tick_threads = 100000;
  EXPECT_INPUT_ERROR(c.validate(), "tick_threads must be at most 256");
}

TEST(NocConfig, SummaryNamesArchitecture) {
  EXPECT_NE(NocConfig::hybrid_tdm_vc4().summary().find("Hybrid-TDM"),
            std::string::npos);
  EXPECT_NE(NocConfig::packet_vc4().summary().find("Packet"), std::string::npos);
  EXPECT_NE(NocConfig::hybrid_tdm_hop_vct().summary().find("vc-gating"),
            std::string::npos);
}

}  // namespace
}  // namespace hybridnoc
