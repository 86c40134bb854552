// Sweep-spec parsing and expansion: deterministic cartesian order,
// content-addressing, and structured (never-aborting) error reporting.
#include <gtest/gtest.h>

#include "sweep/canonical.hpp"
#include "sweep/sweep_spec.hpp"

namespace hybridnoc::sweep {
namespace {

TEST(SweepSpec, ExpandsCartesianLastAxisFastest) {
  SweepSpec spec;
  SpecError err;
  // `set k` comes after the preset axis: lines apply in file order and a
  // preset resets the config wholesale.
  ASSERT_TRUE(parse_sweep_spec("name = demo\n"
                               "sweep preset = packet_vc4, hybrid_tdm_vc4\n"
                               "set k = 4\n"
                               "sweep rate = 0.02, 0.05, 0.08\n",
                               &spec, &err))
      << err.to_string();
  EXPECT_EQ(spec.name, "demo");
  ASSERT_EQ(spec.points.size(), 6u);
  EXPECT_EQ(spec.axis_keys, (std::vector<std::string>{"preset", "rate"}));
  EXPECT_EQ(spec.points[0].label, "preset=packet_vc4,rate=0.02");
  EXPECT_EQ(spec.points[1].label, "preset=packet_vc4,rate=0.05");
  EXPECT_EQ(spec.points[2].label, "preset=packet_vc4,rate=0.08");
  EXPECT_EQ(spec.points[3].label, "preset=hybrid_tdm_vc4,rate=0.02");
  EXPECT_EQ(spec.points[0].cfg.arch, RouterArch::PacketSwitched);
  EXPECT_EQ(spec.points[3].cfg.arch, RouterArch::HybridTdm);
  EXPECT_EQ(spec.points[0].cfg.k, 4);
  EXPECT_EQ(spec.points[0].params.injection_rate, 0.02);
  EXPECT_EQ(spec.points[1].params.injection_rate, 0.05);
}

TEST(SweepSpec, HashesAreContentAddresses) {
  SweepSpec a, b;
  SpecError err;
  ASSERT_TRUE(parse_sweep_spec("set k = 4\nsweep rate = 0.02, 0.05\n", &a,
                               &err));
  // A differently written spec expanding to the same points shares hashes.
  ASSERT_TRUE(parse_sweep_spec("# same thing\nset k=4\nsweep rate=0.02,0.05\n",
                               &b, &err));
  ASSERT_EQ(a.points.size(), 2u);
  ASSERT_EQ(b.points.size(), 2u);
  EXPECT_EQ(a.points[0].hash, b.points[0].hash);
  EXPECT_EQ(a.points[1].hash, b.points[1].hash);
  EXPECT_NE(a.points[0].hash, a.points[1].hash);
  // ...but the spec digest is over the raw text (the resume guard).
  EXPECT_NE(a.spec_digest, b.spec_digest);
  EXPECT_EQ(a.points[0].hash,
            config_hash(a.points[0].cfg, a.points[0].params));
}

TEST(SweepSpec, SetAppliesInFileOrderOverPreset) {
  SweepSpec spec;
  SpecError err;
  ASSERT_TRUE(parse_sweep_spec("set preset = hybrid_tdm_vc4\n"
                               "set k = 8\n"
                               "set slot_table_size = 64\n",
                               &spec, &err))
      << err.to_string();
  ASSERT_EQ(spec.points.size(), 1u);
  EXPECT_EQ(spec.points[0].label, "point0");
  EXPECT_EQ(spec.points[0].cfg.arch, RouterArch::HybridTdm);
  EXPECT_EQ(spec.points[0].cfg.k, 8);
  EXPECT_EQ(spec.points[0].cfg.slot_table_size, 64);
}

TEST(SweepSpec, CommentsAndBlanksIgnored) {
  SweepSpec spec;
  SpecError err;
  ASSERT_TRUE(parse_sweep_spec("\n# header\n  \nset k = 4  # inline\n",
                               &spec, &err))
      << err.to_string();
  EXPECT_EQ(spec.points[0].cfg.k, 4);
}

TEST(SweepSpecErrors, UnknownKey) {
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(parse_sweep_spec("set kk = 4\n", &spec, &err));
  EXPECT_EQ(err.line, 1);
  EXPECT_NE(err.message.find("unknown key 'kk'"), std::string::npos);
}

TEST(SweepSpecErrors, BadValue) {
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(parse_sweep_spec("set k = four\n", &spec, &err));
  EXPECT_EQ(err.line, 1);
  EXPECT_FALSE(parse_sweep_spec("sweep rate = 0.1, fast\n", &spec, &err));
  EXPECT_EQ(err.line, 1);
  EXPECT_FALSE(parse_sweep_spec("set preset = nonesuch\n", &spec, &err));
  EXPECT_NE(err.message.find("unknown preset"), std::string::npos);
}

TEST(SweepSpecErrors, MalformedLine) {
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(parse_sweep_spec("set k 4\n", &spec, &err));
  EXPECT_FALSE(parse_sweep_spec("frobnicate k = 4\n", &spec, &err));
  EXPECT_FALSE(parse_sweep_spec("sweep rate =\n", &spec, &err));
  EXPECT_FALSE(parse_sweep_spec("", &spec, &err));
}

// Config cross-validation runs per expanded point and reports a structured
// error instead of aborting the process (NocConfig::validate throws
// InputError, which the expansion turns into a SpecError).
TEST(SweepSpecErrors, InvalidPointIsStructured) {
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(parse_sweep_spec("set k = -3\n", &spec, &err));
  EXPECT_NE(err.message.find("invalid"), std::string::npos);
}

// Every VC bitmask is 32 bits wide: a wider point is a spec error, not an
// abort when the run builds its routers.
TEST(SweepSpecErrors, MoreThan32VcsIsStructured) {
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(parse_sweep_spec("sweep num_vcs = 32, 33\n", &spec, &err));
  EXPECT_NE(err.message.find("point 'num_vcs=33' is invalid"), std::string::npos)
      << err.to_string();
  EXPECT_NE(err.message.find("32"), std::string::npos);
  EXPECT_TRUE(parse_sweep_spec("set num_vcs = 32\n", &spec, &err)) << err.to_string();
}

// A router allocates kNumPorts x num_vcs x depth buffer slots at its first
// flit: an absurd depth is a spec error, not a bad_alloc mid-run.
TEST(SweepSpecErrors, VcBufferDepthAbove1024IsStructured) {
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(parse_sweep_spec("sweep vc_buffer_depth = 1024, 1025\n", &spec, &err));
  EXPECT_NE(err.message.find("point 'vc_buffer_depth=1025' is invalid"),
            std::string::npos)
      << err.to_string();
  EXPECT_NE(err.message.find("1024"), std::string::npos);
  EXPECT_TRUE(parse_sweep_spec("set vc_buffer_depth = 1024\n", &spec, &err))
      << err.to_string();
}

// Node ids are k * k in an int: a radix beyond 46340 is a spec error, not
// an overflow when the point builds its mesh.
TEST(SweepSpecErrors, RadixAbove46340IsStructured) {
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(parse_sweep_spec("sweep k = 46340, 46341\n", &spec, &err));
  EXPECT_NE(err.message.find("point 'k=46341' is invalid"), std::string::npos)
      << err.to_string();
  EXPECT_NE(err.message.find("46340"), std::string::npos);
  EXPECT_FALSE(parse_sweep_spec("set k = 100000\n", &spec, &err));
  EXPECT_NE(err.message.find("46340"), std::string::npos) << err.to_string();
  EXPECT_TRUE(parse_sweep_spec("set k = 46340\n", &spec, &err)) << err.to_string();
}

// An SDM plane's single VC holds the port's whole storage, so the bound
// applies to depth x num_vcs there.
TEST(SweepSpecErrors, SdmPlaneDepthAbove1024IsStructured) {
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(parse_sweep_spec("set preset = hybrid_sdm_vc4\n"
                                "sweep vc_buffer_depth = 256, 257\n",
                                &spec, &err));
  EXPECT_NE(err.message.find("point 'vc_buffer_depth=257' is invalid"),
            std::string::npos)
      << err.to_string();
}

// Run parameters are checked against the point's config too: a rate above
// one packet per node per cycle, or the fast model on a config it cannot
// run, is a spec error, not an abort when the point runs.
TEST(SweepSpecErrors, RateAbovePacketSizeIsStructured) {
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(parse_sweep_spec("set preset = hybrid_tdm_vc4\n"
                                "set k = 4\n"
                                "sweep rate = 5, 9\n",
                                &spec, &err));
  EXPECT_NE(err.message.find("point 'rate=9' is invalid"), std::string::npos)
      << err.to_string();
  EXPECT_NE(err.message.find("rate"), std::string::npos);
}

TEST(SweepSpecErrors, FastFidelityOnCycleOnlyConfigIsStructured) {
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(parse_sweep_spec("set preset = hybrid_tdm_hop_vc4\n"
                                "sweep fidelity = cycle, fast\n",
                                &spec, &err));
  EXPECT_NE(err.message.find("point 'fidelity=fast' is invalid"),
            std::string::npos)
      << err.to_string();
  EXPECT_NE(err.message.find("path sharing"), std::string::npos);
}

TEST(SweepSpecErrors, ExpansionLimit) {
  std::string text;
  // 8 axes x 10 values = 10^8 points: far past the limit.
  for (int i = 0; i < 8; ++i) {
    text += "sweep seed = 1,2,3,4,5,6,7,8,9,10\n";
  }
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(parse_sweep_spec(text, &spec, &err));
  EXPECT_NE(err.message.find("limit"), std::string::npos);
}

TEST(SweepSpec, LoadMissingFileIsStructured) {
  SweepSpec spec;
  SpecError err;
  EXPECT_FALSE(load_sweep_spec("/nonexistent/spec.txt", &spec, &err));
  EXPECT_NE(err.message.find("cannot read spec"), std::string::npos);
}

// The canonical form must separate points that differ in any behavioral
// knob.
TEST(Canonical, HashSeparatesBehavioralKnobs) {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(4);
  RunParams params;
  const std::uint64_t base = config_hash(cfg, params);

  NocConfig cfg2 = cfg;
  cfg2.slot_table_size = 64;
  EXPECT_NE(config_hash(cfg2, params), base);

  RunParams p2 = params;
  p2.measure_packets += 1;
  EXPECT_NE(config_hash(cfg, p2), base);

  RunParams p3 = params;
  p3.injection_rate += 0.01;
  EXPECT_NE(config_hash(cfg, p3), base);

  // Engine knobs proven bit-identical are NOT part of the identity.
  NocConfig cfg3 = cfg;
  cfg3.tick_threads = 4;
  EXPECT_EQ(config_hash(cfg3, params), base);
}

// Point hashes name sweep points and cached results: a change of the
// canonical bytes must come with a kCanonicalVersion bump.
TEST(Canonical, HashPinned) {
  NocConfig cfg = NocConfig::hybrid_tdm_hop_vct(4);
  cfg.link_ber = 1e-6;
  RunParams params;
  params.pattern = TrafficPattern::Transpose;
  params.injection_rate = 0.15;
  params.fidelity = Fidelity::Fast;
  EXPECT_EQ(config_hash(cfg, params), 0x3946870ef07b5121ULL)
      << std::hex << "got 0x" << config_hash(cfg, params);
}

}  // namespace
}  // namespace hybridnoc::sweep
