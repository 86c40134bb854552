// Absolute-output pins for both fidelities. Every other equivalence suite
// compares two runs of the same code (scheduler, thread, pool and
// checkpoint twins); this one compares each engine against recorded
// numbers, so a refactor that moves policy between the cycle core and the
// fast model cannot shift either one without a diff here. Each record holds
// every RunResult (or HeteroMetrics) field as an exact hexfloat/integer
// literal plus all 16 energy counters; one HybridNetwork run also pins the
// switching-policy totals (setups, failures, circuit packets, sharing,
// give-ups).
//
// Regenerating after an intentional behaviour change: run
//   build/tests/test_properties --gtest_filter='FidelityPin.*'
// Each mismatching test prints its whole actual record as a ready-to-paste
// initializer; replace the matching kExpected... block below with it and
// say in the change description why the numbers moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fastmodel/fast_model.hpp"
#include "hetero/benchmarks.hpp"
#include "hetero/hetero_system.hpp"
#include "sim/driver.hpp"
#include "tdm/hybrid_network.hpp"
#include "traffic/synthetic.hpp"
#include "traffic/trace.hpp"

namespace hybridnoc {
namespace {

/// One pinned value: an exact integer or an exact double.
struct Field {
  const char* name;
  bool is_int;
  std::uint64_t u;
  double d;
  Field(const char* n, unsigned long long v)
      : name(n), is_int(true), u(v), d(0.0) {}
  Field(const char* n, double v) : name(n), is_int(false), u(0), d(v) {}
};
using Record = std::vector<Field>;

bool same(const Field& a, const Field& b) {
  if (std::strcmp(a.name, b.name) != 0 || a.is_int != b.is_int) return false;
  return a.is_int ? a.u == b.u : std::memcmp(&a.d, &b.d, sizeof a.d) == 0;
}

std::string format(const Record& rec) {
  std::string out;
  char buf[160];
  for (const Field& f : rec) {
    if (f.is_int) {
      std::snprintf(buf, sizeof buf, "    {\"%s\", %lluULL},\n", f.name,
                    static_cast<unsigned long long>(f.u));
    } else {
      std::snprintf(buf, sizeof buf, "    {\"%s\", %a},\n", f.name, f.d);
    }
    out += buf;
  }
  return out;
}

void expect_pinned(const Record& actual, const Record& expected) {
  bool match = actual.size() == expected.size();
  for (size_t i = 0; match && i < actual.size(); ++i)
    match = same(actual[i], expected[i]);
  EXPECT_TRUE(match) << "pinned record changed; actual record:\n{\n"
                     << format(actual) << "}";
}

unsigned long long u(std::uint64_t v) { return v; }

void add_energy(Record& r, const EnergyCounters& e) {
  r.insert(r.end(), {
      {"energy.buffer_writes", u(e.buffer_writes)},
      {"energy.buffer_reads", u(e.buffer_reads)},
      {"energy.xbar_flits", u(e.xbar_flits)},
      {"energy.vc_arbs", u(e.vc_arbs)},
      {"energy.sw_arbs", u(e.sw_arbs)},
      {"energy.link_flits", u(e.link_flits)},
      {"energy.slot_table_reads", u(e.slot_table_reads)},
      {"energy.slot_table_writes", u(e.slot_table_writes)},
      {"energy.dlt_accesses", u(e.dlt_accesses)},
      {"energy.cs_latch_flits", u(e.cs_latch_flits)},
      {"energy.cycles", u(e.cycles)},
      {"energy.vc_active_cycles", u(e.vc_active_cycles)},
      {"energy.slot_entry_active_cycles", u(e.slot_entry_active_cycles)},
      {"energy.dlt_active_cycles", u(e.dlt_active_cycles)},
      {"energy.cs_misc_active_cycles", u(e.cs_misc_active_cycles)},
      {"energy.link_active_cycles", u(e.link_active_cycles)},
  });
}

Record record_of(const RunResult& r) {
  Record rec = {
      {"offered_rate", r.offered_rate},
      {"accepted_rate", r.accepted_rate},
      {"avg_latency", r.avg_latency},
      {"p99_latency", r.p99_latency},
      {"saturated", u(r.saturated ? 1 : 0)},
      {"measured_packets", u(r.measured_packets)},
      {"cycles", u(r.cycles)},
      {"cs_flit_fraction", r.cs_flit_fraction},
      {"config_flit_fraction", r.config_flit_fraction},
  };
  add_energy(rec, r.energy);
  return rec;
}

Record record_of(const HeteroMetrics& m) {
  Record rec = {
      {"cycles", u(m.cycles)},
      {"cpu_ipc", m.cpu_ipc},
      {"gpu_throughput", m.gpu_throughput},
      {"injection_rate", m.injection_rate},
      {"gpu_injection_rate", m.gpu_injection_rate},
      {"cpu_injection_rate", m.cpu_injection_rate},
      {"cs_flit_fraction", m.cs_flit_fraction},
      {"config_flit_fraction", m.config_flit_fraction},
  };
  add_energy(rec, m.energy);
  return rec;
}

RunParams short_params(TrafficPattern pattern, double rate) {
  RunParams p;
  p.pattern = pattern;
  p.injection_rate = rate;
  p.warmup_packets = 500;
  p.warmup_min_cycles = 1000;
  p.measure_packets = 3000;
  p.seed = 5;
  return p;
}

/// A deep backlog: 6x6 uniform random far past saturation, with the
/// latency cap lifted so the run keeps going while link queues grow beyond
/// the fast model's 4096-cycle calendar ring. Hop and delivery events then
/// spill into the calendars' overflow heaps, many of them due in a cycle
/// that also has ring entries, so the record pins the tie order too.
RunParams backlog_params() {
  RunParams p = short_params(TrafficPattern::UniformRandom, 0.6);
  p.measure_packets = 60000;
  p.max_cycles = 40000;
  p.latency_cap = 1e9;
  return p;
}

/// The fixture repeats each pair only about four times per policy epoch, so
/// the default frequency threshold would never set up a circuit; a lower one
/// makes the trace runs exercise setups and circuit transfers.
NocConfig trace_cfg() {
  NocConfig cfg = NocConfig::hybrid_tdm_vc4(6);
  cfg.path_freq_threshold = 3;
  return cfg;
}

std::vector<TraceEntry> nn_fixture() {
  std::ifstream in(std::string(HN_WORKLOAD_FIXTURE_DIR) +
                   "/nn_resnet50_6x6.trace");
  EXPECT_TRUE(in.good()) << "missing NN trace fixture";
  return load_trace(in);
}

// --- expected records (regenerate per the header comment) -----------------

const Record kExpectedCycleTdm = {
    {"offered_rate", 0x1.3333333333333p-3},
    {"accepted_rate", 0x1.3430cbfe2a605p-3},
    {"avg_latency", 0x1.a1f7ced916876p+4},
    {"p99_latency", 0x1.4p+5},
    {"saturated", 0ULL},
    {"measured_packets", 3000ULL},
    {"cycles", 2791ULL},
    {"cs_flit_fraction", 0x1.509abd0751783p-4},
    {"config_flit_fraction", 0x0p+0},
    {"energy.buffer_writes", 49546ULL},
    {"energy.buffer_reads", 49567ULL},
    {"energy.xbar_flits", 54293ULL},
    {"energy.vc_arbs", 9908ULL},
    {"energy.sw_arbs", 49567ULL},
    {"energy.link_flits", 39470ULL},
    {"energy.slot_table_reads", 100476ULL},
    {"energy.slot_table_writes", 0ULL},
    {"energy.dlt_accesses", 0ULL},
    {"energy.cs_latch_flits", 4722ULL},
    {"energy.cycles", 100476ULL},
    {"energy.vc_active_cycles", 2009520ULL},
    {"energy.slot_entry_active_cycles", 12860928ULL},
    {"energy.dlt_active_cycles", 0ULL},
    {"energy.cs_misc_active_cycles", 100476ULL},
    {"energy.link_active_cycles", 334920ULL},
};
const Record kExpectedCycleTrace = {
    {"offered_rate", 0x1.f786f5b62a5d3p-8},
    {"accepted_rate", 0x1.f7395a7ee3dd8p-8},
    {"avg_latency", 0x1.add0369d036a5p+3},
    {"p99_latency", 0x1.3cbaf159fbd09p+4},
    {"saturated", 0ULL},
    {"measured_packets", 3000ULL},
    {"cycles", 26448ULL},
    {"cs_flit_fraction", 0x1.435e50d79435ep-6},
    {"config_flit_fraction", 0x1.7ffb88fb6e315p-8},
    {"energy.buffer_writes", 14387ULL},
    {"energy.buffer_reads", 14384ULL},
    {"energy.xbar_flits", 14669ULL},
    {"energy.vc_arbs", 6021ULL},
    {"energy.sw_arbs", 14384ULL},
    {"energy.link_flits", 7338ULL},
    {"energy.slot_table_reads", 952128ULL},
    {"energy.slot_table_writes", 232ULL},
    {"energy.dlt_accesses", 0ULL},
    {"energy.cs_latch_flits", 288ULL},
    {"energy.cycles", 952128ULL},
    {"energy.vc_active_cycles", 19042560ULL},
    {"energy.slot_entry_active_cycles", 121872384ULL},
    {"energy.dlt_active_cycles", 0ULL},
    {"energy.cs_misc_active_cycles", 952128ULL},
    {"energy.link_active_cycles", 3173760ULL},
};
const Record kExpectedCycleHop = {
    {"offered_rate", 0x1.999999999999ap-3},
    {"accepted_rate", 0x1.8fe6cf316fc89p-3},
    {"avg_latency", 0x1.1fad81dff517bp+5},
    {"p99_latency", 0x1.0af5c28f5c29p+6},
    {"saturated", 0ULL},
    {"measured_packets", 3004ULL},
    {"cycles", 2168ULL},
    {"cs_flit_fraction", 0x1.1375de2b9c2f9p-5},
    {"config_flit_fraction", 0x1.5d6482e4db23dp-5},
    {"energy.buffer_writes", 73524ULL},
    {"energy.buffer_reads", 73546ULL},
    {"energy.xbar_flits", 75542ULL},
    {"energy.vc_arbs", 16627ULL},
    {"energy.sw_arbs", 73299ULL},
    {"energy.link_flits", 59815ULL},
    {"energy.slot_table_reads", 78048ULL},
    {"energy.slot_table_writes", 6705ULL},
    {"energy.dlt_accesses", 3233ULL},
    {"energy.cs_latch_flits", 2261ULL},
    {"energy.cycles", 78048ULL},
    {"energy.vc_active_cycles", 1449280ULL},
    {"energy.slot_entry_active_cycles", 4995072ULL},
    {"energy.dlt_active_cycles", 78048ULL},
    {"energy.cs_misc_active_cycles", 78048ULL},
    {"energy.link_active_cycles", 260160ULL},
};
const Record kExpectedCycleDrained = {
    {"offered_rate", 0x1.3333333333333p-3},
    {"accepted_rate", 0x1.f2018b37b3b4ap-4},
    {"avg_latency", 0x1.3413cc1e098e2p+5},
    {"p99_latency", 0x1.4p+6},
    {"saturated", 0ULL},
    {"measured_packets", 3000ULL},
    {"cycles", 3427ULL},
    {"cs_flit_fraction", 0x1.d9b5b8a68d3bfp-4},
    {"config_flit_fraction", 0x0p+0},
    {"energy.buffer_writes", 72654ULL},
    {"energy.buffer_reads", 72622ULL},
    {"energy.xbar_flits", 83342ULL},
    {"energy.vc_arbs", 14534ULL},
    {"energy.sw_arbs", 72622ULL},
    {"energy.link_flits", 68743ULL},
    {"energy.slot_table_reads", 123372ULL},
    {"energy.slot_table_writes", 0ULL},
    {"energy.dlt_accesses", 0ULL},
    {"energy.cs_latch_flits", 10736ULL},
    {"energy.cycles", 123372ULL},
    {"energy.vc_active_cycles", 2467440ULL},
    {"energy.slot_entry_active_cycles", 15791616ULL},
    {"energy.dlt_active_cycles", 0ULL},
    {"energy.cs_misc_active_cycles", 123372ULL},
    {"energy.link_active_cycles", 411240ULL},
};
const Record kExpectedHetero = {
    {"cycles", 8000ULL},
    {"cpu_ipc", 0x1.5d0e560418937p+0},
    {"gpu_throughput", 0x1.5be76c8b43958p-1},
    {"injection_rate", 0x1.b225c6336d744p-3},
    {"gpu_injection_rate", 0x1.6933a7b55c9d7p-3},
    {"cpu_injection_rate", 0x1.1a485cd7b900bp-5},
    {"cs_flit_fraction", 0x1.0fb9fa25dc912p-1},
    {"config_flit_fraction", 0x1.6687e4397f16p-8},
    {"energy.buffer_writes", 123603ULL},
    {"energy.buffer_reads", 123624ULL},
    {"energy.xbar_flits", 237954ULL},
    {"energy.vc_arbs", 57520ULL},
    {"energy.sw_arbs", 123589ULL},
    {"energy.link_flits", 177010ULL},
    {"energy.slot_table_reads", 288000ULL},
    {"energy.slot_table_writes", 1115ULL},
    {"energy.dlt_accesses", 1888ULL},
    {"energy.cs_latch_flits", 114478ULL},
    {"energy.cycles", 288000ULL},
    {"energy.vc_active_cycles", 3764010ULL},
    {"energy.slot_entry_active_cycles", 18432000ULL},
    {"energy.dlt_active_cycles", 288000ULL},
    {"energy.cs_misc_active_cycles", 288000ULL},
    {"energy.link_active_cycles", 960000ULL},
};
const Record kExpectedFastTdmUniform = {
    {"offered_rate", 0x1.999999999999ap-3},
    {"accepted_rate", 0x1.9b16c7a319b17p-3},
    {"avg_latency", 0x1.19a38f6f5eff8p+5},
    {"p99_latency", 0x1.16bcccccccccdp+6},
    {"saturated", 0ULL},
    {"measured_packets", 3002ULL},
    {"cycles", 2109ULL},
    {"cs_flit_fraction", 0x1.9db896b37ce4ep-11},
    {"config_flit_fraction", 0x1.13ab444b720f6p-11},
    {"energy.buffer_writes", 76300ULL},
    {"energy.buffer_reads", 76300ULL},
    {"energy.xbar_flits", 76356ULL},
    {"energy.vc_arbs", 15300ULL},
    {"energy.sw_arbs", 76300ULL},
    {"energy.link_flits", 61141ULL},
    {"energy.slot_table_reads", 75924ULL},
    {"energy.slot_table_writes", 100ULL},
    {"energy.dlt_accesses", 0ULL},
    {"energy.cs_latch_flits", 56ULL},
    {"energy.cycles", 75924ULL},
    {"energy.vc_active_cycles", 1518480ULL},
    {"energy.slot_entry_active_cycles", 9718272ULL},
    {"energy.dlt_active_cycles", 0ULL},
    {"energy.cs_misc_active_cycles", 75924ULL},
    {"energy.link_active_cycles", 253080ULL},
};
const Record kExpectedFastTdmHotspot = {
    {"offered_rate", 0x1.999999999999ap-3},
    {"accepted_rate", 0x1.99f85b162b0c8p-3},
    {"avg_latency", 0x1.2d19f0fb38a95p+5},
    {"p99_latency", 0x1.52cp+6},
    {"saturated", 0ULL},
    {"measured_packets", 3000ULL},
    {"cycles", 2121ULL},
    {"cs_flit_fraction", 0x1.3ce8cc1738312p-7},
    {"config_flit_fraction", 0x1.317844cf6cd56p-7},
    {"energy.buffer_writes", 72828ULL},
    {"energy.buffer_reads", 72828ULL},
    {"energy.xbar_flits", 73468ULL},
    {"energy.vc_arbs", 14988ULL},
    {"energy.sw_arbs", 72828ULL},
    {"energy.link_flits", 58021ULL},
    {"energy.slot_table_reads", 76356ULL},
    {"energy.slot_table_writes", 1020ULL},
    {"energy.dlt_accesses", 0ULL},
    {"energy.cs_latch_flits", 640ULL},
    {"energy.cycles", 76356ULL},
    {"energy.vc_active_cycles", 1527120ULL},
    {"energy.slot_entry_active_cycles", 9773568ULL},
    {"energy.dlt_active_cycles", 0ULL},
    {"energy.cs_misc_active_cycles", 76356ULL},
    {"energy.link_active_cycles", 254520ULL},
};
const Record kExpectedFastPacket = {
    {"offered_rate", 0x1p-2},
    {"accepted_rate", 0x1.fb790d194837dp-3},
    {"avg_latency", 0x1.224b17e4b17e5p+5},
    {"p99_latency", 0x1.206bca1af286cp+6},
    {"saturated", 0ULL},
    {"measured_packets", 3000ULL},
    {"cycles", 1709ULL},
    {"cs_flit_fraction", 0x0p+0},
    {"config_flit_fraction", 0x0p+0},
    {"energy.buffer_writes", 76640ULL},
    {"energy.buffer_reads", 76640ULL},
    {"energy.xbar_flits", 76640ULL},
    {"energy.vc_arbs", 15328ULL},
    {"energy.sw_arbs", 76640ULL},
    {"energy.link_flits", 61360ULL},
    {"energy.slot_table_reads", 0ULL},
    {"energy.slot_table_writes", 0ULL},
    {"energy.dlt_accesses", 0ULL},
    {"energy.cs_latch_flits", 0ULL},
    {"energy.cycles", 61524ULL},
    {"energy.vc_active_cycles", 1230480ULL},
    {"energy.slot_entry_active_cycles", 0ULL},
    {"energy.dlt_active_cycles", 0ULL},
    {"energy.cs_misc_active_cycles", 0ULL},
    {"energy.link_active_cycles", 205080ULL},
};
const Record kExpectedFastTrace = {
    {"offered_rate", 0x0p+0},
    {"accepted_rate", 0x1.f7395a7ee3dd8p-8},
    {"avg_latency", 0x1.ad31d5acb6f46p+3},
    {"p99_latency", 0x1.3ca97ad65796ap+4},
    {"saturated", 0ULL},
    {"measured_packets", 3000ULL},
    {"cycles", 26448ULL},
    {"cs_flit_fraction", 0x1.b8af17da9edcdp-6},
    {"config_flit_fraction", 0x1.65c730522d59ep-8},
    {"energy.buffer_writes", 14262ULL},
    {"energy.buffer_reads", 14262ULL},
    {"energy.xbar_flits", 14654ULL},
    {"energy.vc_arbs", 5990ULL},
    {"energy.sw_arbs", 14262ULL},
    {"energy.link_flits", 7327ULL},
    {"energy.slot_table_reads", 952128ULL},
    {"energy.slot_table_writes", 216ULL},
    {"energy.dlt_accesses", 0ULL},
    {"energy.cs_latch_flits", 392ULL},
    {"energy.cycles", 952128ULL},
    {"energy.vc_active_cycles", 19042560ULL},
    {"energy.slot_entry_active_cycles", 121872384ULL},
    {"energy.dlt_active_cycles", 0ULL},
    {"energy.cs_misc_active_cycles", 952128ULL},
    {"energy.link_active_cycles", 3173760ULL},
};
const Record kExpectedFastBacklog = {
    {"offered_rate", 0x1.3333333333333p-1},
    {"accepted_rate", 0x1.2f6ce010140f1p-2},
    {"avg_latency", 0x1.99f6bbc5dad68p+12},
    {"p99_latency", 0x1.b1a8p+14},
    {"saturated", 1ULL},
    {"measured_packets", 60001ULL},
    {"cycles", 29155ULL},
    {"cs_flit_fraction", 0x1.320ad67f0c67ap-3},
    {"config_flit_fraction", 0x1.3cd037888b34ap-5},
    {"energy.buffer_writes", 2655342ULL},
    {"energy.buffer_reads", 2655342ULL},
    {"energy.xbar_flits", 3040758ULL},
    {"energy.vc_arbs", 582762ULL},
    {"energy.sw_arbs", 2655342ULL},
    {"energy.link_flits", 2424367ULL},
    {"energy.slot_table_reads", 1049580ULL},
    {"energy.slot_table_writes", 110724ULL},
    {"energy.dlt_accesses", 0ULL},
    {"energy.cs_latch_flits", 385416ULL},
    {"energy.cycles", 1049580ULL},
    {"energy.vc_active_cycles", 20991600ULL},
    {"energy.slot_entry_active_cycles", 134346240ULL},
    {"energy.dlt_active_cycles", 0ULL},
    {"energy.cs_misc_active_cycles", 1049580ULL},
    {"energy.link_active_cycles", 3498600ULL},
};
const Record kExpectedPolicyTotals = {
    {"now", 20000ULL},
    {"total_data_delivered", 27935ULL},
    {"total_setups_sent", 3433ULL},
    {"total_setup_failures", 3237ULL},
    {"total_cs_packets", 2047ULL},
    {"total_hitchhike_packets", 660ULL},
    {"total_hitchhike_bounces", 40ULL},
    {"total_vicinity_packets", 432ULL},
    {"total_setup_give_ups", 608ULL},
};

// --- cycle core ------------------------------------------------------------

TEST(FidelityPin, CycleSyntheticTdm) {
  expect_pinned(record_of(run_synthetic(NocConfig::hybrid_tdm_vc4(6),
                                        short_params(TrafficPattern::Tornado,
                                                     0.15))),
                kExpectedCycleTdm);
}

TEST(FidelityPin, CycleTraceNn) {
  RunParams p = short_params(TrafficPattern::UniformRandom, 0.0);
  expect_pinned(record_of(run_trace(trace_cfg(), nn_fixture(), p)),
                kExpectedCycleTrace);
}

TEST(FidelityPin, CycleSyntheticHopVct) {
  expect_pinned(record_of(run_synthetic(NocConfig::hybrid_tdm_hop_vct(6),
                                        short_params(TrafficPattern::Hotspot,
                                                     0.2))),
                kExpectedCycleHop);
}

TEST(FidelityPin, CycleSyntheticDrained) {
  expect_pinned(
      record_of(run_synthetic_drained(
          NocConfig::hybrid_tdm_vc4(6),
          short_params(TrafficPattern::Transpose, 0.15))),
      kExpectedCycleDrained);
}

TEST(FidelityPin, HeteroSystemShortRun) {
  HeteroSystem sys(NocConfig::hybrid_tdm_hop_vct(6),
                   {cpu_benchmark("APPLU"), gpu_benchmark("BLACKSCHOLES")}, 3);
  expect_pinned(record_of(sys.run(2000, 8000)), kExpectedHetero);
}

TEST(FidelityPin, PolicyTotalsHopVct) {
  const NocConfig cfg = NocConfig::hybrid_tdm_hop_vct(6);
  HybridNetwork net(cfg);
  SyntheticTraffic traffic(net.mesh(), TrafficPattern::Hotspot, 0.2,
                           cfg.ps_data_flits, 7);
  PacketId id = 1;
  for (int c = 0; c < 20000; ++c) {
    traffic.generate([&](NodeId src, NodeId dst) {
      auto p = make_packet();
      p->id = id++;
      p->src = src;
      p->dst = dst;
      p->num_flits = cfg.ps_data_flits;
      net.ni(src).send(std::move(p), net.now());
    });
    net.tick();
  }
  const NiCounters c = net.ni_counters();
  const Record actual = {
      {"now", u(net.now())},
      {"total_data_delivered", u(c[NiCounter::DataPacketsDelivered])},
      {"total_setups_sent", u(c[NiCounter::SetupsSent])},
      {"total_setup_failures", u(c[NiCounter::SetupFailures])},
      {"total_cs_packets", u(c[NiCounter::CsPackets])},
      {"total_hitchhike_packets", u(c[NiCounter::HitchhikePackets])},
      {"total_hitchhike_bounces", u(c[NiCounter::HitchhikeBounces])},
      {"total_vicinity_packets", u(c[NiCounter::VicinityPackets])},
      {"total_setup_give_ups", u(c[NiCounter::SetupGiveUps])},
  };
  expect_pinned(actual, kExpectedPolicyTotals);
}

// --- fast model ------------------------------------------------------------

TEST(FidelityPin, FastSyntheticTdmUniform) {
  expect_pinned(record_of(run_synthetic_fast(
                    NocConfig::hybrid_tdm_vc4(6),
                    short_params(TrafficPattern::UniformRandom, 0.2))),
                kExpectedFastTdmUniform);
}

TEST(FidelityPin, FastSyntheticTdmHotspot) {
  expect_pinned(record_of(run_synthetic_fast(
                    NocConfig::hybrid_tdm_vc4(6),
                    short_params(TrafficPattern::Hotspot, 0.2))),
                kExpectedFastTdmHotspot);
}

TEST(FidelityPin, FastSyntheticPacket) {
  expect_pinned(record_of(run_synthetic_fast(
                    NocConfig::packet_vc4(6),
                    short_params(TrafficPattern::UniformRandom, 0.25))),
                kExpectedFastPacket);
}

TEST(FidelityPin, FastSyntheticDeepBacklog) {
  expect_pinned(record_of(run_synthetic_fast(NocConfig::hybrid_tdm_vc4(6),
                                             backlog_params())),
                kExpectedFastBacklog);
}

TEST(FidelityPin, FastTraceNn) {
  RunParams p = short_params(TrafficPattern::UniformRandom, 0.0);
  expect_pinned(record_of(run_trace_fast(trace_cfg(), nn_fixture(), p)),
                kExpectedFastTrace);
}

}  // namespace
}  // namespace hybridnoc
