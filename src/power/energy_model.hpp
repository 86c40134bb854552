// Event-based NoC energy model in the spirit of Orion 2.0 (Kahng et al.,
// DATE'09), with constants calibrated for 45 nm / 1.0 V / 1.5 GHz so that the
// *component shares* match the breakdowns the paper reports (input buffers
// dominate router energy; circuit-switching hardware costs <1 % dynamic and
// ~2 % static). Absolute joules are representative, not signed off against
// RTL — every result in the paper (and in our benches) is a ratio against the
// Packet-VC4 baseline, which this model preserves.
//
// Usage: routers/links bump counters in an EnergyCounters instance as events
// occur; leakage is accumulated as time-integrals of "active component"
// counts (active VC buffers, active slot-table entries). At the end of a run
// compute_breakdown() turns counters into per-component dynamic/static energy.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>  // std::size
#include <string>

namespace hybridnoc {

/// Component categories matching Figure 9's breakdown bars.
enum class EnergyComponent : int {
  Buffer = 0,    ///< input-buffer read/write + buffer leakage
  CsComponent,   ///< slot tables, DLT, CS latches/demux (all CS hardware)
  Crossbar,
  Arbiter,       ///< VC + switch allocators
  Clock,
  Link,
  Count,
};

constexpr int kNumEnergyComponents = static_cast<int>(EnergyComponent::Count);

const char* energy_component_name(EnergyComponent c);

/// Per-event dynamic energies (pJ) and per-cycle leakage (pJ/cycle).
struct EnergyParams {
  // --- dynamic, pJ per event ---
  double buffer_write = 5.0;      ///< one 16-byte flit into a VC FIFO
  double buffer_read = 4.6;
  double xbar_traversal = 6.1;    ///< 5x5 matrix crossbar, 128-bit
  double vc_arb = 0.35;           ///< one VC-allocation grant
  double sw_arb = 0.45;           ///< one switch-allocation grant
  double link_flit = 5.4;         ///< one flit across one 1 mm inter-tile link
  /// One slot-row lookup (20 bits across all ports — the row is latched a
  /// cycle ahead, so this is a narrow SRAM read, not a full-table access).
  double slot_table_read = 0.04;
  double slot_table_write = 0.45; ///< one reservation / invalidation
  double dlt_access = 0.18;
  double cs_latch = 0.22;         ///< CS latch + demux per circuit flit
  double clock_router_base = 1.2; ///< clock tree trunk, per router per cycle
  double clock_per_active_vc = 0.16;  ///< clocked FIFO overhead per active VC

  // --- leakage, pJ per cycle ---
  double leak_per_vc_buffer = 0.50;  ///< one 5x128b VC FIFO
  double leak_xbar = 1.05;
  double leak_arbiters = 0.24;
  double leak_slot_entry = 0.0040;   ///< per powered slot-table entry (row)
  double leak_dlt = 0.10;            ///< whole 8-entry DLT
  double leak_cs_misc = 0.12;        ///< CS latches + demux
  double leak_link = 0.85;           ///< per unidirectional link

  /// The calibrated 45 nm parameter set used throughout the evaluation.
  static EnergyParams nangate45() { return {}; }
};

class StateWriter;
class StateReader;

/// Raw event counts and activity integrals for one router (or one network —
/// counters merge additively).
struct EnergyCounters {
  std::uint64_t buffer_writes = 0;
  std::uint64_t buffer_reads = 0;
  std::uint64_t xbar_flits = 0;
  std::uint64_t vc_arbs = 0;
  std::uint64_t sw_arbs = 0;
  std::uint64_t link_flits = 0;
  std::uint64_t slot_table_reads = 0;
  std::uint64_t slot_table_writes = 0;
  std::uint64_t dlt_accesses = 0;
  std::uint64_t cs_latch_flits = 0;

  std::uint64_t cycles = 0;  ///< simulated cycles for this counter scope
  /// Time-integral of powered VC buffers (sum over cycles of the number of
  /// non-gated VCs across all ports).
  std::uint64_t vc_active_cycles = 0;
  /// Time-integral of powered slot-table entries.
  std::uint64_t slot_entry_active_cycles = 0;
  std::uint64_t dlt_active_cycles = 0;      ///< cycles a DLT is powered
  std::uint64_t cs_misc_active_cycles = 0;  ///< cycles CS latches are powered
  std::uint64_t link_active_cycles = 0;     ///< links x cycles

  EnergyCounters& operator+=(const EnergyCounters& o);
  /// Field-wise difference (for measurement windows: end - start). Every
  /// counter is monotone, so the subtraction never underflows.
  EnergyCounters& operator-=(const EnergyCounters& o);
  friend EnergyCounters operator-(EnergyCounters a, const EnergyCounters& b) {
    a -= b;
    return a;
  }
  bool operator==(const EnergyCounters&) const = default;

  /// Checkpoint record: every field, in kEnergyFields order.
  void save_state(StateWriter& w) const;
  void restore_state(StateReader& r);
};

/// One row per EnergyCounters field, in declaration order: the one list
/// that sums, window differences, checkpoints and diagnostics walk.
struct EnergyField {
  const char* name;
  std::uint64_t EnergyCounters::*member;
};

inline constexpr EnergyField kEnergyFields[] = {
    {"buffer_writes", &EnergyCounters::buffer_writes},
    {"buffer_reads", &EnergyCounters::buffer_reads},
    {"xbar_flits", &EnergyCounters::xbar_flits},
    {"vc_arbs", &EnergyCounters::vc_arbs},
    {"sw_arbs", &EnergyCounters::sw_arbs},
    {"link_flits", &EnergyCounters::link_flits},
    {"slot_table_reads", &EnergyCounters::slot_table_reads},
    {"slot_table_writes", &EnergyCounters::slot_table_writes},
    {"dlt_accesses", &EnergyCounters::dlt_accesses},
    {"cs_latch_flits", &EnergyCounters::cs_latch_flits},
    {"cycles", &EnergyCounters::cycles},
    {"vc_active_cycles", &EnergyCounters::vc_active_cycles},
    {"slot_entry_active_cycles", &EnergyCounters::slot_entry_active_cycles},
    {"dlt_active_cycles", &EnergyCounters::dlt_active_cycles},
    {"cs_misc_active_cycles", &EnergyCounters::cs_misc_active_cycles},
    {"link_active_cycles", &EnergyCounters::link_active_cycles},
};
static_assert(std::size(kEnergyFields) * sizeof(std::uint64_t) ==
                  sizeof(EnergyCounters),
              "one kEnergyFields row per EnergyCounters field");

/// "name: a vs b" for the first field where two counter sets differ, or ""
/// when they are equal — the diagnostic the equivalence suites print.
std::string first_difference(const EnergyCounters& a, const EnergyCounters& b);

/// Per-component dynamic and static energy in pJ.
struct EnergyBreakdown {
  std::array<double, kNumEnergyComponents> dynamic_pj{};
  std::array<double, kNumEnergyComponents> static_pj{};

  double dynamic(EnergyComponent c) const { return dynamic_pj[static_cast<int>(c)]; }
  double leakage(EnergyComponent c) const { return static_pj[static_cast<int>(c)]; }
  double total_dynamic() const;
  double total_static() const;
  double total() const { return total_dynamic() + total_static(); }

  EnergyBreakdown& operator+=(const EnergyBreakdown& o);
};

EnergyBreakdown compute_breakdown(const EnergyCounters& c, const EnergyParams& p);

}  // namespace hybridnoc
