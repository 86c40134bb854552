#include "power/energy_model.hpp"

#include "common/assert.hpp"
#include "common/state_io.hpp"

namespace hybridnoc {

const char* energy_component_name(EnergyComponent c) {
  switch (c) {
    case EnergyComponent::Buffer: return "buffer";
    case EnergyComponent::CsComponent: return "cs-component";
    case EnergyComponent::Crossbar: return "crossbar";
    case EnergyComponent::Arbiter: return "arbiter";
    case EnergyComponent::Clock: return "clock";
    case EnergyComponent::Link: return "link";
    case EnergyComponent::Count: break;
  }
  return "?";
}

EnergyCounters& EnergyCounters::operator+=(const EnergyCounters& o) {
  for (const EnergyField& f : kEnergyFields) this->*f.member += o.*f.member;
  return *this;
}

EnergyCounters& EnergyCounters::operator-=(const EnergyCounters& o) {
  for (const EnergyField& f : kEnergyFields) {
    HN_CHECK_MSG(this->*f.member >= o.*f.member, "counter window underflow");
    this->*f.member -= o.*f.member;
  }
  return *this;
}

namespace {

template <typename Ar, typename Counters>
void energy_layout(Ar& ar, Counters& c) {
  ar.section("energy");
  for (const EnergyField& f : kEnergyFields) ar.field(c.*f.member);
}

}  // namespace

void EnergyCounters::save_state(StateWriter& w) const {
  energy_layout(w, *this);
}

void EnergyCounters::restore_state(StateReader& r) { energy_layout(r, *this); }

std::string first_difference(const EnergyCounters& a, const EnergyCounters& b) {
  for (const EnergyField& f : kEnergyFields) {
    if (a.*f.member != b.*f.member) {
      return std::string(f.name) + ": " + std::to_string(a.*f.member) +
             " vs " + std::to_string(b.*f.member);
    }
  }
  return {};
}

double EnergyBreakdown::total_dynamic() const {
  double t = 0.0;
  for (double v : dynamic_pj) t += v;
  return t;
}

double EnergyBreakdown::total_static() const {
  double t = 0.0;
  for (double v : static_pj) t += v;
  return t;
}

EnergyBreakdown& EnergyBreakdown::operator+=(const EnergyBreakdown& o) {
  for (int i = 0; i < kNumEnergyComponents; ++i) {
    dynamic_pj[static_cast<size_t>(i)] += o.dynamic_pj[static_cast<size_t>(i)];
    static_pj[static_cast<size_t>(i)] += o.static_pj[static_cast<size_t>(i)];
  }
  return *this;
}

EnergyBreakdown compute_breakdown(const EnergyCounters& c, const EnergyParams& p) {
  EnergyBreakdown b;
  auto dyn = [&](EnergyComponent comp) -> double& {
    return b.dynamic_pj[static_cast<size_t>(static_cast<int>(comp))];
  };
  auto stat = [&](EnergyComponent comp) -> double& {
    return b.static_pj[static_cast<size_t>(static_cast<int>(comp))];
  };
  const auto f = [](std::uint64_t n) { return static_cast<double>(n); };

  dyn(EnergyComponent::Buffer) =
      f(c.buffer_writes) * p.buffer_write + f(c.buffer_reads) * p.buffer_read;
  dyn(EnergyComponent::CsComponent) = f(c.slot_table_reads) * p.slot_table_read +
                                      f(c.slot_table_writes) * p.slot_table_write +
                                      f(c.dlt_accesses) * p.dlt_access +
                                      f(c.cs_latch_flits) * p.cs_latch;
  dyn(EnergyComponent::Crossbar) = f(c.xbar_flits) * p.xbar_traversal;
  dyn(EnergyComponent::Arbiter) = f(c.vc_arbs) * p.vc_arb + f(c.sw_arbs) * p.sw_arb;
  dyn(EnergyComponent::Clock) = f(c.cycles) * p.clock_router_base +
                                f(c.vc_active_cycles) * p.clock_per_active_vc;
  dyn(EnergyComponent::Link) = f(c.link_flits) * p.link_flit;

  stat(EnergyComponent::Buffer) = f(c.vc_active_cycles) * p.leak_per_vc_buffer;
  stat(EnergyComponent::CsComponent) =
      f(c.slot_entry_active_cycles) * p.leak_slot_entry +
      f(c.dlt_active_cycles) * p.leak_dlt +
      f(c.cs_misc_active_cycles) * p.leak_cs_misc;
  stat(EnergyComponent::Crossbar) = f(c.cycles) * p.leak_xbar;
  stat(EnergyComponent::Arbiter) = f(c.cycles) * p.leak_arbiters;
  stat(EnergyComponent::Clock) = 0.0;  // clock energy is all switching
  stat(EnergyComponent::Link) = f(c.link_active_cycles) * p.leak_link;
  return b;
}

}  // namespace hybridnoc
