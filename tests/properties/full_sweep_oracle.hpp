// Full-sweep reference engine for the scheduler-equivalence tests.
//
// Network::tick dispatches only the components on the active-set
// scheduler's run list. This oracle instead ticks every component every
// cycle: the watchdog boundary, then every NI, then every router, then the
// clock advance — and for a HybridNetwork the TDM controller afterwards,
// exactly as HybridNetwork::tick orders it. An idle tick is a deterministic
// no-op, so the two must agree bit for bit; a wake the scheduler misses
// shows up as a difference.
//
// The network's one-shard engine stays attached but its scheduler is never
// begun or compacted. Every component therefore stays active, and every wake
// a channel or NI registers returns early. Serial networks only
// (tick_threads == 1).
#pragma once

#include "common/assert.hpp"
#include "noc/network.hpp"
#include "noc/parallel_engine.hpp"
#include "tdm/hybrid_network.hpp"

namespace hybridnoc {

struct FullSweepOracle {
  static void tick(Network& net) {
    HN_CHECK_MSG(net.engine_.num_shards() == 1,
                 "the full-sweep oracle is serial only");
    Cycle& now = net.now_;
    if (net.watchdog_enabled_ && now != 0 && (now & 1023) == 0) {
      net.watchdog_tick();
    }
    for (NetworkInterface* ni : net.ni_ptrs_) ni->tick(now);
    for (Router* r : net.router_ptrs_) r->tick(now);
    ++now;
    if (auto* hybrid = dynamic_cast<HybridNetwork*>(&net)) {
      hybrid->controller().tick(net.now());
    }
  }
};

}  // namespace hybridnoc
