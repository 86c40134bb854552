#include "workloads/coherence.hpp"

#include <algorithm>
#include <numeric>

#include "common/geometry.hpp"
#include "common/input.hpp"
#include "common/rng.hpp"
#include "tdm/switching_policy.hpp"

namespace hybridnoc {

namespace {

/// When a message injected at `cycle` is estimated to finish delivering:
/// the zero-load flight time of the modeled router pipeline, rounded up.
Cycle estimated_delivery(const Mesh& mesh, Cycle cycle, NodeId src, NodeId dst,
                         int flits) {
  const double flight =
      zero_load_ps_latency(mesh.hop_distance(src, dst), flits);
  return cycle + static_cast<Cycle>(flight) + 1;
}

}  // namespace

CoherenceTrace generate_coherence_trace(const CoherenceParams& p) {
  check_input(p.k >= 2, "coherence: k must be >= 2");
  check_input(p.cycles >= 1, "coherence: cycles must be >= 1");
  check_input(p.request_rate > 0.0 && p.request_rate <= 1.0,
              "coherence: request_rate must be in (0, 1]");
  check_input(p.ctrl_flits >= 1 && p.data_flits >= 1,
              "coherence: ctrl_flits and data_flits must be >= 1");
  check_input(p.data_fraction >= 0.0 && p.data_fraction <= 1.0 &&
                  p.forward_fraction >= 0.0 && p.forward_fraction <= 1.0,
              "coherence: data_fraction and forward_fraction must be in [0, 1]");
  check_input(p.num_homes >= 0 && p.num_homes <= p.k * p.k,
              "coherence: num_homes must be in [0, k * k]");

  const Mesh mesh(p.k);
  const int n = mesh.num_nodes();
  const int homes = p.num_homes > 0 ? p.num_homes : n;

  Rng master(p.seed);
  // Independent streams per concern keep the trace stable under parameter
  // tweaks that only touch one of them.
  Rng inj_rng = master.split();
  Rng home_rng = master.split();
  Rng kind_rng = master.split();

  // Seeded per-requester favourite home: the recurring requester/home pair
  // an address-interleaved directory produces for a hot data structure.
  std::vector<int> favourite(n);
  for (int v = 0; v < n; ++v) {
    favourite[v] = static_cast<int>(home_rng.uniform_int(homes));
  }

  // Home slot h lives on node h * n / homes: spreads directories across the
  // mesh for any home count.
  auto home_node = [&](int h) {
    return static_cast<NodeId>(static_cast<std::int64_t>(h) * n / homes);
  };

  struct Pending {
    Cycle cycle;
    TraceEntry entry;
    CoherenceEvent event;
  };
  std::vector<Pending> all;
  std::uint64_t txn = 0;
  for (Cycle t = 0; t < p.cycles; ++t) {
    for (NodeId v = 0; v < n; ++v) {
      if (!inj_rng.bernoulli(p.request_rate)) continue;

      // Pick a home: favourite with probability home_locality, uniform
      // otherwise; redraw uniformly while it lands on the requester itself.
      int h = home_rng.bernoulli(p.home_locality)
                  ? favourite[v]
                  : static_cast<int>(home_rng.uniform_int(homes));
      while (home_node(h) == v) {
        h = static_cast<int>(home_rng.uniform_int(homes));
      }
      const NodeId home = home_node(h);

      const std::uint64_t id = txn++;
      all.push_back({t, TraceEntry{t, v, home, p.ctrl_flits},
                     CoherenceEvent{CoherenceMsg::Request, id}});
      const Cycle served = estimated_delivery(mesh, t, v, home, p.ctrl_flits) +
                           p.service_latency;

      const bool data = kind_rng.bernoulli(p.data_fraction);
      if (data && kind_rng.bernoulli(p.forward_fraction)) {
        // Intervention: home probes the sharer, sharer sends the line.
        NodeId sharer = v;
        while (sharer == v || sharer == home) {
          sharer = static_cast<NodeId>(kind_rng.uniform_int(n));
        }
        all.push_back({served, TraceEntry{served, home, sharer, p.ctrl_flits},
                       CoherenceEvent{CoherenceMsg::Forward, id}});
        const Cycle fwd_served =
            estimated_delivery(mesh, served, home, sharer, p.ctrl_flits) +
            p.service_latency;
        all.push_back(
            {fwd_served, TraceEntry{fwd_served, sharer, v, p.data_flits},
             CoherenceEvent{CoherenceMsg::Data, id}});
      } else {
        const int flits = data ? p.data_flits : p.ctrl_flits;
        all.push_back({served, TraceEntry{served, home, v, flits},
                       CoherenceEvent{CoherenceMsg::Reply, id}});
      }
    }
  }

  // Entries were appended request-first per transaction; a stable sort by
  // cycle therefore keeps every reply/forward/data after its request even
  // when cycles tie.
  std::vector<size_t> order(all.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return all[a].cycle < all[b].cycle;
  });

  CoherenceTrace out;
  out.entries.reserve(all.size());
  out.events.reserve(all.size());
  for (size_t i : order) {
    out.entries.push_back(all[i].entry);
    out.events.push_back(all[i].event);
  }
  return out;
}

}  // namespace hybridnoc
