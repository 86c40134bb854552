// profile_tick — per-subsystem cycle-cost profile of the cycle core.
//
//   profile_tick [--k 32] [--arch packet|tdm] [--inject 0.05] [--cycles 20000]
//                [--threads 1] [--watchdog 1024] [--fast-forward]
//
// Runs seeded uniform-random injection against a k x k mesh and prints the
// Network::tick_profile() counters — tick dispatches per subsystem, watchdog
// sweeps, fast-forward jumps — alongside wall-clock cycles/sec. Use it to
// answer "where do the cycles go at this config?" before and after a
// scheduler or engine change:
//
//   tools/profile_tick --k 64 --inject 0            # idle floor
//   tools/profile_tick --k 64 --inject 0.005        # sparse regime
//   tools/profile_tick --k 64 --inject 0.1 --threads 4
//
// Dispatches/cycle is the headline number, printed against the 2*k*k
// components a sweep of every NI and router would tick: at --inject 0 the
// run-list scheduler should show ~0, and under load it approaches 2*k*k.
// The NI and router event counters follow, summed over the mesh. The last
// line splits memory: peak RSS (VmHWM) and, with --arch tdm, the bytes held
// by the routers' slot-table columns.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "noc/network.hpp"
#include "tdm/hybrid_network.hpp"

using namespace hybridnoc;

namespace {

struct Options {
  int k = 32;
  std::string arch = "packet";
  double inject = 0.05;
  std::uint64_t cycles = 20000;
  int threads = 1;
  std::uint64_t watchdog = 0;
  bool fast_forward = false;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: profile_tick [--k N] [--arch packet|tdm] [--inject RATE]\n"
      "                    [--cycles N] [--threads N]\n"
      "                    [--watchdog STALL_CYCLES] [--fast-forward]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--k") {
      o.k = std::atoi(next());
    } else if (a == "--arch") {
      o.arch = next();
    } else if (a == "--inject") {
      o.inject = std::atof(next());
    } else if (a == "--cycles") {
      o.cycles = std::strtoull(next(), nullptr, 10);
    } else if (a == "--threads") {
      o.threads = std::atoi(next());
    } else if (a == "--watchdog") {
      o.watchdog = std::strtoull(next(), nullptr, 10);
    } else if (a == "--fast-forward") {
      o.fast_forward = true;
    } else {
      usage();
    }
  }
  if (o.k < 2 || o.cycles == 0 || o.threads < 1) usage();
  if (o.arch != "packet" && o.arch != "tdm") usage();
  return o;
}

template <typename Net>
void run(Net& net, const Options& o) {
  Rng rng(1);
  PacketId id = 1;
  const auto t0 = std::chrono::steady_clock::now();
  if (o.inject <= 0.0 && o.fast_forward) {
    net.fast_forward(o.cycles);
  } else {
    while (net.now() < static_cast<Cycle>(o.cycles)) {
      if (o.inject > 0.0) {
        for (NodeId s = 0; s < net.num_nodes(); ++s) {
          if (net.ni(s).inject_queue_depth() < 4 && rng.bernoulli(o.inject)) {
            auto p = make_packet();
            p->id = id++;
            p->src = s;
            p->dst = static_cast<NodeId>(rng.uniform_int(net.num_nodes()));
            if (p->dst == s) continue;
            p->num_flits = 5;
            net.ni(s).send(std::move(p), net.now());
          }
        }
      }
      net.tick();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();

  const TickProfile p = net.tick_profile();
  const std::uint64_t nodes =
      static_cast<std::uint64_t>(net.num_nodes());
  const std::uint64_t dispatches = p.ni_ticks + p.router_ticks;
  const std::uint64_t wall_cycles = p.cycles + p.ff_skipped_cycles;
  std::printf("mesh                 %dx%d (%llu nodes)\n", o.k, o.k,
              static_cast<unsigned long long>(nodes));
  std::printf("simulated cycles     %llu (%llu ticked, %llu fast-forwarded)\n",
              static_cast<unsigned long long>(wall_cycles),
              static_cast<unsigned long long>(p.cycles),
              static_cast<unsigned long long>(p.ff_skipped_cycles));
  std::printf("wall time            %.3f s  (%.0f cycles/s)\n", secs,
              secs > 0 ? static_cast<double>(wall_cycles) / secs : 0.0);
  std::printf("ni ticks             %llu\n",
              static_cast<unsigned long long>(p.ni_ticks));
  std::printf("router ticks         %llu\n",
              static_cast<unsigned long long>(p.router_ticks));
  std::printf("dispatches/cycle     %.2f  of %llu components\n",
              p.cycles ? static_cast<double>(dispatches) /
                             static_cast<double>(p.cycles)
                       : 0.0,
              static_cast<unsigned long long>(2 * nodes));
  std::printf("watchdog sweeps      %llu\n",
              static_cast<unsigned long long>(p.watchdog_sweeps));
  std::printf("fast-forward jumps   %llu\n",
              static_cast<unsigned long long>(p.ff_jumps));
  // Allocation / refcount telemetry: what the loaded path still pays the
  // allocator and the packet anchor per simulated cycle.
  const auto per_cycle = [&](std::uint64_t n) {
    return p.cycles ? static_cast<double>(n) / static_cast<double>(p.cycles)
                    : 0.0;
  };
  std::printf("packets minted       %llu  (%.3f /cycle)\n",
              static_cast<unsigned long long>(p.packets_minted),
              per_cycle(p.packets_minted));
  std::printf("pool hits            %llu  (%.3f /cycle)\n",
              static_cast<unsigned long long>(p.pool_hits),
              per_cycle(p.pool_hits));
  std::printf("pool misses          %llu  (%.3f /cycle)\n",
              static_cast<unsigned long long>(p.pool_misses),
              per_cycle(p.pool_misses));
  std::printf("flight acquires      %llu  (%.3f /cycle)\n",
              static_cast<unsigned long long>(p.flight_acquires),
              per_cycle(p.flight_acquires));
  std::printf("flight releases      %llu  (%.3f /cycle)\n",
              static_cast<unsigned long long>(p.flight_releases),
              per_cycle(p.flight_releases));
  // Event counters summed over the mesh: the circuit lifecycle (setups,
  // failures, give-ups, teardowns, rides) next to its dispatch cost.
  print_counters(stdout, "ni", net.ni_counters());
  print_counters(stdout, "router", net.router_counters());
}

/// Peak resident set size (VmHWM) in MiB, or -1 where /proc is unavailable.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  double kib = -1.0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kib < 0 ? -1.0 : kib / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  NocConfig cfg = o.arch == "tdm" ? NocConfig::hybrid_tdm_vc4(o.k)
                                  : NocConfig::packet_vc4(o.k);
  cfg.tick_threads = o.threads;
  cfg.watchdog_stall_cycles = o.watchdog;
  if (o.arch == "tdm") {
    HybridNetwork net(cfg);
    run(net, o);
    std::uint64_t slot_bytes = 0;
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      slot_bytes += net.hybrid_router(n).slots().storage_bytes();
    }
    std::printf("memory               peak RSS %.1f MiB, slot tables %.1f MiB\n",
                peak_rss_mib(),
                static_cast<double>(slot_bytes) / (1024.0 * 1024.0));
  } else {
    Network net(cfg);
    run(net, o);
    std::printf("memory               peak RSS %.1f MiB\n", peak_rss_mib());
  }
  return 0;
}
