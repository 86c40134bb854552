// Transfer-level fast engine. One event per packet *transfer* instead of one
// event per flit per cycle: injections are drawn per node with geometric
// skip-sampling (statistically identical to the cycle core's per-cycle
// Bernoulli process), each transfer is walked analytically over its XY route
// against per-server busy-until clocks (source NI serializer, every directed
// link, destination ejection port), and TDM circuits call the cycle core's
// switching policy in tdm/switching_policy.hpp (per-epoch pair frequencies,
// setup admission and slot draw, the switching decision and the EWMA
// congestion signal) over real SlotTable reservations with the
// slot+2-per-hop walk, without simulating the flits that carry it. Only
// the mechanism is this model's own: the closed-form window search over
// cs_busy_until and the synchronous setup walk.
//
// Routes are walked where they are used (for_each_xy_hop, or route_xy per
// hop event), never stored, and per-pair NI state holds only destinations a
// node has used: no state grows with the square of the node count.
//
// Energy event counts, per-cycle leakage integrals and the window's
// RunResult (sim/run_types.hpp window_result) follow the cycle core's
// definitions; see fast_model.hpp for the calibration contract and the list
// of accepted approximations.
#include "fastmodel/fast_model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "noc/routing.hpp"
#include "tdm/slot_table.hpp"
#include "tdm/switching_policy.hpp"

namespace hybridnoc {
namespace {

/// One reservation window of a source-destination pair, mirroring
/// HybridNi::Connection::slots plus the fast model's usage clock.
struct Window {
  int slot = 0;        ///< slot at the source router's Local input
  Cycle ready = 0;     ///< ack arrival: the window exists from here on
  Cycle next_free = 0; ///< earliest next start (one packet per table rotation)
  PacketId owner = 0;  ///< setup id tagging the SlotTable entries
};

struct Conn {
  std::vector<Window> windows;
  Cycle last_used = 0;
  int window_count() const { return static_cast<int>(windows.size()); }
};

/// Per-destination values of one node, holding only the destinations it has
/// used (an absent key reads as zero): linear probing over a power-of-two
/// table. clear() keeps a table sized for the keys it held, so an epoch's
/// counts usually fit without growing, but a table does not ratchet up to
/// the busiest epoch a long run ever saw. Looked up, never iterated, so slot
/// order cannot reach a result.
template <typename V>
class NodeMap {
 public:
  V get(NodeId key) const {
    if (slots_.empty()) return V{};
    const Slot& s = slots_[find(key)];
    return s.key == key ? s.value : V{};
  }

  V& operator[](NodeId key) {
    if (2 * (used_ + 1) > slots_.size()) grow();
    Slot& s = slots_[find(key)];
    if (s.key != key) {
      s = Slot{key, V{}};
      ++used_;
    }
    return s.value;
  }

  void clear() {
    const size_t fit =
        used_ == 0 ? 0 : std::bit_ceil(std::max<size_t>(8, 2 * used_));
    if (fit < slots_.size()) {
      std::vector<Slot>(fit).swap(slots_);
    } else {
      std::fill(slots_.begin(), slots_.end(), Slot{});
    }
    used_ = 0;
  }

 private:
  struct Slot {
    NodeId key = -1;  ///< -1: empty
    V value{};
  };

  /// The slot holding `key`, or the empty slot where it belongs.
  size_t find(NodeId key) const {
    const size_t mask = slots_.size() - 1;
    size_t i = (static_cast<size_t>(key) * 0x9e3779b97f4a7c15ULL >> 32) & mask;
    while (slots_[i].key != key && slots_[i].key >= 0) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Slot> old(std::max<size_t>(8, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old)
      if (s.key >= 0) slots_[find(s.key)] = s;
  }

  std::vector<Slot> slots_;
  size_t used_ = 0;
};

/// Per-node NI policy state (HybridNi's counterpart).
struct NiState {
  std::map<NodeId, Conn> conns;  ///< ordered: deterministic idle sweeps
  NodeMap<int> freq;
  NodeMap<Cycle> cooldown_until;
  NodeMap<Cycle> pending_until;
  Cycle epoch_start = 0;
  Cycle cs_busy_until = 0;  ///< stands in for cs_plan_: next admissible CS start
  double ewma = 0.0;        ///< ewma_inject_delay of the base NI
};

/// A router's mesh coordinate, one byte per axis: a 16-bit node field that
/// fast_model_supports keeps in range (k <= 256).
struct Xy8 {
  std::uint8_t x = 0, y = 0;
  Xy8() = default;  ///< calendar chunk slots are default-built
  explicit Xy8(Coord c)
      : x(static_cast<std::uint8_t>(c.x)), y(static_cast<std::uint8_t>(c.y)) {}
  Coord coord() const { return {x, y}; }
};

/// A data packet's head arriving at a router input — the next link claim
/// happens at this event's time, so every link serves heads in true arrival
/// order (a single-pass whole-route walk would claim capacity in injection
/// order and systematically overstate queueing on long routes). The link to
/// claim is route_xy(at, dst), so the event carries no route; coordinates
/// rather than node ids keep each hop free of divisions by k.
struct HopEvent {
  Xy8 at;                      ///< router whose output link is claimed next
  Xy8 dst;                     ///< destination router (ejection server)
  std::uint32_t created = 0;   ///< creation cycle; 32 bits keeps the event
                               ///< at 12 bytes, the unit of the hop
                               ///< calendar's chunk pool (the model
                               ///< checks max_cycles fits at startup)
  std::uint16_t flits = 0;     ///< packet length (trace-driven runs vary it)
};

/// A finished transfer awaiting delivery bookkeeping: when it was created
/// (latency) and the payload flits it carried (accepted-rate accounting —
/// the flits the workload injected, not the possibly CS-compressed wire
/// flits, so both fidelities and both switching modes count identically).
struct Delivery {
  std::uint32_t created = 0;
  std::uint32_t flits = 0;
};

/// Bucket-ring ("calendar") event queue for the simulation's two hot event
/// streams (hop arrivals and deliveries). Event times cluster within a few
/// hundred cycles of the present, so a ring of per-cycle buckets makes
/// push/pop O(1) where a binary heap pays log(n) pointer-chasing per event —
/// the heaps dominated the fast model's profile. Times beyond the ring's
/// horizon (deep-backlog schedules) spill into a small overflow heap.
///
/// A bucket is a singly linked list of fixed-size chunks drawn from one
/// calendar-owned pool: push appends to the bucket's tail chunk, and consume
/// hands each chunk back to the pool's free list as soon as it has been
/// walked. The pool therefore holds the high-water of *live* events (plus
/// one partly filled chunk per non-empty bucket), not every bucket's
/// high-water, and the chunks just freed are the next ones pushed into, so
/// they stay cache-hot. Chunks are addressed by index; the pool's storage
/// may move when it grows, which only pushes can trigger, so consume copies
/// each event out before handing it to the visitor.
///
/// The cursor only moves forward: push times must be strictly greater than
/// the last time handed out by next_at(), which the simulation guarantees
/// (every event schedules strictly-future successors). Events at one cycle
/// are handed back in push order; overflow spills are appended after ring
/// entries of the same cycle. That tie order differs from a global FIFO only
/// under multi-thousand-cycle backlogs, and is equally deterministic.
template <typename T>
class Calendar {
 public:
  Calendar() : buckets_(kSize) {}

  bool empty() const { return size_ == 0; }

  void push(Cycle at, const T& v) {
    ++size_;
    if (at - cursor_ >= kSize) {
      over_.push(Far{at, over_seq_++, v});
      return;
    }
    Bucket& b = buckets_[at & kMask];
    if (b.fill == kChunk) {
      const std::uint32_t c = take_chunk();
      if (b.head == kNone) {
        b.head = c;
      } else {
        next_[b.tail] = c;
      }
      b.tail = c;
      b.fill = 0;
    }
    items_[static_cast<size_t>(b.tail) * kChunk + b.fill++] = v;
  }

  /// Earliest event time in [cursor, limit], or kCycleNever when there is
  /// none (the cursor then rests at limit). Amortized O(1) per simulated
  /// cycle: the cursor never revisits a bucket.
  Cycle next_at(Cycle limit) {
    if (size_ == 0) {
      cursor_ = std::max(cursor_, limit);
      return kCycleNever;
    }
    const Cycle oat = over_.empty() ? kCycleNever : over_.top().at;
    while (cursor_ <= limit) {
      if (buckets_[cursor_ & kMask].head != kNone || oat == cursor_)
        return cursor_;
      ++cursor_;
    }
    return kCycleNever;
  }

  /// Earliest event time in the queue, unbounded; kCycleNever when empty.
  /// Live streams keep the ring dense, so the scan is short; when every
  /// pending time sits in the overflow heap the answer is its top.
  Cycle next_any() {
    const Cycle oat = over_.empty() ? kCycleNever : over_.top().at;
    if (size_ - over_.size() > 0) {
      while (cursor_ < oat && buckets_[cursor_ & kMask].head == kNone)
        ++cursor_;
      return cursor_;
    }
    if (oat != kCycleNever) cursor_ = oat;
    return oat;
  }

  /// Visit every event at time `t` (ring first, then overflow). The visitor
  /// may push into this calendar: pushed times are strictly future, so they
  /// land in other buckets (or the overflow heap), never in the detached
  /// chunk list being walked.
  template <typename F>
  void consume(Cycle t, F&& f) {
    const Bucket b = buckets_[t & kMask];
    buckets_[t & kMask] = Bucket{};
    for (std::uint32_t c = b.head; c != kNone;) {
      const std::uint32_t used = c == b.tail ? b.fill : kChunk;
      size_ -= used;
      for (std::uint32_t i = 0; i < used; ++i) {
        const T v = items_[static_cast<size_t>(c) * kChunk + i];
        f(v);
      }
      const std::uint32_t next = next_[c];
      next_[c] = free_;
      free_ = c;
      c = c == b.tail ? kNone : next;
    }
    while (!over_.empty() && over_.top().at == t) {
      const T v = over_.top().v;
      over_.pop();
      --size_;
      f(v);
    }
  }

 private:
  static constexpr Cycle kSize = 4096;  ///< ring horizon, cycles
  static constexpr Cycle kMask = kSize - 1;
  static constexpr std::uint32_t kChunk = 64;  ///< events per chunk
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  /// A bucket's chunk list; `fill` counts the events in its tail chunk (the
  /// others are full). An empty bucket reads as a full tail, so its first
  /// push takes a chunk like any other overflowing push.
  struct Bucket {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    std::uint32_t fill = kChunk;
  };
  struct Far {
    Cycle at;
    std::uint64_t seq;
    T v;
    bool operator<(const Far& o) const {  // inverted: min-heap under std::pq
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  /// An empty chunk: the most recently freed one, else a new one.
  std::uint32_t take_chunk() {
    if (free_ == kNone) return new_chunk();
    const std::uint32_t c = free_;
    free_ = next_[c];
    return c;
  }
  /// Grow the pool by one chunk; out of line so push stays small.
  [[gnu::noinline]] std::uint32_t new_chunk() {
    items_.resize(items_.size() + kChunk);
    next_.push_back(kNone);
    return static_cast<std::uint32_t>(next_.size() - 1);
  }

  std::vector<Bucket> buckets_;
  std::vector<T> items_;               ///< the pool: chunk c is items
                                       ///< [c * kChunk, (c + 1) * kChunk)
  std::vector<std::uint32_t> next_;    ///< per chunk: list / free-list link
  std::uint32_t free_ = kNone;         ///< free-list head
  std::priority_queue<Far> over_;
  std::uint64_t over_seq_ = 0;
  Cycle cursor_ = 0;
  std::uint64_t size_ = 0;
};

class FastModel {
 public:
  FastModel(const NocConfig& cfg, const RunParams& params)
      : cfg_(cfg),
        params_(params),
        mesh_(cfg.k),
        n_(mesh_.num_nodes()),
        tdm_(cfg.arch == RouterArch::HybridTdm),
        fps_(cfg.ps_data_flits),
        fcs_(cfg.cs_data_flits),
        dur_(cfg.reservation_duration()),
        slots_(cfg.slot_table_size),
        p_(params.injection_rate / static_cast<double>(cfg.ps_data_flits)) {
    HN_CHECK_MSG(p_ <= 1.0,
                 "injection rate must be <= flits_per_packet (one packet "
                 "per node per cycle at most)");
    HN_CHECK_MSG(params.max_cycles <= 0xffffffffULL,
                 "fast model packs creation cycles into 32 bits");
    ni_free_.assign(static_cast<size_t>(n_), 0);
    eject_free_.assign(static_cast<size_t>(n_), 0);
    link_free_.assign(static_cast<size_t>(n_) * 4, 0);
    reserved_on_link_.assign(static_cast<size_t>(n_) * 4, 0);
    Rng master(params.seed);
    inj_rng_.reserve(static_cast<size_t>(n_));
    dst_rng_.reserve(static_cast<size_t>(n_));
    slot_rng_.reserve(static_cast<size_t>(n_));
    for (int v = 0; v < n_; ++v) {
      inj_rng_.push_back(master.split());
      dst_rng_.push_back(master.split());
      slot_rng_.push_back(master.split());
    }
    if (tdm_) {
      ni_.resize(static_cast<size_t>(n_));
      tables_.reserve(static_cast<size_t>(n_));
      for (int v = 0; v < n_; ++v)
        tables_.emplace_back(cfg.slot_table_size, cfg.slot_table_size);
    }
    if (p_ > 0.0 && p_ < 1.0) inv_log1m_p_ = 1.0 / std::log1p(-p_);
    nodes_u64_ = static_cast<std::uint64_t>(n_);
    nodes_threshold_ = (0 - nodes_u64_) % nodes_u64_;
    nodes_pow2_ = (nodes_u64_ & (nodes_u64_ - 1)) == 0;
    switch (params.pattern) {
      case TrafficPattern::UniformRandom:
        dst_mode_ = DstMode::Uniform;
        break;
      case TrafficPattern::Tornado:
        // Degenerate tornado (k <= 3) falls back to uniform draws, exactly
        // like pattern_destination.
        dst_mode_ = cfg.k / 2 - 1 <= 0 ? DstMode::Uniform : DstMode::Table;
        break;
      case TrafficPattern::Hotspot: {
        dst_mode_ = DstMode::Hotspot;
        const int lo = cfg.k / 2 - 1 > 0 ? cfg.k / 2 - 1 : 0;
        const Coord hot[4] = {{cfg.k / 2, cfg.k / 2},
                              {lo, cfg.k / 2},
                              {cfg.k / 2, lo},
                              {lo, lo}};
        for (int h = 0; h < 4; ++h) hotspots_[h] = mesh_.node(hot[h]);
        break;
      }
      default:
        dst_mode_ = DstMode::Table;
        break;
    }
    if (dst_mode_ == DstMode::Table) {
      // Deterministic patterns never consume random numbers, so the whole
      // map can be precomputed; -1 marks self-destinations (no packet).
      dst_table_.resize(static_cast<size_t>(n_));
      Rng scratch(0x5eed);
      for (NodeId v = 0; v < n_; ++v) {
        const auto d = pattern_destination(params.pattern, mesh_, v, scratch);
        dst_table_[static_cast<size_t>(v)] = d ? *d : -1;
      }
    }
    if (params.warmup_packets == 0) {
      armed_ = true;
      measure_start_ = params.warmup_min_cycles;
    }
  }

  /// Synthetic run: per-node next-injection times on a calendar (geometric
  /// gaps), destinations drawn at injection time.
  RunResult run() {
    if (p_ > 0.0) {
      for (NodeId v = 0; v < n_; ++v) inj_.push(inject_gap(v), v);
    }
    return run_loop(
        [this] { return inj_.empty() ? kCycleNever : inj_.next_any(); },
        [this](Cycle t) {
          inj_.consume(t, [this, t](NodeId v) {
            inject(v, t, fps_, /*cs_eligible=*/true,
                   [this, v] { return draw_destination(v); });
            inj_.push(t + 1 + inject_gap(v), v);
          });
        });
  }

  /// Trace-driven run: replay `tr` (looped; vetted by check_trace) with the
  /// rng streams set up as for a synthetic run. The next injection is the
  /// next entry shifted by the loop offset; entry cycles strictly increase
  /// across loop passes (the offset advances by the span, TraceTraffic's
  /// loop period), as the calendars' forward-only cursors require.
  RunResult run(const std::vector<TraceEntry>& tr) {
    const Cycle span = tr.back().cycle + 1;
    size_t pos = 0;
    Cycle offset = 0;
    return run_loop([&] { return tr[pos].cycle + offset; }, [&](Cycle t) {
      while (tr[pos].cycle + offset == t) {
        const TraceEntry& e = tr[pos];
        inject(e.src, t, e.flits, circuit_eligible(cfg_, e.flits),
               [&e] { return e.dst; });
        if (++pos == tr.size()) {
          pos = 0;
          offset += span;
        }
      }
    });
  }

 private:
  /// The event loop over an injection source (templates, not virtual calls:
  /// this is the model's hot loop). `next()` is the next injection time,
  /// kCycleNever once the source runs dry; `inject_at(t)` injects all of t.
  template <typename Next, typename InjectAt>
  RunResult run_loop(Next&& next, InjectAt&& inject_at) {
    while (!done_) {
      const Cycle t_inj = next();
      if (t_inj == kCycleNever) break;
      // Move every in-flight head that precedes (or ties with) the next
      // injection, mirroring the cycle core's router-before-NI update order
      // within a tick. Heads only touch link/ejection clocks and push
      // strictly-future events, so the whole stretch runs as one batch;
      // delivery bookkeeping is time-ordered by its own calendar and can
      // drain afterwards.
      const Cycle hop_bound = std::min(t_inj, params_.max_cycles - 1);
      Cycle t_hop;
      while ((t_hop = hops_.next_at(hop_bound)) != kCycleNever) {
        hops_.consume(t_hop, [this, t_hop](const HopEvent& h) {
          process_hop(t_hop, h);
        });
      }
      if (t_inj >= params_.max_cycles) {
        drain_deliveries(params_.max_cycles);
        if (!done_) end_cycle_ = params_.max_cycles;
        break;
      }
      drain_deliveries(t_inj);
      if (done_) break;
      if (armed_ && !measuring_ && t_inj >= measure_start_) begin_window();
      inject_at(t_inj);
    }
    return finalize();
  }

  // --- topology helpers ---------------------------------------------------

  static int link_id(NodeId node, Port out) {
    return static_cast<int>(node) * 4 + (static_cast<int>(out) - 1);
  }

  /// Visit the directed-link id of every hop on the src->dst XY route.
  template <typename F>
  void for_each_link(NodeId src, NodeId dst, F&& f) const {
    for_each_xy_hop(mesh_, src, dst, [&](int, NodeId r, Port, Port out) {
      if (out != Port::Local) f(link_id(r, out));
      return true;
    });
  }

  /// Without time-slot stealing, track the cycles reserved on the link that
  /// leaves router `r` through `out` (link_service's bandwidth share).
  void reserve_link(NodeId r, Port out, int delta) {
    if (out != Port::Local && !cfg_.time_slot_stealing)
      reserved_on_link_[static_cast<size_t>(link_id(r, out))] += delta;
  }

  /// Rng::geometric with the 1/log1p(-p) factor hoisted out of the loop —
  /// p is constant for the whole run and the log per draw was hot.
  Cycle inject_gap(NodeId v) {
    if (p_ >= 1.0) return 0;
    const double u = inj_rng_[static_cast<size_t>(v)].uniform();
    return static_cast<Cycle>(std::log1p(-u) * inv_log1m_p_);
  }

  // --- measurement window -------------------------------------------------

  void begin_window() {
    measuring_ = true;
    dyn_snap_ = dyn_;
    ps_snap_ = ps_flits_;
    cs_snap_ = cs_flits_;
    cfg_snap_ = config_flits_;
  }

  void drain_deliveries(Cycle upto) {
    while (upto > 0) {
      const Cycle t = deliveries_.next_at(upto - 1);
      if (t == kCycleNever) return;
      // Once the measurement target is hit, the rest of the finishing
      // cycle's deliveries still co-count (the cycle core tallies every
      // delivery of that cycle before its loop breaks) — they fall through
      // the same bookkeeping with only the gate check disabled.
      deliveries_.consume(t, [this, t](const Delivery& d) {
        ++delivered_total_;
        if (!armed_ && delivered_total_ >= params_.warmup_packets) {
          armed_ = true;
          measure_start_ = std::max(t + 1, params_.warmup_min_cycles);
        }
        if (!armed_ || t < measure_start_) return;
        window_delivered_flits_ += d.flits;
        if (d.created < measure_start_) return;
        record_latency(t - d.created);
        ++measured_;
        if (!done_ &&
            (measured_ >= params_.measure_packets ||
             (lat_count_ > 500 &&
              lat_sum_ >
                  params_.latency_cap * static_cast<double>(lat_count_)))) {
          if (measured_ < params_.measure_packets) saturated_ = true;
          end_cycle_ = t + 1;
          done_ = true;
        }
      });
      if (done_) return;
    }
  }

  void push_delivery(Cycle at, Cycle created, int payload_flits) {
    deliveries_.push(at, Delivery{static_cast<std::uint32_t>(created),
                                  static_cast<std::uint32_t>(payload_flits)});
  }

  // Latency statistics, kept as flat local state instead of the shared
  // StatAccumulator/Histogram classes: this runs once per measured packet in
  // the hottest loop, and the integer-latency specialisation (integer bucket
  // index, sum instead of streaming mean) is measurably cheaper while
  // reporting the same mean/p99 the cycle driver's Histogram(5.0, 400) does.
  void record_latency(Cycle d) {
    ++lat_count_;
    lat_sum_ += static_cast<double>(d);
    if (d > lat_max_) lat_max_ = d;
    const size_t idx = static_cast<size_t>(d) / kHistWidth;
    if (idx < kHistBuckets) {
      ++hist_buckets_[idx];
    } else {
      ++hist_overflow_;
    }
  }

  double latency_quantile(double q) const {
    // Mirrors Histogram::quantile: linear interpolation within the bucket,
    // overflow mass reported as the largest sample seen.
    if (lat_count_ == 0) return 0.0;
    const double target = q * static_cast<double>(lat_count_);
    double cum = 0.0;
    for (size_t i = 0; i < kHistBuckets; ++i) {
      const double next = cum + static_cast<double>(hist_buckets_[i]);
      if (next >= target && hist_buckets_[i] > 0) {
        const double frac = (target - cum) / static_cast<double>(hist_buckets_[i]);
        return (static_cast<double>(i) + frac) * static_cast<double>(kHistWidth);
      }
      cum = next;
    }
    return static_cast<double>(lat_max_);
  }

  // --- packet-switched transfers ------------------------------------------

  Cycle link_service(int link, int flits) const {
    if (!tdm_ || cfg_.time_slot_stealing) return static_cast<Cycle>(flits);
    // Without time-slot stealing, reserved slots are lost to packet-switched
    // traffic even when idle: the link serves PS flits at (S - reserved)/S
    // of its bandwidth.
    const int res =
        std::min(reserved_on_link_[static_cast<size_t>(link)], slots_ - 1);
    const double scale =
        static_cast<double>(slots_) / static_cast<double>(slots_ - res);
    return static_cast<Cycle>(
        static_cast<double>(flits) * scale + 0.9999);
  }

  /// Charge the cycle core's per-flit packet-switched energy events for one
  /// packet of `flits` over a route of `hops` links.
  void ps_energy(int hops, int flits, bool is_data) {
    const auto f = static_cast<std::uint64_t>(flits);
    const auto r = static_cast<std::uint64_t>(hops + 1);
    dyn_.buffer_writes += r * f;
    dyn_.buffer_reads += r * f;
    dyn_.sw_arbs += r * f;
    dyn_.xbar_flits += r * f;
    dyn_.vc_arbs += r;  // one VC allocation per packet per router
    dyn_.link_flits += static_cast<std::uint64_t>(hops) * f;
    if (is_data) {
      ps_flits_ += f;
    } else {
      config_flits_ += f;
    }
  }

  /// Synchronous whole-route walk for config messages (setups, acks,
  /// teardowns): returns the delivery cycle. Config traffic is a fraction
  /// of a percent of flits, so the injection-order capacity claims are a
  /// harmless simplification here; data packets go hop by hop instead.
  Cycle ps_transfer(NodeId src, NodeId dst, Cycle t, int flits, bool is_data) {
    const Cycle head = std::max(t, ni_free_[static_cast<size_t>(src)]);
    ni_free_[static_cast<size_t>(src)] = head + static_cast<Cycle>(flits);
    Cycle arr = head + 2;  // injection channel
    for_each_link(src, dst, [&](int l) {
      const Cycle depart =
          std::max(arr + 3, link_free_[static_cast<size_t>(l)]);
      link_free_[static_cast<size_t>(l)] = depart + link_service(l, flits);
      arr = depart + 2;
    });
    const Cycle ej = std::max(arr + 3, eject_free_[static_cast<size_t>(dst)]);
    eject_free_[static_cast<size_t>(dst)] = ej + static_cast<Cycle>(flits);
    ps_energy(mesh_.hop_distance(src, dst), flits, is_data);
    return ej + 2 + static_cast<Cycle>(flits - 1);
  }

  /// Launch one data packet: serialize at the source NI, then walk the route
  /// hop by hop via HopEvents so links serve heads in arrival order.
  void ps_launch(NodeId src, NodeId dst, Cycle t, int flits) {
    const Cycle head = std::max(t, ni_free_[static_cast<size_t>(src)]);
    ni_free_[static_cast<size_t>(src)] = head + static_cast<Cycle>(flits);
    if (tdm_) {
      // The base NI's ewma_inject_delay congestion signal.
      smooth_inject_delay(ni_[static_cast<size_t>(src)].ewma, head - t);
    }
    const Coord at = mesh_.coord(src), to = mesh_.coord(dst);
    ps_energy(Mesh::hop_distance(at, to), flits, /*is_data=*/true);
    const HopEvent ev{Xy8(at), Xy8(to),
                      static_cast<std::uint32_t>(t),
                      static_cast<std::uint16_t>(flits)};
    if (head == t) {
      // NI idle: the head reaches its first router two cycles from now with
      // nothing able to overtake it in between — claim in place and save the
      // event. A backlogged NI goes through the queue so that heads from
      // other sources arriving during the serialization delay keep their
      // true arrival order on shared links.
      process_hop(t + 2, ev);
    } else {
      hops_.push(head + 2, ev);
    }
  }

  void process_hop(Cycle t, const HopEvent& h) {
    const Coord here = h.at.coord(), dst = h.dst.coord();
    const Port out = route_xy(here, dst);
    const int l = link_id(mesh_.node(here), out);
    const Cycle ready = t + 3;
    const Cycle free = link_free_[static_cast<size_t>(l)];
    const Cycle depart = ready < free ? free : ready;
    // The +1 is a switch-turnaround bubble: the cycle core's allocator
    // leaves at least one idle cycle between consecutive packets on a link
    // (the next head re-arbitrates after the previous tail). It only delays
    // followers, so zero-load latency is untouched, and it supplies the
    // congestion spread a pure serialisation model otherwise understates.
    link_free_[static_cast<size_t>(l)] =
        depart + link_service(l, h.flits) + 1;
    const Coord next = Mesh::step(here, out);
    if (next != dst) {
      hops_.push(depart + 2, HopEvent{Xy8(next), h.dst, h.created, h.flits});
      return;
    }
    // Arrived at the destination router: pipeline, ejection channel, tail.
    Cycle& eject = eject_free_[static_cast<size_t>(mesh_.node(dst))];
    const Cycle ej = std::max(depart + 2 + 3, eject);
    eject = ej + static_cast<Cycle>(h.flits);
    push_delivery(ej + 2 + static_cast<Cycle>(h.flits - 1), h.created,
                  h.flits);
  }

  // --- TDM policy state and mechanism ------------------------------------

  void epoch_tick(NodeId v, Cycle t) {
    NiState& st = ni_[static_cast<size_t>(v)];
    if (!epoch_boundary(cfg_, st.epoch_start, t)) return;
    st.freq.clear();
    idle_connections(cfg_, st.conns, t, idle_scratch_);
    for (const NodeId dst : idle_scratch_) teardown_connection(v, dst, t);
  }

  /// Release `owner`'s reservation at the first `n` routers of the src->dst
  /// route, undoing do_setup's per-router reserve (table entry and link).
  void release_hops(NodeId src, NodeId dst, int slot, PacketId owner, int n) {
    for_each_xy_hop(mesh_, src, dst, [&](int i, NodeId r, Port in, Port out) {
      if (i == n) return false;
      tables_[static_cast<size_t>(r)].release((slot + 2 * i) & (slots_ - 1),
                                              dur_, in, owner);
      dyn_.slot_table_writes += static_cast<std::uint64_t>(dur_);
      reserve_link(r, out, -dur_);
      return true;
    });
  }

  void teardown_connection(NodeId src, NodeId dst, Cycle t) {
    NiState& st = ni_[static_cast<size_t>(src)];
    const auto it = st.conns.find(dst);
    if (it == st.conns.end()) return;
    const int routers = mesh_.hop_distance(src, dst) + 1;
    for (const Window& w : it->second.windows) {
      release_hops(src, dst, w.slot, w.owner, routers);
      ps_transfer(src, dst, t, cfg_.config_flits, /*is_data=*/false);
    }
    st.conns.erase(it);
  }

  /// The path-setup protocol, retried synchronously: walk the route's real
  /// SlotTables with the slot+2-per-hop increment; on the first conflicting
  /// (or occupancy-capped) router, release the reserved prefix, charge the
  /// setup/nack/teardown config messages, and retry with a different slot.
  void do_setup(NodeId src, NodeId dst, Cycle t) {
    NiState& st = ni_[static_cast<size_t>(src)];
    const int mask = slots_ - 1;
    int avoid = -1;
    const SlotTable& local = tables_[static_cast<size_t>(src)];
    for (int retry = 0; retry <= cfg_.max_setup_retries; ++retry) {
      const int slot0 = choose_setup_slot(
          slot_rng_[static_cast<size_t>(src)], slots_, avoid,
          [&](int s) { return local.input_free(s, dur_, Port::Local); });
      const PacketId owner = next_owner_id_++;
      int fail_at = -1;
      NodeId fail_node = src;
      for_each_xy_hop(mesh_, src, dst, [&](int i, NodeId r, Port in, Port out) {
        SlotTable& tab = tables_[static_cast<size_t>(r)];
        if (tab.occupancy() >= cfg_.reservation_threshold ||
            !tab.reserve((slot0 + 2 * i) & mask, dur_, in, out, owner, t)) {
          fail_at = i;
          fail_node = r;
          return false;
        }
        dyn_.slot_table_writes += static_cast<std::uint64_t>(dur_);
        reserve_link(r, out, dur_);
        return true;
      });
      if (fail_at < 0) {
        // Setup rides to the destination, the ack rides back; the window
        // exists once the ack arrives.
        const Cycle d1 =
            ps_transfer(src, dst, t, cfg_.config_flits, /*is_data=*/false);
        const Cycle d2 = ps_transfer(dst, src, d1, cfg_.config_flits,
                                     /*is_data=*/false);
        Conn& conn = st.conns[dst];
        conn.windows.push_back(Window{slot0, d2, 0, owner});
        if (conn.last_used < d2) conn.last_used = d2;
        st.pending_until[dst] = d2;
        return;
      }
      // Release the reserved prefix and account the partial setup, the
      // failure ack, and the prefix teardown (three config messages).
      release_hops(src, dst, slot0, owner, fail_at);
      if (fail_node != src) {
        ps_transfer(src, fail_node, t, cfg_.config_flits, false);
        ps_transfer(fail_node, src, t, cfg_.config_flits, false);
        if (fail_at > 0)
          ps_transfer(src, fail_node, t, cfg_.config_flits, false);
      }
      avoid = slot0;
    }
    st.cooldown_until[dst] = give_up_cooldown(cfg_, t);
  }

  /// The fast model's side of the shared setup policy (maybe_setup): the
  /// per-node state, and the synchronous walk as the setup mechanism.
  struct SetupHost {
    FastModel& m;
    NodeId src;
    NiState& st;
    int pair_count(NodeId dst) const { return st.freq.get(dst); }
    bool setup_pending(NodeId dst, Cycle t) const {
      return t < st.pending_until.get(dst);
    }
    bool cooling_down(NodeId dst, Cycle t) const {
      return t < st.cooldown_until.get(dst);
    }
    double local_occupancy() const {
      return m.tables_[static_cast<size_t>(src)].occupancy();
    }
    std::map<NodeId, Conn>& connections() { return st.conns; }
    void retire(std::map<NodeId, Conn>::iterator it, Cycle t) {
      m.teardown_connection(src, it->first, t);
    }
    void start_setup(NodeId dst, Cycle t) { m.do_setup(src, dst, t); }
  };

  void request_setup(NodeId src, NodeId dst, Cycle t, bool force,
                     bool supplement) {
    SetupHost host{*this, src, ni_[static_cast<size_t>(src)]};
    maybe_setup(cfg_, host, src, dst, t, force, supplement);
  }

  enum class CsAttempt { Scheduled, NoWindow, NotWorth };

  CsAttempt try_circuit(NodeId src, NodeId dst, Cycle t, int payload_flits) {
    NiState& st = ni_[static_cast<size_t>(src)];
    Conn& conn = st.conns[dst];
    const int h = mesh_.hop_distance(src, dst);
    const auto S = static_cast<Cycle>(slots_);
    Cycle best = kCycleNever;
    size_t best_w = 0;
    bool any_ready = false;
    for (size_t i = 0; i < conn.windows.size(); ++i) {
      const Window& w = conn.windows[i];
      if (w.ready > t) continue;
      any_ready = true;
      const Cycle base = std::max({t + 3, st.cs_busy_until, w.next_free});
      const Cycle cand =
          base + ((static_cast<Cycle>(w.slot) - base) & (S - 1));
      // find_start probes two table rotations from now+3 and gives up.
      if (cand - (t + 3) >= 2 * S) continue;
      if (cand < best) {
        best = cand;
        best_w = i;
      }
    }
    if (!any_ready || best == kCycleNever) return CsAttempt::NoWindow;
    const Cycle flight = cs_flight_cycles(h, fcs_);
    if (!take_circuit(cfg_, static_cast<double>(best - t + flight), h,
                      st.ewma))
      return CsAttempt::NotWorth;

    Window& w = conn.windows[best_w];
    w.next_free = best + 1;  // alignment makes the next start >= best + S
    st.cs_busy_until = best + static_cast<Cycle>(fcs_);
    conn.last_used = t;

    const auto f = static_cast<std::uint64_t>(fcs_);
    const auto r = static_cast<std::uint64_t>(h + 1);
    dyn_.cs_latch_flits += r * f;
    dyn_.xbar_flits += r * f;
    dyn_.link_flits += static_cast<std::uint64_t>(h) * f;
    cs_flits_ += f;
    // Circuit flits occupy their reserved link cycles; packet-switched
    // backlogs behind them slip by the circuit's footprint.
    for_each_link(src, dst, [&](int l) {
      if (link_free_[static_cast<size_t>(l)] > t)
        link_free_[static_cast<size_t>(l)] += static_cast<Cycle>(fcs_);
    });
    push_delivery(best + flight, t, payload_flits);
    return CsAttempt::Scheduled;
  }

  // --- injection ----------------------------------------------------------

  /// One injection of `flits` payload flits at node `v`. `draw_dst()`
  /// yields the destination (-1: no packet); it runs after the saturation
  /// check and the epoch fold, which fixes where a synthetic run's
  /// destination draw falls in its rng stream. Circuit-ineligible messages
  /// skip the whole policy block, including the pair-frequency count.
  template <typename DrawDst>
  void inject(NodeId v, Cycle t, int flits, bool cs_eligible,
              DrawDst&& draw_dst) {
    // Source queues diverging: the cycle core drops the packet and flags
    // deep saturation. The serializer backlog is our queue depth.
    if (ni_free_[static_cast<size_t>(v)] > t &&
        (ni_free_[static_cast<size_t>(v)] - t) / static_cast<Cycle>(flits) >
            2000) {
      saturated_ = true;
      return;
    }
    if (tdm_) epoch_tick(v, t);
    const NodeId dst = draw_dst();
    if (dst < 0) return;
    if (measuring_)
      window_generated_flits_ += static_cast<std::uint64_t>(flits);

    if (tdm_ && cs_eligible) {
      NiState& st = ni_[static_cast<size_t>(v)];
      ++st.freq[dst];
      if (!st.conns.empty() && st.conns.find(dst) != st.conns.end()) {
        const CsAttempt r = try_circuit(v, dst, t, flits);
        if (r == CsAttempt::Scheduled) return;
        if (r == CsAttempt::NoWindow)
          request_setup(v, dst, t, /*force=*/true, /*supplement=*/true);
      }
      request_setup(v, dst, t, /*force=*/false, /*supplement=*/false);
    }
    ps_launch(v, dst, t, flits);
  }

  /// pattern_destination, specialised at construction time: deterministic
  /// patterns collapse to a table lookup (they never touch the rng, so the
  /// draw sequence is unchanged), and the stochastic ones issue the exact
  /// same rng calls in the same order — results stay bit-identical to
  /// calling pattern_destination per packet, minus the per-call switch,
  /// coordinate math, and cross-library call. Returns -1 for "no packet"
  /// (the self-destination case pattern_destination reports as nullopt).
  NodeId draw_destination(NodeId src) {
    if (dst_mode_ == DstMode::Table)
      return dst_table_[static_cast<size_t>(src)];
    Rng& rng = dst_rng_[static_cast<size_t>(src)];
    const NodeId dst = dst_mode_ == DstMode::Hotspot && rng.bernoulli(0.25)
                           ? hotspots_[rng.uniform_int(4)]
                           : draw_uniform_node(rng);
    return dst == src ? -1 : dst;
  }

  /// Rng::uniform_int(num_nodes) with the rejection threshold hoisted to a
  /// member and the modulo strength-reduced to a mask on power-of-two
  /// meshes; draw-for-draw identical to the generic version (for such
  /// meshes the threshold is zero and r % n == r & (n-1)).
  NodeId draw_uniform_node(Rng& rng) const {
    for (;;) {
      const std::uint64_t r = rng.next_u64();
      if (r < nodes_threshold_) continue;
      return static_cast<NodeId>(nodes_pow2_ ? (r & (nodes_u64_ - 1))
                                             : (r % nodes_u64_));
    }
  }

  // --- results ------------------------------------------------------------

  RunResult finalize() {
    WindowTally w;
    w.cycles = measuring_ ? end_cycle_ - measure_start_ : 0;
    w.measured_packets = measured_;
    w.saturated = saturated_;
    w.delivered_flits = window_delivered_flits_;
    w.generated_flits = window_generated_flits_;
    w.ps_flits = ps_flits_ - ps_snap_;
    w.cs_flits = cs_flits_ - cs_snap_;
    w.config_flits = config_flits_ - cfg_snap_;
    w.energy = dyn_ - dyn_snap_;
    // Per-cycle constants the cycle core accrues in accounting_tick /
    // leakage_tick, integrated over the window analytically.
    EnergyCounters& e = w.energy;
    const auto W = static_cast<std::uint64_t>(w.cycles);
    const auto R = static_cast<std::uint64_t>(n_);
    e.cycles += R * W;
    e.vc_active_cycles += R * W * static_cast<std::uint64_t>(cfg_.num_vcs) *
                          static_cast<std::uint64_t>(kNumPorts);
    // Sum of router out-degrees of a k x k mesh: 4k(k-1) directed links.
    e.link_active_cycles +=
        W * static_cast<std::uint64_t>(4 * cfg_.k * (cfg_.k - 1));
    if (tdm_) {
      e.slot_table_reads += R * W;
      e.slot_entry_active_cycles +=
          R * W * static_cast<std::uint64_t>(slots_);
      e.cs_misc_active_cycles += R * W;
    }
    RunResult r = window_result(params_, params_.injection_rate, n_, w);
    r.avg_latency =
        lat_count_ > 0 ? lat_sum_ / static_cast<double>(lat_count_) : 0.0;
    r.p99_latency = latency_quantile(0.99);
    return r;
  }

  // --- state --------------------------------------------------------------

  const NocConfig cfg_;
  const RunParams params_;
  const Mesh mesh_;
  const int n_;
  const bool tdm_;
  const int fps_, fcs_, dur_, slots_;
  const double p_;  ///< packet probability per node per cycle

  std::vector<Cycle> ni_free_, eject_free_, link_free_;
  std::vector<int> reserved_on_link_;
  std::vector<Rng> inj_rng_, dst_rng_, slot_rng_;
  enum class DstMode { Table, Uniform, Hotspot };
  DstMode dst_mode_ = DstMode::Uniform;
  std::vector<NodeId> dst_table_;  ///< Table mode; -1 = self, no packet
  NodeId hotspots_[4] = {0, 0, 0, 0};
  std::uint64_t nodes_u64_ = 1;       ///< num_nodes, for the uniform draw
  std::uint64_t nodes_threshold_ = 0; ///< 2^64 mod num_nodes (rejection)
  bool nodes_pow2_ = false;
  std::vector<NiState> ni_;
  std::vector<SlotTable> tables_;
  PacketId next_owner_id_ = 1;

  double inv_log1m_p_ = 0.0;  ///< 1 / log1p(-p), hoisted for inject_gap

  Calendar<NodeId> inj_;           ///< next injection time per node
  Calendar<Delivery> deliveries_;  ///< finished transfers awaiting tallying
  Calendar<HopEvent> hops_;
  std::vector<NodeId> idle_scratch_;  ///< epoch_tick's idle-connection list

  // measurement
  bool armed_ = false, measuring_ = false, saturated_ = false, done_ = false;
  Cycle measure_start_ = 0, end_cycle_ = 0;
  std::uint64_t delivered_total_ = 0, window_delivered_flits_ = 0;
  std::uint64_t window_generated_flits_ = 0, measured_ = 0;
  static constexpr size_t kHistBuckets = 400;  ///< Histogram(5.0, 400) twin
  static constexpr size_t kHistWidth = 5;
  std::uint64_t lat_count_ = 0;
  double lat_sum_ = 0.0;
  Cycle lat_max_ = 0;
  std::array<std::uint64_t, kHistBuckets> hist_buckets_{};
  std::uint64_t hist_overflow_ = 0;

  // cumulative event counters, snapshotted at window start
  EnergyCounters dyn_, dyn_snap_;
  std::uint64_t ps_flits_ = 0, cs_flits_ = 0, config_flits_ = 0;
  std::uint64_t ps_snap_ = 0, cs_snap_ = 0, cfg_snap_ = 0;
};

}  // namespace

bool fast_model_supports(const NocConfig& cfg, std::string* why) {
  const auto fail = [why](const char* reason) {
    if (why) *why = reason;
    return false;
  };
  if (cfg.arch == RouterArch::HybridSdm)
    return fail("the SDM baseline has no transfer-level model");
  if (cfg.vc_power_gating)
    return fail("VC power gating needs per-cycle utilization integrals");
  if (cfg.hitchhiker_sharing || cfg.vicinity_sharing)
    return fail("path sharing (hitchhiker/vicinity) is cycle-core only");
  if (cfg.dynamic_slot_sizing)
    return fail("dynamic slot sizing is cycle-core only");
  if (cfg.link_ber > 0.0 || cfg.e2e_recovery)
    return fail("fault injection / e2e recovery are cycle-core only");
  if (cfg.num_nodes() > 65536)
    return fail("k > 256 overflows HopEvent's 16-bit node fields (one byte "
                "per coordinate)");
  return true;
}

RunResult run_synthetic_fast(const NocConfig& cfg, const RunParams& params) {
  cfg.validate();
  std::string why;
  HN_CHECK_MSG(fast_model_supports(cfg, &why), why.c_str());
  return FastModel(cfg, params).run();
}

RunResult run_trace_fast(const NocConfig& cfg,
                         const std::vector<TraceEntry>& entries,
                         const RunParams& params) {
  cfg.validate();
  std::string why;
  HN_CHECK_MSG(fast_model_supports(cfg, &why), why.c_str());
  check_trace(entries, cfg.num_nodes());
  return FastModel(cfg, params).run(entries);
}

}  // namespace hybridnoc
