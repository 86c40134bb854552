// Pipelined point-to-point channels. All cross-component communication in the
// simulator flows through these registers — flits through Channel<T>,
// credits through CreditWire — which is what makes the fixed component tick
// order safe: nothing written in cycle T is visible before T + latency.
//
// Data links use latency 2 ("written at end of T, readable at T+2"): the
// intervening cycle is the link-transmission stage, so a circuit-switched flit
// crossing a crossbar at slot s crosses the next router's crossbar at s+2 —
// exactly the modulo-S slot increment the setup protocol applies per hop
// (Section II-B).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/ring.hpp"
#include "common/types.hpp"
#include "noc/scheduler.hpp"

namespace hybridnoc {

constexpr int kDataChannelLatency = 2;   ///< router ST -> next router arrival
constexpr int kCreditChannelLatency = 1; ///< credit wire

/// Type-erased staging control for the parallel tick engine. A channel
/// whose producer and consumer live in different shards is put in staged
/// mode: send() appends to a private outbox the producer thread owns, and
/// the consumer's shard applies the outbox with commit_staged() after the
/// compute barrier — so neither side ever touches the live queue (or the
/// consumer's wake scheduler) from a foreign thread. Same-shard channels
/// stay in eager mode and behave exactly as before.
class ChannelBase {
 public:
  virtual ~ChannelBase() = default;
  void set_staged(bool on) { staged_ = on; }
  bool staged() const { return staged_; }
  /// Move every staged entry into the live queue, in send order, waking the
  /// consumer per entry. Called from the consumer's shard only.
  virtual void commit_staged() = 0;

 protected:
  bool staged_ = false;
};

template <typename T>
class Channel : public ChannelBase {
 public:
  explicit Channel(int latency) : latency_(latency) { HN_CHECK(latency >= 1); }
  // pending_ may point at this channel's own sink_.
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Register the component that drains this channel, so every send wakes it
  /// at the item's ready cycle (the active-set scheduler's wake source).
  void set_consumer(TickScheduler* sched, int consumer_id) {
    sched_ = sched;
    consumer_ = consumer_id;
  }

  /// Register the consumer's occupancy word: `bit` is set in `*mask` while
  /// the queue holds any item, ready or not, so the consumer polls only
  /// channels that hold something. For flit channels `circuit_bit` is set
  /// while the queue holds a circuit-switched flit, so the advance-signal
  /// look-ahead peeks only channels that can answer yes. Called from the
  /// consumer's side only, as are commit_staged() and receive(); an eager
  /// send() shares the consumer's shard by construction.
  void set_pending_mask(std::uint32_t* mask, std::uint32_t bit,
                        std::uint32_t circuit_bit = 0) {
    HN_CHECK(mask != nullptr);
    pending_ = mask;
    pending_bit_ = bit;
    circuit_bit_ = circuit_bit;
    if (!queue_.empty()) *pending_ |= pending_bit_;
    if (circuit_count_ > 0) *pending_ |= circuit_bit_;
  }

  /// Enqueue `item` at the end of cycle `now`; readable at now + latency.
  void send(T item, Cycle now) {
    const Cycle ready = now + static_cast<Cycle>(latency_);
    if (staged_) {
      // Producer-thread-private outbox; the live queue, the ordering check
      // and the consumer wake all happen at commit_staged().
      staging_.push_back({ready, std::move(item)});
      return;
    }
    HN_CHECK_MSG(queue_.empty() || queue_.back().ready <= ready,
                 "channel writes must be issued in cycle order");
    note_enqueued(item);
    queue_.push_back({ready, std::move(item)});
    if (sched_) sched_->wake_at(consumer_, ready);
  }

  void commit_staged() override {
    if (staging_.empty()) return;
    // One ordering check against the live queue, then one wake per distinct
    // ready cycle: staged sends arrive in issue order, so equal ready cycles
    // (the common case — one compute phase stages one cycle's sends) are
    // contiguous and need a single wake_at.
    HN_CHECK_MSG(queue_.empty() || queue_.back().ready <= staging_.front().ready,
                 "channel writes must be issued in cycle order");
    Cycle prev = staging_.front().ready;
    Cycle last_waked = kCycleNever;
    for (Entry& e : staging_) {
      HN_CHECK_MSG(prev <= e.ready, "staged channel writes out of cycle order");
      prev = e.ready;
      const Cycle ready = e.ready;
      note_enqueued(e.item);
      queue_.push_back(std::move(e));
      if (sched_ && ready != last_waked) {
        sched_->wake_at(consumer_, ready);
        last_waked = ready;
      }
    }
    staging_.clear();
  }

  /// Pop the item readable at `now`, if any.
  std::optional<T> receive(Cycle now) {
    if (queue_.empty() || queue_.front().ready > now) return std::nullopt;
    HN_CHECK_MSG(queue_.front().ready == now, "unconsumed channel item");
    T item = std::move(queue_.front().item);
    queue_.pop_front();
    if (queue_.empty()) *pending_ &= ~pending_bit_;
    if constexpr (kCountsCircuit) {
      if (item.switching == Switching::Circuit && --circuit_count_ == 0)
        *pending_ &= ~circuit_bit_;
    }
    return item;
  }

  /// Non-destructive check: will an item become readable exactly at `cycle`?
  /// Models the one-bit circuit-switched advance signal of Section II-D.
  /// O(1): the queue is ready-cycle ordered and consumers drain every item
  /// the cycle it matures, so once entries older than `cycle` are impossible
  /// only the front can match.
  bool arrival_at(Cycle cycle) const {
    HN_CHECK_MSG(queue_.empty() || queue_.front().ready >= cycle,
                 "arrival_at queried past an unconsumed item");
    return !queue_.empty() && queue_.front().ready == cycle;
  }

  const T* peek_arrival(Cycle cycle) const {
    HN_CHECK_MSG(queue_.empty() || queue_.front().ready >= cycle,
                 "peek_arrival queried past an unconsumed item");
    if (!queue_.empty() && queue_.front().ready == cycle) return &queue_.front().item;
    return nullptr;
  }

  /// Ready cycle of the oldest in-flight item, kCycleNever when empty.
  Cycle next_ready() const { return queue_.empty() ? kCycleNever : queue_.front().ready; }

  bool empty() const { return queue_.empty(); }
  size_t in_flight() const { return queue_.size(); }
  int latency() const { return latency_; }

  /// Invoke `fn(item)` on every queued and staged entry, in order. Used by
  /// the network teardown drain to release flight anchors of in-flight
  /// traffic when a simulation is destroyed mid-run.
  template <typename Fn>
  void visit_in_flight(Fn fn) {
    for (std::size_t i = 0; i < queue_.size(); ++i) fn(queue_[i].item);
    for (Entry& e : staging_) fn(e.item);
  }

 private:
  static constexpr bool kCountsCircuit = std::is_same_v<T, Flit>;

  struct Entry {
    Cycle ready = 0;
    T item{};
  };

  /// Occupancy bookkeeping for an item entering the live queue.
  void note_enqueued(const T& item) {
    *pending_ |= pending_bit_;
    if constexpr (kCountsCircuit) {
      if (item.switching == Switching::Circuit) {
        ++circuit_count_;
        *pending_ |= circuit_bit_;
      }
    }
  }

  /// In-flight items kept inside the channel. A data link carries at most
  /// one flit per cycle and holds it for latency 2, so it never holds more
  /// than three (ready at now, now + 1 and now + 2). Bursts past this spill
  /// the queue to the heap for good.
  static constexpr std::size_t kInlineItems = 4;

  // Consumer-side fields first (receive() reads the occupancy word, the
  // ring's bookkeeping and its front item); the producer-only staging
  // outbox goes last.
  /// Consumer occupancy word (see set_pending_mask); until one is
  /// registered the bits land in sink_, so the hot paths never branch on it.
  std::uint32_t* pending_ = &sink_;
  std::uint32_t pending_bit_ = 0;
  std::uint32_t circuit_bit_ = 0;
  std::uint32_t circuit_count_ = 0;  ///< circuit flits in the live queue
  int latency_;
  RingDeque<Entry, kInlineItems> queue_;
  TickScheduler* sched_ = nullptr;  ///< null until set_consumer()
  int consumer_ = -1;
  std::uint32_t sink_ = 0;
  std::vector<Entry> staging_;  ///< cross-shard outbox (staged mode only)
};

using FlitChannel = Channel<Flit>;

/// One returned buffer slot for VC `vc` at the downstream input port. The
/// upstream router reallocates a downstream VC to a new packet only after the
/// tail was sent and every credit is home (conservative atomic reallocation).
struct Credit {
  int vc = 0;
};

/// The per-VC credit return wires of one link (Section II-D): latency 1, at
/// most one credit per VC per cycle. The consumer drains every credit the
/// cycle it matures, so at most two ready cycles are ever in flight — the
/// one the consumer reads this cycle and the one the producer writes for
/// the next — and each is one VC bitmask. receive() hands the credits of a
/// cycle out in ascending VC order rather than send order; every consumer's
/// per-VC update commutes, so the order is unobservable. Staged (cross-shard)
/// sends collect in one more mask, since one compute phase writes one cycle.
class CreditWire final : public ChannelBase {
 public:
  CreditWire() = default;
  // pending_ may point at this wire's own sink_.
  CreditWire(const CreditWire&) = delete;
  CreditWire& operator=(const CreditWire&) = delete;

  /// As Channel::set_consumer: every new ready cycle wakes the consumer.
  void set_consumer(TickScheduler* sched, int consumer_id) {
    sched_ = sched;
    consumer_ = consumer_id;
  }

  /// As Channel::set_pending_mask: `bit` is set in `*mask` while any credit
  /// is in flight.
  void set_pending_mask(std::uint32_t* mask, std::uint32_t bit) {
    HN_CHECK(mask != nullptr);
    pending_ = mask;
    pending_bit_ = bit;
    if (count_ > 0) *pending_ |= pending_bit_;
  }

  /// Return a credit for `c.vc` at the end of cycle `now`; readable at now + 1.
  void send(Credit c, Cycle now) {
    HN_CHECK(c.vc >= 0 && c.vc < 32);
    const std::uint32_t bit = 1u << static_cast<unsigned>(c.vc);
    const Cycle ready = now + kCreditChannelLatency;
    if (staged_) {
      // Producer-thread-private; the live masks and the consumer wake are
      // touched only at commit_staged().
      HN_CHECK_MSG(staged_mask_ == 0 || staged_ready_ == ready,
                   "staged credits span two cycles");
      HN_CHECK_MSG(!(staged_mask_ & bit), "two credits for one VC in one cycle");
      staged_mask_ |= bit;
      staged_ready_ = ready;
      return;
    }
    push(ready, bit);
  }

  void commit_staged() override {
    if (staged_mask_ == 0) return;
    push(staged_ready_, staged_mask_);
    staged_mask_ = 0;
  }

  /// Pop the lowest-VC credit readable at `now`, if any.
  std::optional<Credit> receive(Cycle now) {
    if (count_ == 0 || ready_[head_] > now) return std::nullopt;
    HN_CHECK_MSG(ready_[head_] == now, "unconsumed channel item");
    std::uint32_t& mask = mask_[head_];
    const Credit c{std::countr_zero(mask)};
    mask &= mask - 1;
    if (mask == 0) {
      head_ ^= 1u;
      if (--count_ == 0) *pending_ &= ~pending_bit_;
    }
    return c;
  }

  /// Ready cycle of the oldest in-flight credit, kCycleNever when empty.
  Cycle next_ready() const { return count_ > 0 ? ready_[head_] : kCycleNever; }

  /// Credits in flight, staged ones excluded.
  std::size_t in_flight() const {
    std::size_t n = 0;
    for (unsigned i = 0; i < count_; ++i)
      n += static_cast<std::size_t>(std::popcount(mask_[(head_ + i) & 1u]));
    return n;
  }

 private:
  /// Merge `bits` into the live cycle `ready`, opening it (and waking the
  /// consumer) if it is new.
  void push(Cycle ready, std::uint32_t bits) {
    if (count_ > 0) {
      const unsigned back = (head_ + count_ - 1u) & 1u;
      HN_CHECK_MSG(ready_[back] <= ready, "channel writes must be issued in cycle order");
      if (ready_[back] == ready) {
        HN_CHECK_MSG(!(mask_[back] & bits), "two credits for one VC in one cycle");
        mask_[back] |= bits;
        return;
      }
      HN_CHECK_MSG(count_ < 2, "unconsumed channel item");
    }
    const unsigned slot = (head_ + count_) & 1u;
    ready_[slot] = ready;
    mask_[slot] = bits;
    ++count_;
    *pending_ |= pending_bit_;
    if (sched_) sched_->wake_at(consumer_, ready);
  }

  // Consumer-side fields first; the producer-only staging pair goes last.
  std::uint8_t head_ = 0;   ///< slot of the oldest live cycle
  std::uint8_t count_ = 0;  ///< live cycles, 0..2
  std::uint32_t pending_bit_ = 0;
  /// Consumer occupancy word; until one is registered the bit lands in sink_.
  std::uint32_t* pending_ = &sink_;
  Cycle ready_[2] = {};
  std::uint32_t mask_[2] = {};  ///< VCs with a credit ready at ready_[i]
  TickScheduler* sched_ = nullptr;  ///< null until set_consumer()
  int consumer_ = -1;
  std::uint32_t sink_ = 0;
  std::uint32_t staged_mask_ = 0;  ///< cross-shard outbox (staged mode only)
  Cycle staged_ready_ = 0;
};

}  // namespace hybridnoc
