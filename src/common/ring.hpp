// Contiguous-storage replacements for the node-based containers on the
// loaded path: a growable ring deque (channel queues, NI injection queues)
// and a sorted cycle-keyed event queue (NI CS plans and
// deferred-config timing wheels).
//
// Both grow by doubling and never shrink, so after a warmup high-water mark
// steady-state traffic moves flits without touching the heap at all — the
// property the zero-allocation perf test pins down. Neither container is
// thread-safe; each instance is owned by exactly one shard, like the deques
// and maps they replace.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace hybridnoc {

namespace ring_detail {
/// A ring's inline slots; the zero-slot case takes no space.
template <typename T, std::size_t N>
struct Slots {
  T items[N];
  T* data() { return items; }
};
template <typename T>
struct Slots<T, 0> {
  T* data() { return nullptr; }
};
}  // namespace ring_detail

/// Fixed-capacity-at-steady-state ring buffer with deque semantics
/// (push/pop at both ends, indexed access, forward iteration from front).
/// Capacity is always a power of two. The first `Inline` slots live inside
/// the ring itself, so a ring that never holds more than `Inline` items
/// never touches the heap; the first push past that spills every item to
/// heap storage, which grows by doubling and never shrinks (nor returns
/// inline). `Inline == 0` is heap-only. Elements are moved (not
/// reconstructed) on push/pop, so a popped slot of a refcounting type drops
/// its reference immediately.
template <typename T, std::size_t Inline = 0>
class RingDeque {
  static_assert((Inline & (Inline - 1)) == 0,
                "inline capacity must be 0 or a power of two");

 public:
  RingDeque() { buf_ = slots_.data(); }
  ~RingDeque() { release(); }
  RingDeque(RingDeque&& o) noexcept { take(o); }
  RingDeque& operator=(RingDeque&& o) noexcept {
    if (this != &o) {
      release();
      take(o);
    }
    return *this;
  }
  RingDeque(const RingDeque&) = delete;
  RingDeque& operator=(const RingDeque&) = delete;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& front() {
    HN_CHECK_MSG(count_ > 0, "RingDeque::front on empty ring");
    return buf_[head_];
  }
  const T& front() const {
    HN_CHECK_MSG(count_ > 0, "RingDeque::front on empty ring");
    return buf_[head_];
  }
  T& back() {
    HN_CHECK_MSG(count_ > 0, "RingDeque::back on empty ring");
    return buf_[(head_ + count_ - 1) & mask_];
  }
  const T& back() const {
    HN_CHECK_MSG(count_ > 0, "RingDeque::back on empty ring");
    return buf_[(head_ + count_ - 1) & mask_];
  }

  /// i-th element from the front.
  T& operator[](std::size_t i) {
    HN_CHECK_MSG(i < count_, "RingDeque index out of range");
    return buf_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    HN_CHECK_MSG(i < count_, "RingDeque index out of range");
    return buf_[(head_ + i) & mask_];
  }

  void push_back(T v) {
    if (count_ == cap_) grow();
    buf_[(head_ + count_) & mask_] = std::move(v);
    ++count_;
  }

  void push_front(T v) {
    if (count_ == cap_) grow();
    head_ = (head_ + cap_ - 1) & mask_;
    buf_[head_] = std::move(v);
    ++count_;
  }

  T pop_front() {
    HN_CHECK_MSG(count_ > 0, "RingDeque::pop_front on empty ring");
    T out = std::move(buf_[head_]);
    head_ = (head_ + 1) & mask_;
    --count_;
    return out;
  }

  T pop_back() {
    HN_CHECK_MSG(count_ > 0, "RingDeque::pop_back on empty ring");
    --count_;
    return std::move(buf_[(head_ + count_) & mask_]);
  }

  void clear() {
    // Drop held resources (refcounts) without releasing capacity.
    for (std::size_t i = 0; i < count_; ++i) buf_[(head_ + i) & mask_] = T{};
    head_ = 0;
    count_ = 0;
  }

  /// Storage currently reserved (steady-state high-water mark).
  std::size_t capacity() const { return cap_; }
  /// Has the ring outgrown its inline slots?
  bool on_heap() const { return cap_ > Inline; }

  /// Forward iterator over [front, back] in queue order. Enough of the
  /// iterator contract for range-for and the watchdog scans.
  class const_iterator {
   public:
    const_iterator(const RingDeque* r, std::size_t i) : r_(r), i_(i) {}
    const T& operator*() const { return (*r_)[i_]; }
    const T* operator->() const { return &(*r_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const RingDeque* r_;
    std::size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, count_); }

 private:
  void grow() {
    const std::uint32_t new_cap = cap_ == 0 ? kInitialCapacity : cap_ * 2;
    T* fresh = new T[new_cap];
    for (std::uint32_t i = 0; i < count_; ++i) fresh[i] = std::move(buf_[(head_ + i) & mask_]);
    release();
    buf_ = fresh;
    cap_ = new_cap;
    mask_ = new_cap - 1;
    head_ = 0;
  }

  void release() {
    if (on_heap()) delete[] buf_;
  }

  /// Steal `o`'s items (its heap block, or a move of its inline slots) and
  /// leave it empty on its own inline slots.
  void take(RingDeque& o) noexcept {
    head_ = o.head_;
    count_ = o.count_;
    mask_ = o.mask_;
    cap_ = o.cap_;
    if (o.on_heap()) {
      buf_ = o.buf_;
    } else {
      buf_ = slots_.data();
      std::move(o.slots_.data(), o.slots_.data() + Inline, buf_);
    }
    o.buf_ = o.slots_.data();
    o.head_ = 0;
    o.count_ = 0;
    o.mask_ = kInlineMask;
    o.cap_ = Inline;
  }

  static constexpr std::uint32_t kInitialCapacity = Inline > 0 ? 2 * Inline : 8;
  static constexpr std::uint32_t kInlineMask = Inline > 0 ? Inline - 1 : 0;

  // Bookkeeping first, then the inline slots, so a short ring's front item
  // often shares a cache line with its head and count.
  T* buf_;  ///< slots_ until the first spill, then the heap
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t mask_ = kInlineMask;
  std::uint32_t cap_ = Inline;
  [[no_unique_address]] ring_detail::Slots<T, Inline> slots_;
};

/// Sorted cycle-keyed event queue over contiguous storage: the flat
/// replacement for the NI's `std::map<Cycle, V>` / `std::multimap<Cycle, V>`
/// hot-path schedules. Iteration order is bit-compatible with the node-based
/// originals — ascending by cycle, insertion order among equal cycles
/// (inserts go at the upper bound, exactly where multimap::emplace lands) —
/// which the scheduler-/thread-equivalence suites depend on.
///
/// Entries are almost always consumed from the front (the next due cycle)
/// and inserted near the back (a future cycle), so the vector behaves like a
/// ring: pops advance a head index without moving elements, and the dead
/// prefix is recycled in O(size) only once it exceeds half the storage.
template <typename V>
class CycleMap {
 public:
  using Entry = std::pair<Cycle, V>;
  using iterator = typename std::vector<Entry>::iterator;
  using const_iterator = typename std::vector<Entry>::const_iterator;

  bool empty() const { return head_ == v_.size(); }
  std::size_t size() const { return v_.size() - head_; }

  iterator begin() { return v_.begin() + static_cast<std::ptrdiff_t>(head_); }
  iterator end() { return v_.end(); }
  const_iterator begin() const { return v_.begin() + static_cast<std::ptrdiff_t>(head_); }
  const_iterator end() const { return v_.end(); }

  Entry& front() {
    HN_CHECK_MSG(!empty(), "CycleMap::front on empty map");
    return v_[head_];
  }
  const Entry& front() const {
    HN_CHECK_MSG(!empty(), "CycleMap::front on empty map");
    return v_[head_];
  }

  /// Multimap-style insert: lands after any existing entries at `at`.
  void emplace(Cycle at, V value) {
    iterator it = std::upper_bound(begin(), end(), at, CmpCycleFirst{});
    v_.insert(it, Entry{at, std::move(value)});
  }

  /// Map-style insert: the caller guarantees `at` is not already present
  /// (the CS plan holds at most one flit per injection cycle).
  void emplace_unique(Cycle at, V value) {
    HN_CHECK_MSG(find(at) == end(), "CycleMap::emplace_unique on occupied cycle");
    emplace(at, std::move(value));
  }

  /// First entry at exactly `at`, or end().
  iterator find(Cycle at) {
    iterator it = std::lower_bound(begin(), end(), at, CmpFirstCycle{});
    return (it != end() && it->first == at) ? it : end();
  }
  const_iterator find(Cycle at) const {
    const_iterator it = std::lower_bound(begin(), end(), at, CmpFirstCycle{});
    return (it != end() && it->first == at) ? it : end();
  }

  bool contains(Cycle at) const { return find(at) != end(); }

  void pop_front() {
    HN_CHECK_MSG(!empty(), "CycleMap::pop_front on empty map");
    v_[head_] = Entry{};  // release held resources now, not at compaction
    ++head_;
    maybe_compact();
  }

  iterator erase(iterator it) {
    if (it == begin()) {
      pop_front();
      return begin();
    }
    return v_.erase(it);
  }

  /// Removes every entry matching `pred(cycle, value)`; returns the count.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    iterator first = begin();
    iterator kept = std::remove_if(
        first, end(), [&](const Entry& e) { return pred(e.first, e.second); });
    const std::size_t n = static_cast<std::size_t>(end() - kept);
    v_.erase(kept, v_.end());
    return n;
  }

  void clear() {
    v_.clear();
    head_ = 0;
  }

 private:
  struct CmpCycleFirst {
    bool operator()(Cycle c, const Entry& e) const { return c < e.first; }
  };
  struct CmpFirstCycle {
    bool operator()(const Entry& e, Cycle c) const { return e.first < c; }
  };

  void maybe_compact() {
    if (head_ == v_.size()) {
      v_.clear();
      head_ = 0;
    } else if (head_ >= kCompactThreshold && head_ * 2 >= v_.size()) {
      v_.erase(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  static constexpr std::size_t kCompactThreshold = 64;

  std::vector<Entry> v_;
  std::size_t head_ = 0;
};

}  // namespace hybridnoc
