#include "tdm/dlt.hpp"

#include "common/assert.hpp"
#include "common/state_io.hpp"

namespace hybridnoc {

DestinationLookupTable::DestinationLookupTable(int capacity, int num_slots,
                                               int num_nodes)
    : capacity_(capacity), num_slots_(num_slots), num_nodes_(num_nodes) {
  HN_CHECK(capacity >= 1 && num_slots >= 1 && num_nodes >= 1);
}

int DestinationLookupTable::index_of(NodeId dest) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].dest == dest) return static_cast<int>(i);
  }
  return -1;
}

void DestinationLookupTable::observe(NodeId dest, int slot, int duration, Port in,
                                     Port out, Cycle now, std::uint64_t generation) {
  ++accesses_;
  if (entries_.empty()) entries_.resize(static_cast<size_t>(capacity_));
  int idx = index_of(dest);
  if (idx < 0) {
    // Take a free entry, else evict the least recently used.
    int lru = 0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].dest == kInvalidNode) {
        lru = static_cast<int>(i);
        break;
      }
      if (entries_[i].last_used < entries_[static_cast<size_t>(lru)].last_used)
        lru = static_cast<int>(i);
    }
    idx = lru;
  }
  DltEntry e;
  e.dest = dest;
  e.slot = slot;
  e.duration = duration;
  e.in = in;
  e.out = out;
  e.last_used = now;
  e.generation = generation;
  entries_[static_cast<size_t>(idx)] = e;
}

std::optional<DltEntry> DestinationLookupTable::find(NodeId dest) const {
  ++accesses_;
  const int idx = index_of(dest);
  if (idx < 0 || !entries_[static_cast<size_t>(idx)].active) return std::nullopt;
  return entries_[static_cast<size_t>(idx)];
}

void DestinationLookupTable::activate_route(int slot, Port in) {
  for (auto& e : entries_) {
    if (e.dest != kInvalidNode && e.slot == slot && e.in == in) e.active = true;
  }
}

void DestinationLookupTable::touch(NodeId dest, Cycle now) {
  const int idx = index_of(dest);
  if (idx >= 0) entries_[static_cast<size_t>(idx)].last_used = now;
}

bool DestinationLookupTable::record_failure(NodeId dest) {
  const int idx = index_of(dest);
  if (idx < 0) return false;
  auto& e = entries_[static_cast<size_t>(idx)];
  if (e.fail_count < 3) ++e.fail_count;
  if (e.fail_count >= 2) {  // counter reached '10'
    e = DltEntry{};
    return true;
  }
  return false;
}

void DestinationLookupTable::invalidate_route(int slot, Port in) {
  for (auto& e : entries_) {
    if (e.dest != kInvalidNode && e.slot == slot && e.in == in) e = DltEntry{};
  }
}

void DestinationLookupTable::remove(NodeId dest) {
  const int idx = index_of(dest);
  if (idx >= 0) entries_[static_cast<size_t>(idx)] = DltEntry{};
}

void DestinationLookupTable::clear() {
  for (auto& e : entries_) e = DltEntry{};
}

int DestinationLookupTable::size() const {
  int n = 0;
  for (const auto& e : entries_)
    if (e.dest != kInvalidNode) ++n;
  return n;
}

template <typename Ar, typename Self>
void DestinationLookupTable::layout(Ar& ar, Self& self) {
  ar.section("dlt");
  ar.expect(self.capacity_, "DLT capacity mismatch");
  const auto entry = [&](auto& e) {
    // An empty entry holds dest = kInvalidNode, slot = duration = 0.
    ar.ranged(e.dest, kInvalidNode, self.num_nodes_ - 1,
              "DLT entry destination outside the mesh");
    ar.ranged(e.slot, 0, self.num_slots_ - 1, "DLT entry slot out of range");
    ar.ranged(e.duration, 0, self.num_slots_ - 1,
              "DLT entry duration out of range");
    ar.ranged(e.in, Port::Local, Port::West, "DLT entry port out of range");
    ar.ranged(e.out, Port::Local, Port::West, "DLT entry port out of range");
    ar.fields(e.fail_count, e.last_used, e.generation, e.active);
  };
  if constexpr (Ar::kReading) {
    self.entries_.resize(static_cast<size_t>(self.capacity_));
  }
  if (self.entries_.empty()) {
    // Never observed anything: archive `capacity` empty entries all the same.
    for (int i = 0; i < self.capacity_; ++i) {
      DltEntry empty;
      entry(empty);
    }
  }
  for (auto& e : self.entries_) entry(e);
  ar.field(self.accesses_);
}

void DestinationLookupTable::save_state(StateWriter& w) const {
  layout(w, *this);
}

void DestinationLookupTable::restore_state(StateReader& r) { layout(r, *this); }

}  // namespace hybridnoc
