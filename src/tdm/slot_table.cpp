#include "tdm/slot_table.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/state_io.hpp"

namespace hybridnoc {

namespace {
bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }
}  // namespace

static_assert(kNumPorts * NocConfig::kMaxSlotTableSize <= 65536,
              "every valid entry's lease index must fit a 16-bit handle");

SlotTable::SlotTable(int capacity, int active, bool leased)
    : capacity_(capacity), active_(active), leased_(leased) {
  HN_CHECK(is_pow2(capacity) && is_pow2(active) && active <= capacity &&
           capacity <= NocConfig::kMaxSlotTableSize);
}

void SlotTable::allocate() {
  if (!out_.empty()) return;
  const size_t cells = static_cast<size_t>(kNumPorts) * capacity_;
  out_.assign(cells, kFree);
  handle_.resize(cells);
}

void SlotTable::occupy(size_t c, Port out, PacketId owner, Cycle stamp) {
  out_[c] = static_cast<std::uint8_t>(out);
  handle_[c] = static_cast<std::uint16_t>(leases_.size());
  leases_.push_back(Lease{owner, stamp, static_cast<std::uint32_t>(c)});
  ++valid_by_port_[c / static_cast<size_t>(capacity_)];
}

void SlotTable::vacate(size_t c) {
  const std::uint16_t h = handle_[c];
  leases_[h] = leases_.back();
  handle_[leases_[h].cell] = h;
  leases_.pop_back();
  out_[c] = kFree;
  --valid_by_port_[c / static_cast<size_t>(capacity_)];
}

bool SlotTable::can_reserve(int slot, int duration, Port in, Port out) const {
  HN_CHECK(duration >= 1 && duration <= active_);
  const auto want = static_cast<std::uint8_t>(out);
  const bool in_empty = valid_entries(in) == 0;
  for (int d = 0; d < duration; ++d) {
    const int s = wrap(slot + d);
    if (!in_empty && out_[cell(s, in)] != kFree)
      return false;  // input conflict (setup 2)
    for (int j = 0; j < kNumPorts; ++j) {
      const Port pj = static_cast<Port>(j);
      if (pj == in) continue;
      if (valid_by_port_[static_cast<size_t>(j)] == 0) continue;
      if (out_[cell(s, pj)] == want) return false;  // output conflict (setup 3)
    }
  }
  return true;
}

bool SlotTable::reserve(int slot, int duration, Port in, Port out,
                        PacketId owner, Cycle now) {
  if (!can_reserve(slot, duration, in, out)) return false;
  allocate();
  for (int d = 0; d < duration; ++d) {
    occupy(cell(wrap(slot + d), in), out, owner, now);
  }
  return true;
}

std::optional<Port> SlotTable::release(int slot, int duration, Port in,
                                       PacketId owner) {
  std::optional<Port> first_out;
  if (valid_entries(in) == 0) return first_out;
  for (int d = 0; d < duration; ++d) {
    const size_t c = cell(wrap(slot + d), in);
    if (out_[c] == kFree) continue;
    if (owner != 0 && lease(c).owner != owner) continue;  // someone else's
    if (!first_out) first_out = static_cast<Port>(out_[c]);
    vacate(c);
  }
  return first_out;
}

std::optional<Port> SlotTable::lookup(Cycle cycle, Port in) const {
  return lookup_slot(slot_of(cycle), in);
}

std::optional<Port> SlotTable::lookup_slot(int slot, Port in) const {
  if (valid_entries(in) == 0) return std::nullopt;
  const std::uint8_t out = out_[cell(wrap(slot), in)];
  if (out == kFree) return std::nullopt;
  return static_cast<Port>(out);
}

std::optional<PacketId> SlotTable::owner_at(int slot, Port in) const {
  if (valid_entries(in) == 0) return std::nullopt;
  const size_t c = cell(wrap(slot), in);
  if (out_[c] == kFree) return std::nullopt;
  return lease(c).owner;
}

void SlotTable::refresh(int slot, int count, Port in, Cycle now) {
  if (valid_entries(in) == 0) return;
  for (int d = 0; d < count; ++d) {
    const size_t c = cell(wrap(slot + d), in);
    if (out_[c] != kFree) lease(c).stamp = now;
  }
}

std::optional<Port> SlotTable::output_reserved_at(Cycle cycle, Port out) const {
  if (out_.empty()) return std::nullopt;  // never reserved: no storage
  const int s = slot_of(cycle);
  const auto want = static_cast<std::uint8_t>(out);
  for (int j = 0; j < kNumPorts; ++j) {
    if (valid_by_port_[static_cast<size_t>(j)] == 0) continue;
    if (out_[cell(s, static_cast<Port>(j))] == want) return static_cast<Port>(j);
  }
  return std::nullopt;
}

double SlotTable::occupancy() const {
  return static_cast<double>(valid_entries()) /
         (static_cast<double>(active_) * kNumPorts);
}

bool SlotTable::input_free(int slot, int duration, Port in) const {
  if (valid_by_port_[static_cast<size_t>(in)] == 0) return true;
  for (int d = 0; d < duration; ++d) {
    if (out_[cell(wrap(slot + d), in)] != kFree) return false;
  }
  return true;
}

void SlotTable::reset() {
  std::fill(out_.begin(), out_.end(), kFree);
  leases_.clear();
  valid_by_port_.fill(0);
}

bool SlotTable::grow() {
  if (active_ == capacity_) return false;
  set_active_size(active_ * 2);
  return true;
}

void SlotTable::set_active_size(int active) {
  HN_CHECK(is_pow2(active) && active <= capacity_);
  reset();
  active_ = active;
}

// The sparse entry list keeps two bodies: the writer scans for valid cells,
// the reader rebuilds the table and checks each entry it places.
void SlotTable::save_state(StateWriter& w) const {
  w.section("slot_table");
  w.fields(capacity_, active_, leased_);
  for (int j = 0; j < kNumPorts; ++j) {
    const Port in = static_cast<Port>(j);
    w.field(valid_by_port_[static_cast<size_t>(j)]);
    if (valid_entries(in) == 0) continue;
    for (int s = 0; s < active_; ++s) {
      const size_t c = cell(s, in);
      if (out_[c] == kFree) continue;
      w.fields(s, out_[c], lease(c).owner, lease(c).stamp);
    }
  }
}

void SlotTable::restore_state(StateReader& r) {
  r.section("slot_table");
  r.expect(capacity_, "slot-table capacity mismatch");
  int active = 0;
  r.fields(active, leased_);
  r.check(is_pow2(active) && active <= capacity_,
          "slot-table active size invalid");
  set_active_size(active);
  for (int j = 0; j < kNumPorts; ++j) {
    const Port in = static_cast<Port>(j);
    int valid = 0;
    r.ranged(valid, 0, active, "slot-table valid count out of range");
    if (valid > 0) allocate();
    for (int n = 0; n < valid; ++n) {
      int s = 0;
      r.ranged(s, 0, active - 1, "slot index out of range");
      const size_t c = cell(s, in);
      r.check(out_[c] == kFree, "duplicate slot entry");
      std::uint8_t out = kFree;
      PacketId owner = 0;
      Cycle stamp = 0;
      r.ranged(out, 0, kNumPorts - 1, "slot entry port out of range");
      r.fields(owner, stamp);
      occupy(c, static_cast<Port>(out), owner, stamp);
    }
  }
}

}  // namespace hybridnoc
