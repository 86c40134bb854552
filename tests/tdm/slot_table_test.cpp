#include "tdm/slot_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/state_io.hpp"

namespace hybridnoc {
namespace {

// Figure 1 of the paper, played back literally. The figure's in_1/in_2 map to
// West/North and out_3/out_4 to South/East; the table has 4 slots s0..s3.
TEST(SlotTable, Figure1Scenario) {
  SlotTable t(4, 4);

  // setup1: in_1 -> out_4, starting slot s3, duration 2. Succeeds; with
  // modulo-S reservation both s3 and s0 are taken.
  EXPECT_TRUE(t.reserve(3, 2, Port::West, Port::East));
  EXPECT_EQ(t.lookup_slot(3, Port::West), Port::East);
  EXPECT_EQ(t.lookup_slot(0, Port::West), Port::East);  // wrapped
  EXPECT_EQ(t.lookup_slot(1, Port::West), std::nullopt);
  EXPECT_EQ(t.lookup_slot(2, Port::West), std::nullopt);

  // setup2: in_1 -> out_3 at s3 fails — the slot is already allocated for
  // this input. Tables remain unchanged.
  EXPECT_FALSE(t.reserve(3, 1, Port::West, Port::South));
  EXPECT_EQ(t.lookup_slot(3, Port::West), Port::East);
  EXPECT_EQ(t.valid_entries(), 2);

  // setup3: in_2 -> out_4 at s3 fails — out_4 is reserved for in_1 at s3
  // (conflict at the output port).
  EXPECT_FALSE(t.reserve(3, 1, Port::North, Port::East));
  EXPECT_EQ(t.lookup_slot(3, Port::North), std::nullopt);
  EXPECT_EQ(t.valid_entries(), 2);

  // Teardown resets the valid bits so the slots can be reused.
  EXPECT_TRUE(t.release(3, 2, Port::West).has_value());
  EXPECT_EQ(t.valid_entries(), 0);
  EXPECT_TRUE(t.reserve(3, 1, Port::North, Port::East));
}

TEST(SlotTable, NonConflictingReservationsCoexist) {
  SlotTable t(8, 8);
  EXPECT_TRUE(t.reserve(0, 4, Port::West, Port::East));
  // Same slots, different input AND different output: fine.
  EXPECT_TRUE(t.reserve(0, 4, Port::North, Port::South));
  // Same output at disjoint slots: fine.
  EXPECT_TRUE(t.reserve(4, 4, Port::North, Port::East));
  EXPECT_EQ(t.valid_entries(), 12);
}

TEST(SlotTable, LookupByCycleUsesModuloActive) {
  SlotTable t(8, 8);
  ASSERT_TRUE(t.reserve(3, 1, Port::Local, Port::East));
  EXPECT_EQ(t.lookup(3, Port::Local), Port::East);
  EXPECT_EQ(t.lookup(11, Port::Local), Port::East);
  EXPECT_EQ(t.lookup(8 * 1000 + 3, Port::Local), Port::East);
  EXPECT_EQ(t.lookup(4, Port::Local), std::nullopt);
}

TEST(SlotTable, OutputReservedAtFindsOwner) {
  SlotTable t(8, 8);
  ASSERT_TRUE(t.reserve(2, 2, Port::West, Port::East));
  EXPECT_EQ(t.output_reserved_at(2, Port::East), Port::West);
  EXPECT_EQ(t.output_reserved_at(10, Port::East), Port::West);
  EXPECT_EQ(t.output_reserved_at(4, Port::East), std::nullopt);
  EXPECT_EQ(t.output_reserved_at(2, Port::South), std::nullopt);
}

TEST(SlotTable, OccupancyFraction) {
  SlotTable t(8, 8);
  EXPECT_DOUBLE_EQ(t.occupancy(), 0.0);
  ASSERT_TRUE(t.reserve(0, 4, Port::West, Port::East));
  EXPECT_DOUBLE_EQ(t.occupancy(), 4.0 / (8.0 * kNumPorts));
}

TEST(SlotTable, InputFreePreCheck) {
  SlotTable t(8, 8);
  ASSERT_TRUE(t.reserve(2, 2, Port::Local, Port::East));
  EXPECT_FALSE(t.input_free(2, 1, Port::Local));
  EXPECT_FALSE(t.input_free(1, 2, Port::Local));  // covers slot 2
  EXPECT_TRUE(t.input_free(4, 4, Port::Local));
  EXPECT_TRUE(t.input_free(2, 2, Port::West));  // other input unaffected
}

TEST(SlotTable, ReleaseIsIdempotentAndPartial) {
  SlotTable t(8, 8);
  ASSERT_TRUE(t.reserve(0, 4, Port::West, Port::East));
  EXPECT_EQ(t.release(0, 4, Port::West), Port::East);
  EXPECT_EQ(t.release(0, 4, Port::West), std::nullopt);  // nothing left
  EXPECT_EQ(t.valid_entries(), 0);
}

TEST(SlotTable, ActiveRegionGrowsAndResets) {
  SlotTable t(128, 16);
  EXPECT_EQ(t.active_size(), 16);
  ASSERT_TRUE(t.reserve(5, 4, Port::West, Port::East));
  EXPECT_TRUE(t.grow());
  EXPECT_EQ(t.active_size(), 32);
  EXPECT_EQ(t.valid_entries(), 0);  // reset on resize (Section II-C)
  // Slots beyond the old region are now addressable.
  EXPECT_TRUE(t.reserve(30, 2, Port::West, Port::East));
}

TEST(SlotTable, GrowSaturatesAtCapacity) {
  SlotTable t(32, 16);
  EXPECT_TRUE(t.grow());
  EXPECT_FALSE(t.grow());
  EXPECT_EQ(t.active_size(), 32);
}

TEST(SlotTable, WrapAroundDurationAtActiveBoundary) {
  SlotTable t(128, 16);  // active 16: slot 14 + duration 4 covers 14,15,0,1
  ASSERT_TRUE(t.reserve(14, 4, Port::Local, Port::East));
  EXPECT_EQ(t.lookup_slot(15, Port::Local), Port::East);
  EXPECT_EQ(t.lookup_slot(0, Port::Local), Port::East);
  EXPECT_EQ(t.lookup_slot(1, Port::Local), Port::East);
  EXPECT_EQ(t.lookup_slot(2, Port::Local), std::nullopt);
  // Cycle 16 maps to slot 0 in the active region.
  EXPECT_EQ(t.lookup(16, Port::Local), Port::East);
}

TEST(SlotTable, OwnerFencesRelease) {
  SlotTable t(16, 16);
  ASSERT_TRUE(t.reserve(4, 2, Port::West, Port::East, /*owner=*/7));
  EXPECT_EQ(t.owner_at(4, Port::West), PacketId{7});
  // A teardown tagged with a different setup id must not touch the entries.
  EXPECT_EQ(t.release(4, 2, Port::West, /*owner=*/9), std::nullopt);
  EXPECT_EQ(t.valid_entries(), 2);
  // The owning teardown releases them and reports the output port.
  EXPECT_EQ(t.release(4, 2, Port::West, /*owner=*/7), Port::East);
  EXPECT_EQ(t.valid_entries(), 0);
}

TEST(SlotTable, UntaggedReleaseIgnoresOwners) {
  SlotTable t(16, 16);
  ASSERT_TRUE(t.reserve(0, 2, Port::North, Port::South, /*owner=*/5));
  // owner 0 = untagged release (legacy callers): releases regardless.
  EXPECT_EQ(t.release(0, 2, Port::North), Port::South);
  EXPECT_EQ(t.valid_entries(), 0);
}

TEST(SlotTable, LeaseExpiryReclaimsStaleEntriesOnly) {
  SlotTable t(16, 16);
  ASSERT_TRUE(t.reserve(0, 2, Port::West, Port::East, 1, /*now=*/100));
  ASSERT_TRUE(t.reserve(8, 2, Port::North, Port::South, 2, /*now=*/100));
  // Circuit traffic keeps the second window fresh.
  t.refresh(8, 2, Port::North, /*now=*/900);
  int expired_slots = 0;
  const int n = t.expire_older_than(/*cutoff=*/500,
                                    [&](int, Port) { ++expired_slots; });
  EXPECT_EQ(n, 2);
  EXPECT_EQ(expired_slots, 2);
  EXPECT_EQ(t.lookup_slot(0, Port::West), std::nullopt);
  EXPECT_EQ(t.lookup_slot(8, Port::North), Port::South);
  EXPECT_EQ(t.valid_entries(), 2);
}

/// (slot, input) pairs one lease sweep released, sorted.
using Expired = std::vector<std::pair<int, int>>;

Expired sweep(SlotTable& t, Cycle cutoff, int& count) {
  Expired out;
  count = t.expire_older_than(
      cutoff, [&](int s, Port in) { out.emplace_back(s, static_cast<int>(in)); });
  std::sort(out.begin(), out.end());
  return out;
}

void expect_same_entries(const SlotTable& a, const SlotTable& b) {
  ASSERT_EQ(a.valid_entries(), b.valid_entries());
  for (int j = 0; j < kNumPorts; ++j) {
    const Port in = static_cast<Port>(j);
    for (int s = 0; s < a.active_size(); ++s) {
      ASSERT_EQ(a.lookup_slot(s, in), b.lookup_slot(s, in))
          << "slot " << s << " port " << j;
      ASSERT_EQ(a.owner_at(s, in), b.owner_at(s, in))
          << "slot " << s << " port " << j;
    }
  }
}

/// Brute-force model of a 64-slot table: (port, slot) -> (out, owner,
/// stamp), with Figure 1's conflict rules and the lease sweep spelled out.
class ReferenceTable {
 public:
  static constexpr int kSlots = 64;

  bool reserve(int slot, int duration, Port in, Port out, PacketId owner,
               Cycle now) {
    for (int d = 0; d < duration; ++d) {
      const int s = wrap(slot + d);
      if (entries_.count({static_cast<int>(in), s})) return false;
      for (const auto& [key, e] : entries_) {
        if (key.second == s && e.out == out) return false;
      }
    }
    for (int d = 0; d < duration; ++d) {
      entries_[{static_cast<int>(in), wrap(slot + d)}] = Entry{out, owner, now};
    }
    return true;
  }

  std::optional<Port> release(int slot, int duration, Port in,
                              PacketId owner) {
    std::optional<Port> first_out;
    for (int d = 0; d < duration; ++d) {
      const auto it = entries_.find({static_cast<int>(in), wrap(slot + d)});
      if (it == entries_.end()) continue;
      if (owner != 0 && it->second.owner != owner) continue;
      if (!first_out) first_out = it->second.out;
      entries_.erase(it);
    }
    return first_out;
  }

  void refresh(int slot, int count, Port in, Cycle now) {
    for (int d = 0; d < count; ++d) {
      const auto it = entries_.find({static_cast<int>(in), wrap(slot + d)});
      if (it != entries_.end()) it->second.stamp = now;
    }
  }

  /// (slot, input) pairs whose stamp is older than `cutoff`, now released.
  Expired expire_older_than(Cycle cutoff) {
    Expired out;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.stamp < cutoff) {
        out.emplace_back(it->first.second, it->first.first);
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void reset() { entries_.clear(); }

  /// Every cell of `t` answers as the model does.
  void expect_matches(const SlotTable& t) const {
    ASSERT_EQ(t.valid_entries(), static_cast<int>(entries_.size()));
    for (int j = 0; j < kNumPorts; ++j) {
      const Port in = static_cast<Port>(j);
      int valid = 0;
      for (int s = 0; s < kSlots; ++s) {
        const auto it = entries_.find({j, s});
        const bool held = it != entries_.end();
        valid += held ? 1 : 0;
        ASSERT_EQ(t.lookup_slot(s, in),
                  held ? std::optional<Port>(it->second.out) : std::nullopt)
            << "slot " << s << " port " << j;
        ASSERT_EQ(t.owner_at(s, in),
                  held ? std::optional<PacketId>(it->second.owner)
                       : std::nullopt)
            << "slot " << s << " port " << j;
      }
      ASSERT_EQ(t.valid_entries(in), valid) << "port " << j;
    }
  }

 private:
  struct Entry {
    Port out;
    PacketId owner;
    Cycle stamp;
  };
  static int wrap(int slot) { return slot & (kSlots - 1); }
  std::map<std::pair<int, int>, Entry> entries_;
};

/// One seeded step of reserve / release / refresh / sweep / reset traffic
/// against a table, mirrored on the reference model; returns the number
/// of entries a sweep expired (0 for other steps).
int random_step(Rng& rng, Cycle& now, SlotTable& t, ReferenceTable& ref) {
  now += rng.uniform_int(48);
  const int slot = static_cast<int>(rng.uniform_int(64));
  const int duration = 1 + static_cast<int>(rng.uniform_int(6));
  const Port in = static_cast<Port>(rng.uniform_int(kNumPorts));
  const Port out = static_cast<Port>(rng.uniform_int(kNumPorts));
  const PacketId owner = 1 + rng.uniform_int(4);
  switch (rng.uniform_int(8)) {
    case 0:
    case 1:
      EXPECT_EQ(t.reserve(slot, duration, in, out, owner, now),
                ref.reserve(slot, duration, in, out, owner, now));
      return 0;
    case 2:
      EXPECT_EQ(t.release(slot, duration, in, owner),
                ref.release(slot, duration, in, owner));
      return 0;
    case 3:
      EXPECT_EQ(t.release(slot, duration, in), ref.release(slot, duration, in, 0));
      return 0;
    case 4: {
      // Release, then re-reserve the same window: the freed leases' places
      // in the store must be reused without resurrecting old stamps.
      EXPECT_EQ(t.release(slot, duration, in), ref.release(slot, duration, in, 0));
      const Cycle later = now + rng.uniform_int(8);
      EXPECT_EQ(t.reserve(slot, duration, in, out, owner, later),
                ref.reserve(slot, duration, in, out, owner, later));
      return 0;
    }
    case 5:
      t.refresh(slot, duration, in, now);
      ref.refresh(slot, duration, in, now);
      return 0;
    case 6: {
      const Cycle age = rng.uniform_int(2600);
      const Cycle cutoff = now > age ? now - age : 0;
      int n = 0;
      const Expired got = sweep(t, cutoff, n);
      EXPECT_EQ(got, ref.expire_older_than(cutoff));
      EXPECT_EQ(static_cast<int>(got.size()), n);
      return n;
    }
    default:
      if (rng.bernoulli(0.02)) {
        t.reset();
        ref.reset();
      }
      return 0;
  }
}

// Over seeded random reserve / release / refresh / sweep sequences, the
// table's compact lease store answers every query, release and sweep
// exactly as a brute-force map of (port, slot) -> (out, owner, stamp).
TEST(SlotTable, LeaseStoreMatchesReferenceModel) {
  int sweeps_with_expiries = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    SlotTable t(64, 64);
    ReferenceTable ref;
    Rng rng(seed);
    Cycle now = 0;
    for (int step = 0; step < 4000; ++step) {
      SCOPED_TRACE(step);
      if (random_step(rng, now, t, ref) > 0) ++sweeps_with_expiries;
      if (step % 50 == 0) ref.expect_matches(t);
      ASSERT_FALSE(::testing::Test::HasFailure());
    }
    ref.expect_matches(t);
  }
  EXPECT_GT(sweeps_with_expiries, 100);  // the sweeps did real work
}

/// A slot-table archive: capacity, active size, lease flag and, per input
/// port, a valid count followed by (slot, out, owner, stamp) records. The
/// valid count is written as given, so it may disagree with the records.
struct ArchiveEntry {
  int slot;
  std::uint8_t out;
};
std::string slot_archive(int capacity, int active,
                         const std::vector<int>& valid_counts,
                         const std::vector<std::vector<ArchiveEntry>>& ports) {
  StateWriter w;
  w.section("slot_table");
  w.i32(capacity);
  w.i32(active);
  w.b(true);
  for (int j = 0; j < kNumPorts; ++j) {
    const size_t p = static_cast<size_t>(j);
    w.i32(p < valid_counts.size() ? valid_counts[p] : 0);
    if (p >= ports.size()) continue;
    for (const ArchiveEntry& e : ports[p]) {
      w.i32(e.slot);
      w.u8(e.out);
      w.u64(/*owner=*/3);
      w.u64(/*stamp=*/100);
    }
  }
  return w.seal();
}

void restore_from(SlotTable& t, const std::string& sealed) {
  StateReader r(sealed);
  t.restore_state(r);
}

std::string saved(const SlotTable& t) {
  StateWriter w;
  t.save_state(w);
  return w.seal();
}

TEST(SlotTableRestore, WellFormedArchiveRestores) {
  SlotTable t(64, 16);
  restore_from(t, slot_archive(64, 16, {2}, {{{3, 2}, {9, 4}}}));
  EXPECT_EQ(t.lookup_slot(3, Port::Local), Port::East);
  EXPECT_EQ(t.lookup_slot(9, Port::Local), Port::West);
  EXPECT_EQ(t.owner_at(9, Port::Local), PacketId{3});
  EXPECT_EQ(t.valid_entries(), 2);
}

TEST(SlotTableRestore, PortOutOfRangeThrows) {
  SlotTable t(64, 16);
  const auto bad = static_cast<std::uint8_t>(kNumPorts);
  EXPECT_THROW(restore_from(t, slot_archive(64, 16, {1}, {{{3, bad}}})),
               StateError);
  EXPECT_THROW(restore_from(t, slot_archive(64, 16, {0, 1}, {{}, {{0, 0xFF}}})),
               StateError);
}

TEST(SlotTableRestore, DuplicateSlotThrows) {
  SlotTable t(64, 16);
  EXPECT_THROW(restore_from(t, slot_archive(64, 16, {2}, {{{5, 1}, {5, 2}}})),
               StateError);
}

TEST(SlotTableRestore, SlotBeyondActiveThrows) {
  SlotTable t(64, 16);
  EXPECT_THROW(restore_from(t, slot_archive(64, 16, {1}, {{{16, 1}}})),
               StateError);
  EXPECT_THROW(restore_from(t, slot_archive(64, 16, {1}, {{{-1, 1}}})),
               StateError);
}

TEST(SlotTableRestore, ValidCountBeyondActiveThrows) {
  SlotTable t(64, 16);
  EXPECT_THROW(restore_from(t, slot_archive(64, 16, {17}, {})), StateError);
  EXPECT_THROW(restore_from(t, slot_archive(64, 16, {-1}, {})), StateError);
}

TEST(SlotTableRestore, CapacityMismatchThrows) {
  SlotTable t(64, 16);
  EXPECT_THROW(restore_from(t, slot_archive(32, 16, {}, {})), StateError);
}

SlotTable leased_table() {
  SlotTable t(64, 32);
  EXPECT_TRUE(t.reserve(30, 4, Port::West, Port::East, 7, /*now=*/100));
  EXPECT_TRUE(t.reserve(5, 3, Port::North, Port::South, 8, /*now=*/1500));
  EXPECT_TRUE(t.reserve(10, 2, Port::Local, Port::West, 0, /*now=*/2100));
  t.refresh(31, 2, Port::West, /*now=*/3000);  // slots 31 and 0 renewed
  EXPECT_TRUE(t.release(6, 1, Port::North, 8).has_value());
  return t;
}

TEST(SlotTableRestore, SaveRestoreSaveIsByteIdentical) {
  const SlotTable source = leased_table();
  const std::string first = saved(source);
  SlotTable copy(64, 64);
  restore_from(copy, first);
  EXPECT_EQ(saved(copy), first);
  expect_same_entries(copy, source);
}

TEST(SlotTableRestore, RestoredTrackedTableExpiresLikeItsSource) {
  SlotTable source = leased_table();
  SlotTable copy(64, 8);
  restore_from(copy, saved(source));
  for (const Cycle cutoff : {Cycle{1000}, Cycle{2048}, Cycle{2200}, Cycle{4000}}) {
    int n_source = 0;
    int n_copy = 0;
    const Expired a = sweep(source, cutoff, n_source);
    const Expired b = sweep(copy, cutoff, n_copy);
    EXPECT_EQ(n_copy, n_source) << "cutoff " << cutoff;
    EXPECT_EQ(b, a) << "cutoff " << cutoff;
    expect_same_entries(copy, source);
  }
  EXPECT_EQ(source.valid_entries(), 0);
}

// A restored table rebuilds its lease store in archive order, not in the
// order churn left it in. After save and restore mid-run, the sweeps that
// follow must expire exactly the entries the uninterrupted table expires.
TEST(SlotTableRestore, RestoredLeasesExpireLikeTheUninterruptedTable) {
  int expired = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    SlotTable uninterrupted(64, 64);
    ReferenceTable ref;
    Rng rng(seed);
    Cycle now = 0;
    for (int step = 0; step < 1500; ++step) random_step(rng, now, uninterrupted, ref);
    ASSERT_GT(uninterrupted.valid_entries(), 0);

    SlotTable restored(64, 8);
    restore_from(restored, saved(uninterrupted));
    for (const Cycle age : {Cycle{400}, Cycle{200}, Cycle{100}, Cycle{50}}) {
      int n_uninterrupted = 0;
      int n_restored = 0;
      EXPECT_EQ(sweep(restored, now - age, n_restored),
                sweep(uninterrupted, now - age, n_uninterrupted));
      EXPECT_EQ(n_restored, n_uninterrupted);
      ref.expire_older_than(now - age);
      expired += n_restored;
    }

    // Both carry on with the same traffic; the model checks every sweep.
    ReferenceTable ref_restored = ref;
    Rng rng_restored = rng;
    Cycle now_restored = now;
    for (int step = 0; step < 1000; ++step) {
      random_step(rng, now, uninterrupted, ref);
      random_step(rng_restored, now_restored, restored, ref_restored);
    }
    expect_same_entries(restored, uninterrupted);
    ref.expect_matches(restored);
  }
  EXPECT_GT(expired, 0);  // the sweeps after the restore did real work
}

// A table that never reserved holds no entry storage; one that reserved and
// then released everything holds both columns, all free. Every query must
// answer the same on the two, no query may allocate, and their archives
// must be byte-identical and restore into either kind of table.
TEST(SlotTable, UnallocatedTableAnswersLikeAnEmptiedOne) {
  SlotTable fresh(64, 32);
  SlotTable emptied(64, 32);
  ASSERT_TRUE(emptied.reserve(30, 4, Port::West, Port::East, 7, 100));
  ASSERT_TRUE(emptied.reserve(5, 3, Port::North, Port::South, 8, 1500));
  ASSERT_TRUE(emptied.reserve(10, 2, Port::Local, Port::West, 0, 2100));
  ASSERT_TRUE(emptied.release(30, 4, Port::West, 7).has_value());
  ASSERT_TRUE(emptied.release(5, 3, Port::North).has_value());
  ASSERT_TRUE(emptied.release(10, 2, Port::Local, 0).has_value());
  ASSERT_EQ(emptied.valid_entries(), 0);
  EXPECT_EQ(fresh.storage_bytes(), 0u);
  EXPECT_GT(emptied.storage_bytes(), 0u);

  for (int j = 0; j < kNumPorts; ++j) {
    const Port in = static_cast<Port>(j);
    for (int s = 0; s < 32; ++s) {
      const Cycle cycle = static_cast<Cycle>(s) + 3 * 32;
      ASSERT_EQ(fresh.lookup(cycle, in), emptied.lookup(cycle, in));
      ASSERT_EQ(fresh.lookup_slot(s, in), emptied.lookup_slot(s, in));
      ASSERT_EQ(fresh.owner_at(s, in), emptied.owner_at(s, in));
      ASSERT_EQ(fresh.output_reserved_at(cycle, in),
                emptied.output_reserved_at(cycle, in));
      for (const int d : {1, 3, 32}) {
        ASSERT_EQ(fresh.input_free(s, d, in), emptied.input_free(s, d, in));
        for (int o = 0; o < kNumPorts; ++o) {
          const Port out = static_cast<Port>(o);
          ASSERT_EQ(fresh.can_reserve(s, d, in, out),
                    emptied.can_reserve(s, d, in, out));
        }
      }
      for (const PacketId owner : {PacketId{0}, PacketId{7}}) {
        ASSERT_EQ(fresh.release(s, 2, in, owner),
                  emptied.release(s, 2, in, owner));
      }
      fresh.refresh(s, 2, in, 5000);
      emptied.refresh(s, 2, in, 5000);
    }
  }
  int n_fresh = 0;
  int n_emptied = 0;
  EXPECT_EQ(sweep(fresh, kCycleNever, n_fresh),
            sweep(emptied, kCycleNever, n_emptied));
  EXPECT_EQ(n_fresh, 0);
  EXPECT_EQ(n_emptied, 0);
  EXPECT_EQ(fresh.occupancy(), emptied.occupancy());
  EXPECT_EQ(fresh.storage_bytes(), 0u) << "a query allocated";

  // Archives match, and each restores into the other kind of table.
  const std::string archive = saved(fresh);
  EXPECT_EQ(saved(emptied), archive);
  SlotTable into_fresh(64, 8);
  restore_from(into_fresh, saved(emptied));
  EXPECT_EQ(into_fresh.storage_bytes(), 0u);
  EXPECT_EQ(saved(into_fresh), archive);
  SlotTable into_allocated = leased_table();
  restore_from(into_allocated, archive);
  EXPECT_EQ(into_allocated.valid_entries(), 0);
  EXPECT_EQ(saved(into_allocated), archive);
  expect_same_entries(into_allocated, into_fresh);

  // An archive with entries allocates a fresh table on restore.
  const SlotTable source = leased_table();
  restore_from(fresh, saved(source));
  EXPECT_GT(fresh.storage_bytes(), 0u);
  EXPECT_EQ(saved(fresh), saved(source));
  expect_same_entries(fresh, source);

  // The first reservation allocates, and the twins agree from there on.
  SlotTable first(64, 32);
  ASSERT_TRUE(first.reserve(3, 2, Port::East, Port::North, 9, 4000));
  ASSERT_TRUE(emptied.reserve(3, 2, Port::East, Port::North, 9, 4000));
  EXPECT_GT(first.storage_bytes(), 0u);
  EXPECT_EQ(saved(first), saved(emptied));
  expect_same_entries(first, emptied);
}

TEST(SlotTableDeathTest, DurationBeyondActiveSizeRejected) {
  SlotTable t(8, 8);
  EXPECT_DEATH((void)t.can_reserve(0, 9, Port::West, Port::East), "HN_CHECK");
}

}  // namespace
}  // namespace hybridnoc
