#include "noc/channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <vector>

#include "common/rng.hpp"

namespace hybridnoc {
namespace {

TEST(Channel, LatencyTwoDelivery) {
  Channel<int> ch(2);
  ch.send(42, 10);
  EXPECT_FALSE(ch.receive(10).has_value());
  EXPECT_FALSE(ch.receive(11).has_value());
  const auto v = ch.receive(12);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, LatencyOneDelivery) {
  Channel<int> ch(1);
  ch.send(7, 5);
  const auto v = ch.receive(6);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(Channel, PreservesOrder) {
  Channel<int> ch(2);
  ch.send(1, 0);
  ch.send(2, 1);
  ch.send(3, 2);
  EXPECT_EQ(*ch.receive(2), 1);
  EXPECT_EQ(*ch.receive(3), 2);
  EXPECT_EQ(*ch.receive(4), 3);
}

TEST(Channel, MultipleSameCycleItems) {
  // Two items written in the same cycle both become readable together.
  Channel<int> ch(2);
  ch.send(1, 0);
  ch.send(2, 0);
  EXPECT_EQ(*ch.receive(2), 1);
  EXPECT_EQ(*ch.receive(2), 2);
  EXPECT_FALSE(ch.receive(2).has_value());
}

TEST(Channel, ArrivalAtModelsAdvanceSignal) {
  // The slot-stealing decision for crossbar cycle C is taken in C-1; an
  // arrival scheduled for C must be visible then, and one for C+1 too.
  // arrival_at/peek_arrival only inspect the cycle-ordered front, so a query
  // past an unconsumed item is a harness bug (see the death test below);
  // consume before moving on.
  Channel<int> ch(2);
  ch.send(9, 4);  // readable at 6
  EXPECT_FALSE(ch.arrival_at(5));
  EXPECT_TRUE(ch.arrival_at(6));
  const int* p = ch.peek_arrival(6);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, 9);
  ASSERT_TRUE(ch.receive(6).has_value());
  EXPECT_FALSE(ch.arrival_at(7));
  EXPECT_EQ(ch.peek_arrival(7), nullptr);
}

TEST(ChannelDeathTest, ArrivalQueryPastUnconsumedItemIsAnError) {
  Channel<int> ch(2);
  ch.send(9, 4);  // readable at 6
  EXPECT_DEATH((void)ch.arrival_at(7), "unconsumed");
}

TEST(Channel, InFlightCount) {
  Channel<int> ch(2);
  ch.send(1, 0);
  ch.send(2, 1);
  EXPECT_EQ(ch.in_flight(), 2u);
  (void)ch.receive(2);
  EXPECT_EQ(ch.in_flight(), 1u);
}

TEST(ChannelDeathTest, MissedItemIsAnError) {
  Channel<int> ch(1);
  ch.send(1, 0);  // readable at 1
  // Asking at cycle 2 with an unconsumed cycle-1 item trips the invariant.
  EXPECT_DEATH((void)ch.receive(2), "unconsumed");
}

// Spill path: a channel keeps its first few in-flight items inline and moves
// them all to the heap when a burst outgrows that. Six items exceed the
// inline slots in every case below.
constexpr int kBurst = 6;
constexpr std::uint32_t kBit = 1u << 2;
constexpr std::uint32_t kCircuitBit = 1u << 18;

Flit seq_flit(int seq, Switching sw = Switching::Packet) {
  Flit f;
  f.seq = seq;
  f.switching = sw;
  return f;
}

template <typename T, typename Key>
std::vector<int> in_flight_keys(Channel<T>& ch, Key key) {
  std::vector<int> out;
  ch.visit_in_flight([&](const T& item) { out.push_back(key(item)); });
  return out;
}

std::vector<int> flit_seqs(FlitChannel& ch) {
  return in_flight_keys(ch, [](const Flit& f) { return f.seq; });
}

std::vector<int> iota_to(int n) {
  std::vector<int> v;
  for (int i = 0; i < n; ++i) v.push_back(i);
  return v;
}

TEST(ChannelSpill, BurstAcrossSuccessiveCycles) {
  FlitChannel ch(kDataChannelLatency);
  std::uint32_t mask = 0;
  ch.set_pending_mask(&mask, kBit, kCircuitBit);
  // Flit 1 is the only circuit-switched one.
  for (int c = 0; c < kBurst; ++c) {
    ch.send(seq_flit(c, c == 1 ? Switching::Circuit : Switching::Packet),
            static_cast<Cycle>(c));
  }
  EXPECT_EQ(ch.in_flight(), static_cast<std::size_t>(kBurst));
  EXPECT_EQ(mask, kBit | kCircuitBit);
  EXPECT_EQ(flit_seqs(ch), iota_to(kBurst));
  EXPECT_EQ(ch.next_ready(), 2u);
  EXPECT_FALSE(ch.arrival_at(1));
  EXPECT_TRUE(ch.arrival_at(2));
  for (int c = 0; c < kBurst; ++c) {
    const Cycle now = static_cast<Cycle>(c + kDataChannelLatency);
    ASSERT_TRUE(ch.arrival_at(now));
    const auto f = ch.receive(now);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->seq, c);
    EXPECT_FALSE(ch.receive(now).has_value());
    // The circuit bit drops with the circuit flit, the occupancy bit only
    // once the queue is empty.
    EXPECT_EQ(mask & kCircuitBit, c >= 1 ? 0u : kCircuitBit);
    EXPECT_EQ(mask & kBit, c + 1 < kBurst ? kBit : 0u);
  }
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.next_ready(), kCycleNever);
  EXPECT_TRUE(flit_seqs(ch).empty());
  // The spilled queue keeps working for the next burst.
  ch.send(seq_flit(7), 20);
  EXPECT_EQ(mask, kBit);
  EXPECT_EQ(ch.receive(22)->seq, 7);
  EXPECT_EQ(mask, 0u);
}

// A credit wire carries one credit per VC per cycle, so its burst is many
// VCs' credits in one cycle: they mature together and leave in VC order.
TEST(ChannelSpill, SeveralCreditsInOneCycle) {
  CreditWire ch;
  std::uint32_t mask = 0;
  ch.set_pending_mask(&mask, kBit);
  for (int v = 0; v < kBurst; ++v) ch.send(Credit{v}, 10);
  EXPECT_EQ(mask, kBit);
  EXPECT_EQ(ch.in_flight(), static_cast<std::size_t>(kBurst));
  EXPECT_EQ(ch.next_ready(), 11u);
  EXPECT_FALSE(ch.receive(10).has_value());
  for (int v = 0; v < kBurst; ++v) {
    EXPECT_EQ(ch.next_ready(), 11u);
    const auto c = ch.receive(11);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->vc, v);
    EXPECT_EQ(mask, v + 1 < kBurst ? kBit : 0u);
  }
  EXPECT_FALSE(ch.receive(11).has_value());
  EXPECT_EQ(ch.next_ready(), kCycleNever);
}

/// Seeded random traffic on a credit wire against a reference FIFO of
/// (ready cycle, VC) entries, the general-purpose channel's model. Each
/// cycle the producer returns a random set of distinct VCs in random order,
/// and the consumer drains the cycle either before or after it, as either
/// tick order allows. Staged, the sends land at the cycle's commit. Every
/// cycle must deliver the same VCs as the reference (the wire in ascending
/// order), and next_ready must agree after every step.
void check_credit_wire_against_fifo(bool staged, std::uint64_t seed) {
  constexpr int kVcs = 8;
  CreditWire wire;
  std::uint32_t mask = 0;
  wire.set_pending_mask(&mask, kBit);
  wire.set_staged(staged);
  struct Sent {
    Cycle ready;
    int vc;
  };
  std::deque<Sent> fifo;
  Rng rng(seed);
  std::size_t delivered = 0;
  for (Cycle now = 0; now < 5000; ++now) {
    const bool consumer_first = rng.bernoulli(0.5);
    std::vector<int> got, want;
    const auto drain = [&] {
      while (auto c = wire.receive(now)) got.push_back(c->vc);
      while (!fifo.empty() && fifo.front().ready == now) {
        want.push_back(fifo.front().vc);
        fifo.pop_front();
      }
    };
    if (consumer_first) drain();
    if (rng.bernoulli(0.7)) {
      std::vector<int> vcs(kVcs);
      std::iota(vcs.begin(), vcs.end(), 0);
      for (int i = kVcs - 1; i > 0; --i) {
        std::swap(vcs[static_cast<std::size_t>(i)],
                  vcs[rng.uniform_int(static_cast<std::uint64_t>(i) + 1)]);
      }
      vcs.resize(rng.uniform_int(kVcs + 1));
      for (const int v : vcs) {
        wire.send(Credit{v}, now);
        fifo.push_back({now + kCreditChannelLatency, v});
      }
    }
    if (!consumer_first) drain();
    if (staged) wire.commit_staged();
    ASSERT_TRUE(std::is_sorted(got.begin(), got.end())) << "cycle " << now;
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "cycle " << now;
    delivered += got.size();
    ASSERT_EQ(wire.next_ready(), fifo.empty() ? kCycleNever : fifo.front().ready)
        << "cycle " << now;
    ASSERT_EQ(wire.in_flight(), fifo.size()) << "cycle " << now;
    ASSERT_EQ(mask, fifo.empty() ? 0u : kBit) << "cycle " << now;
  }
  EXPECT_GT(delivered, 5000u);
}

TEST(CreditWire, MatchesFifoModelEager) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) check_credit_wire_against_fifo(false, seed);
}

TEST(CreditWire, MatchesFifoModelStaged) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) check_credit_wire_against_fifo(true, seed);
}

TEST(CreditWireDeathTest, TwoCreditsForOneVcInOneCycle) {
  CreditWire wire;
  wire.send(Credit{3}, 5);
  wire.send(Credit{1}, 5);
  EXPECT_DEATH(wire.send(Credit{3}, 5), "two credits for one VC in one cycle");
  CreditWire staged;
  staged.set_staged(true);
  staged.send(Credit{3}, 5);
  EXPECT_DEATH(staged.send(Credit{3}, 5), "two credits for one VC in one cycle");
}

TEST(CreditWireDeathTest, ThirdCycleInFlightIsAnUnconsumedCredit) {
  CreditWire wire;
  wire.send(Credit{0}, 5);  // readable at 6, never read
  wire.send(Credit{0}, 6);
  EXPECT_DEATH(wire.send(Credit{0}, 7), "unconsumed");
}

TEST(ChannelSpill, StagedBurstCommits) {
  FlitChannel ch(kDataChannelLatency);
  std::uint32_t mask = 0;
  ch.set_pending_mask(&mask, kBit, kCircuitBit);
  ch.set_staged(true);
  // Two compute phases' worth: flits 0-2 at cycle 3, 3-5 at cycle 4; the
  // last one is circuit-switched.
  for (int i = 0; i < kBurst; ++i) {
    ch.send(seq_flit(i, i == kBurst - 1 ? Switching::Circuit : Switching::Packet),
            i < 3 ? 3 : 4);
  }
  // Staged items are invisible to the consumer until the commit, but the
  // teardown visit still sees them.
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(mask, 0u);
  EXPECT_EQ(ch.next_ready(), kCycleNever);
  EXPECT_FALSE(ch.arrival_at(5));
  EXPECT_EQ(flit_seqs(ch), iota_to(kBurst));
  ch.commit_staged();
  EXPECT_EQ(ch.in_flight(), static_cast<std::size_t>(kBurst));
  EXPECT_EQ(mask, kBit | kCircuitBit);
  EXPECT_EQ(flit_seqs(ch), iota_to(kBurst));
  EXPECT_EQ(ch.next_ready(), 5u);
  EXPECT_TRUE(ch.arrival_at(5));
  for (int i = 0; i < kBurst; ++i) {
    const Cycle now = i < 3 ? 5 : 6;
    const auto f = ch.receive(now);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->seq, i);
    EXPECT_EQ(mask & kCircuitBit, i + 1 < kBurst ? kCircuitBit : 0u);
    EXPECT_EQ(mask & kBit, i + 1 < kBurst ? kBit : 0u);
    if (i == 2) {
      EXPECT_FALSE(ch.receive(5).has_value());
      EXPECT_EQ(ch.next_ready(), 6u);
    }
  }
  EXPECT_TRUE(ch.empty());
  // A second commit with nothing staged changes nothing.
  ch.commit_staged();
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(mask, 0u);
}

}  // namespace
}  // namespace hybridnoc
