// Property suite for the coherence request/reply generator: seeded twin-run
// determinism, structural invariants (in-bounds, never self-directed,
// sorted), bimodal message sizes, and the request/reply pairing contract —
// every reply, forward and data message belongs to a transaction whose
// request appears earlier in the trace.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "expect_input_error.hpp"
#include "workloads/coherence.hpp"

namespace hybridnoc {
namespace {

CoherenceParams small_params() {
  CoherenceParams p;
  p.k = 6;
  p.cycles = 600;
  p.request_rate = 0.03;
  p.seed = 7;
  return p;
}

TEST(CoherenceTest, TwinRunsAreIdenticalAndSeedsDiffer) {
  const CoherenceParams p = small_params();
  const CoherenceTrace a = generate_coherence_trace(p);
  const CoherenceTrace b = generate_coherence_trace(p);
  ASSERT_FALSE(a.entries.empty());
  EXPECT_EQ(a.entries, b.entries);
  EXPECT_EQ(a.events, b.events);
  CoherenceParams q = p;
  q.seed = 8;
  EXPECT_NE(a.entries, generate_coherence_trace(q).entries);
}

TEST(CoherenceTest, EntriesInBoundsNeverSelfDirectedAndSorted) {
  const CoherenceParams p = small_params();
  const CoherenceTrace tr = generate_coherence_trace(p);
  ASSERT_EQ(tr.entries.size(), tr.events.size());
  Cycle prev = 0;
  for (const TraceEntry& e : tr.entries) {
    ASSERT_GE(e.src, 0);
    ASSERT_LT(e.src, p.k * p.k);
    ASSERT_GE(e.dst, 0);
    ASSERT_LT(e.dst, p.k * p.k);
    ASSERT_NE(e.src, e.dst);
    ASSERT_GE(e.cycle, prev);
    prev = e.cycle;
  }
}

TEST(CoherenceTest, MessageSizesAreBimodal) {
  const CoherenceTrace tr = generate_coherence_trace(small_params());
  const CoherenceParams p = small_params();
  std::uint64_t ctrl = 0, data = 0;
  for (size_t i = 0; i < tr.entries.size(); ++i) {
    const int flits = tr.entries[i].flits;
    ASSERT_TRUE(flits == p.ctrl_flits || flits == p.data_flits)
        << "entry " << i << " has non-bimodal size " << flits;
    (flits == p.ctrl_flits ? ctrl : data) += 1;
    // Size must match the protocol role.
    const CoherenceMsg m = tr.events[i].msg;
    if (m == CoherenceMsg::Request || m == CoherenceMsg::Forward) {
      EXPECT_EQ(flits, p.ctrl_flits);
    }
    if (m == CoherenceMsg::Data) {
      EXPECT_EQ(flits, p.data_flits);
    }
  }
  // Both modes are exercised: short control dominates by count, data bursts
  // exist.
  EXPECT_GT(ctrl, 0u);
  EXPECT_GT(data, 0u);
  EXPECT_GT(ctrl, data);
}

TEST(CoherenceTest, EveryReplyHasAMatchingEarlierRequest) {
  const CoherenceTrace tr = generate_coherence_trace(small_params());
  // Walk in trace order: a transaction's request must be seen before any of
  // its replies/forwards/data messages, and the reply endpoints must invert
  // the request's (requester, home) endpoints.
  std::map<std::uint64_t, TraceEntry> open_requests;
  std::map<std::uint64_t, int> follow_ups;
  for (size_t i = 0; i < tr.entries.size(); ++i) {
    const TraceEntry& e = tr.entries[i];
    const CoherenceEvent& ev = tr.events[i];
    if (ev.msg == CoherenceMsg::Request) {
      ASSERT_EQ(open_requests.count(ev.txn), 0u) << "duplicate request";
      open_requests[ev.txn] = e;
      continue;
    }
    const auto it = open_requests.find(ev.txn);
    ASSERT_NE(it, open_requests.end())
        << "follow-up before its request, txn " << ev.txn;
    const TraceEntry& req = it->second;
    ASSERT_GE(e.cycle, req.cycle);
    ++follow_ups[ev.txn];
    switch (ev.msg) {
      case CoherenceMsg::Reply:
        EXPECT_EQ(e.src, req.dst);  // home answers
        EXPECT_EQ(e.dst, req.src);  // the requester
        break;
      case CoherenceMsg::Forward:
        EXPECT_EQ(e.src, req.dst);  // home probes the sharer
        EXPECT_NE(e.dst, req.src);
        break;
      case CoherenceMsg::Data:
        EXPECT_EQ(e.dst, req.src);  // sharer feeds the requester
        EXPECT_NE(e.src, req.dst);
        break;
      case CoherenceMsg::Request:
        break;
    }
  }
  // Every transaction resolves: one reply, or a forward + data pair.
  for (const auto& [txn, req] : open_requests) {
    const auto it = follow_ups.find(txn);
    ASSERT_NE(it, follow_ups.end()) << "unanswered request, txn " << txn;
    EXPECT_TRUE(it->second == 1 || it->second == 2);
  }
}

TEST(CoherenceTest, HomeLocalitySkewsDestinationChoice) {
  CoherenceParams p = small_params();
  p.cycles = 2000;
  p.home_locality = 1.0;
  const CoherenceTrace skew = generate_coherence_trace(p);
  // With locality 1.0 nearly every requester talks only to its favourite
  // home (nodes whose favourite is themselves fall back to uniform
  // redraws), so the mean distinct-home count per requester is far below
  // the uniform spread at locality 0.0.
  const auto mean_distinct_homes = [](const CoherenceTrace& tr) {
    std::map<NodeId, std::set<NodeId>> homes_of;
    for (size_t i = 0; i < tr.entries.size(); ++i) {
      if (tr.events[i].msg != CoherenceMsg::Request) continue;
      homes_of[tr.entries[i].src].insert(tr.entries[i].dst);
    }
    EXPECT_FALSE(homes_of.empty());
    std::size_t total = 0;
    for (const auto& [v, hs] : homes_of) total += hs.size();
    return static_cast<double>(total) / static_cast<double>(homes_of.size());
  };
  const double skewed = mean_distinct_homes(skew);
  p.home_locality = 0.0;
  const double flat = mean_distinct_homes(generate_coherence_trace(p));
  EXPECT_LT(skewed * 3.0, flat)
      << "locality 1.0 mean homes " << skewed << " vs uniform " << flat;
}

TEST(CoherenceTest, RestrictedHomeSetIsRespected) {
  CoherenceParams p = small_params();
  p.num_homes = 4;
  const CoherenceTrace tr = generate_coherence_trace(p);
  std::set<NodeId> homes;
  for (size_t i = 0; i < tr.entries.size(); ++i) {
    if (tr.events[i].msg == CoherenceMsg::Request)
      homes.insert(tr.entries[i].dst);
  }
  EXPECT_LE(homes.size(), 4u);
}

TEST(CoherenceDeathTest, RejectsInvalidParams) {
  CoherenceParams p = small_params();
  p.request_rate = 0.0;
  EXPECT_INPUT_ERROR((void)generate_coherence_trace(p), "request_rate");
  p = small_params();
  p.num_homes = p.k * p.k + 1;
  EXPECT_INPUT_ERROR((void)generate_coherence_trace(p), "num_homes");
}

}  // namespace
}  // namespace hybridnoc
