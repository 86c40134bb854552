#include "common/ring.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace hybridnoc {
namespace {

template <typename Ring>
std::vector<int> contents(const Ring& r) {
  std::vector<int> out;
  for (const auto& x : r) out.push_back(x);
  return out;
}

TEST(RingDeque, HeapOnlyByDefault) {
  RingDeque<int> r;
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_FALSE(r.on_heap());
  r.push_back(1);
  EXPECT_TRUE(r.on_heap());
  EXPECT_EQ(r.capacity(), 8u);
}

TEST(RingDeque, SpillsFromInlineToHeapInOrder) {
  RingDeque<int, 4> r;
  EXPECT_EQ(r.capacity(), 4u);
  // Wrap the head round the inline slots before filling them.
  r.push_back(-2);
  r.push_back(-1);
  EXPECT_EQ(r.pop_front(), -2);
  EXPECT_EQ(r.pop_front(), -1);
  for (int i = 1; i <= 3; ++i) r.push_back(i);
  r.push_front(0);
  EXPECT_FALSE(r.on_heap());
  EXPECT_EQ(contents(r), (std::vector<int>{0, 1, 2, 3}));
  r.push_back(4);  // the fifth item spills
  EXPECT_TRUE(r.on_heap());
  EXPECT_EQ(r.capacity(), 8u);
  EXPECT_EQ(contents(r), (std::vector<int>{0, 1, 2, 3, 4}));
  // Heap storage never shrinks back inline.
  while (!r.empty()) r.pop_front();
  EXPECT_TRUE(r.on_heap());
  EXPECT_EQ(r.capacity(), 8u);
  for (int i = 0; i < 9; ++i) r.push_back(i);
  EXPECT_EQ(r.capacity(), 16u);
  EXPECT_EQ(r.front(), 0);
  EXPECT_EQ(r.back(), 8);
}

TEST(RingDeque, MovingAnInlineRingMovesItsItems) {
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  auto c = std::make_shared<int>(3);
  RingDeque<std::shared_ptr<int>, 4> src;
  src.push_back(nullptr);
  src.pop_front();  // head off slot 0
  src.push_back(a);
  src.push_back(b);
  src.push_back(c);
  RingDeque<std::shared_ptr<int>, 4> dst(std::move(src));
  EXPECT_FALSE(dst.on_heap());
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst[0], a);
  EXPECT_EQ(dst[1], b);
  EXPECT_EQ(dst[2], c);
  // Moved, not copied: each item has one owner in the rings.
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(c.use_count(), 2);
  // The source is empty on its own inline slots and usable again.
  EXPECT_TRUE(src.empty());
  EXPECT_FALSE(src.on_heap());
  src.push_back(a);
  EXPECT_EQ(src.front(), a);
  // Move assignment drops what the target held.
  dst = std::move(src);
  EXPECT_EQ(dst.size(), 1u);
  EXPECT_EQ(b.use_count(), 1);
  dst.clear();
  EXPECT_EQ(a.use_count(), 1);
}

TEST(RingDeque, MovingASpilledRingStealsItsHeapBlock) {
  RingDeque<int, 4> src;
  for (int i = 0; i < 6; ++i) src.push_back(i);
  const int* storage = &src.front();
  RingDeque<int, 4> dst(std::move(src));
  EXPECT_TRUE(dst.on_heap());
  EXPECT_EQ(&dst.front(), storage);
  EXPECT_EQ(contents(dst), (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_TRUE(src.empty());
  EXPECT_EQ(src.capacity(), 4u);
}

}  // namespace
}  // namespace hybridnoc
