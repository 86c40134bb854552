#include "sim/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hybridnoc {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "index " << i;
  }
}

TEST(ParallelFor, SerialFallbackRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(i); }, /*threads=*/1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesFirstExceptionUnderContention) {
  // Many workers hammer a large index space while one early iteration
  // throws. The acquire check / acq_rel claim pairing must (a) deliver the
  // exception to the caller and (b) stop workers from claiming fresh work
  // after the failure is published — without fences a worker could pass the
  // `failed` check, have the claim reordered around it, and keep running
  // long after the stop request.
  //
  // Both bounds count from the publication, not from the throw: the thrower
  // unwinds, records the exception and only then stores `failed`, and how
  // long that takes is up to the host scheduler. So every other worker that
  // sees the throw waits until it is published before it goes on. The
  // thrower's thread-local marker fires when its thread exits, which is
  // after it stored `failed`.
  constexpr std::size_t kN = 200000;
  struct FlagOnThreadExit {
    std::atomic<bool>* flag = nullptr;
    ~FlagOnThreadExit() {
      if (flag) flag->store(true, std::memory_order_release);
    }
  };
  std::atomic<std::size_t> ran{0};
  std::atomic<std::size_t> after_failure{0};
  std::atomic<bool> thrown{false};
  std::atomic<bool> published{false};
  EXPECT_THROW(
      parallel_for(
          kN,
          [&](std::size_t i) {
            thread_local FlagOnThreadExit marker;  // flag set on the thrower only
            if (thrown.load(std::memory_order_acquire) && marker.flag == nullptr) {
              while (!published.load(std::memory_order_acquire))
                std::this_thread::yield();
              after_failure.fetch_add(1, std::memory_order_relaxed);
            }
            ran.fetch_add(1, std::memory_order_relaxed);
            if (i == 17) {
              marker.flag = &published;
              thrown.store(true, std::memory_order_release);
              throw std::runtime_error("boom at 17");
            }
          },
          /*threads=*/8),
      std::runtime_error);
  EXPECT_TRUE(published.load());
  // Abandonment, not completion: the failure must cut the sweep short. A
  // handful of in-flight iterations may still finish after the throw, but
  // nowhere near the full range.
  EXPECT_LT(ran.load(), kN);
  EXPECT_LT(after_failure.load(), kN / 2);
}

TEST(ParallelFor, ExceptionMessageIsTheFirstFailure) {
  try {
    parallel_for(
        64, [](std::size_t i) {
          if (i == 3) throw std::runtime_error("first failure");
        },
        /*threads=*/4);
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first failure");
  }
}

TEST(ParallelMap, PreservesOrder) {
  std::vector<int> in(1000);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<int>(i);
  const std::vector<int> out =
      parallel_map(in, [](int v) { return v * v; }, /*threads=*/4);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

}  // namespace
}  // namespace hybridnoc
