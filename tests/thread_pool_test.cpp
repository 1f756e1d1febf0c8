#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mpch::util {
namespace {

TEST(ThreadPool, ParallelChunksCoverExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t kTotal = 10007;  // prime: uneven chunking
  std::vector<std::atomic<int>> touched(kTotal);
  pool.parallel_chunks(kTotal, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelChunksChunkIndicesAreDistinct) {
  ThreadPool pool(2);
  std::mutex mu;
  std::vector<std::size_t> seen;
  pool.parallel_chunks(100, [&](std::size_t chunk, std::size_t, std::size_t) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(chunk);
  });
  std::sort(seen.begin(), seen.end());
  ASSERT_EQ(seen.size(), 8u);  // 4 x thread_count()
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(seen[i], i);
}

TEST(ThreadPool, ZeroTotalIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_chunks(0, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MoreChunksThanItemsClamped) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_chunks(3, [&](std::size_t, std::size_t begin, std::size_t end) {
    EXPECT_EQ(end - begin, 1u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  std::atomic<int> n{0};
  global_pool().parallel_chunks(10, [&](std::size_t, std::size_t b, std::size_t e) {
    n.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, InWorkerReflectsCallingThread) {
  EXPECT_FALSE(ThreadPool::in_worker());
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  pool.parallel_chunks(8, [&](std::size_t, std::size_t, std::size_t) {
    if (ThreadPool::in_worker()) inside.fetch_add(1);
  });
  EXPECT_EQ(inside.load(), 8);
  EXPECT_FALSE(ThreadPool::in_worker());  // main thread is still not a worker
}

TEST(ThreadPool, NestedCallRunsInlineOnTheChunksThread) {
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.parallel_chunks(8, [&](std::size_t, std::size_t, std::size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    pool.parallel_chunks(5, [&](std::size_t, std::size_t begin, std::size_t end) {
      EXPECT_EQ(std::this_thread::get_id(), outer);
      inner.fetch_add(static_cast<int>(end - begin));
    });
  });
  EXPECT_EQ(inner.load(), 8 * 5);
}

TEST(ThreadPool, ThrowingChunkWaitsForTheRestThenRethrowsTheLowest) {
  // Chunk 5 throws at once, chunk 0 only after the others have started; the
  // call must not return before all 8 chunks are done, and must report
  // chunk 0's exception.
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  auto body = [&](std::size_t chunk, std::size_t, std::size_t) {
    if (chunk != 5) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.fetch_add(1);
    if (chunk == 0 || chunk == 5) throw std::runtime_error("chunk " + std::to_string(chunk));
  };
  try {
    pool.parallel_chunks(8, body);
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(finished.load(), 8);
    EXPECT_STREQ(e.what(), "chunk 0");
  }
  // The pool stays usable after a throwing call.
  std::atomic<int> n{0};
  pool.parallel_chunks(10, [&](std::size_t, std::size_t b, std::size_t e) {
    n.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(n.load(), 10);
}

}  // namespace
}  // namespace mpch::util
