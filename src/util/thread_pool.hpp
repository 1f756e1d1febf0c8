// thread_pool.hpp — a fixed-size fork-join pool with one operation.
//
// `parallel_chunks` splits [0, total) into contiguous chunks and runs one
// body over them on the pool's workers and the calling thread, returning
// once every chunk has finished. The parallel round loop (one call per
// round) and stats::run_boolean_trials (one call per seed batch) use it.
// A call allocates nothing: the body is passed as a two-word view of the
// caller's callable, and the workers claim chunk indices from a shared
// counter. Chunk boundaries depend only on `total` and the pool
// size, not on which thread runs a chunk, so callers that write per-index
// results or add up counts get the same answer under any schedule.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mpch::util {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// True inside every chunk of a `parallel_chunks` call of *any* pool, on
  /// a worker or on the calling thread. A `parallel_chunks` call made there
  /// runs all its chunks inline; the simulation checks it to run nested
  /// rounds serially.
  static bool in_worker();

  /// Run `body(chunk_index, begin, end)` over [0, total) split into
  /// min(4 x thread_count(), total) contiguous chunks of near-equal size,
  /// and return once every chunk has finished. If chunks throw, every
  /// chunk still runs, and the lowest-index chunk's exception is rethrown.
  /// Calls from different threads take turns.
  template <typename Body>
  void parallel_chunks(std::size_t total, Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    run(total, ChunkBody{const_cast<void*>(static_cast<const void*>(std::addressof(body))),
                         [](void* fn, std::size_t chunk, std::size_t begin, std::size_t end) {
                           (*static_cast<Fn*>(fn))(chunk, begin, end);
                         }});
  }

 private:
  /// Non-owning view of the caller's body: valid for one `run`.
  struct ChunkBody {
    void* fn;
    void (*call)(void*, std::size_t, std::size_t, std::size_t);
  };
  struct Call;  // one parallel_chunks call, on its caller's stack

  void run(std::size_t total, ChunkBody body);
  void worker_loop();

  std::mutex call_mutex_;  ///< one published call at a time
  std::condition_variable work_cv_;  ///< a call was published, or stopping_
  std::condition_variable done_cv_;  ///< active_ fell to 0
  std::mutex mutex_;                 ///< guards the four fields below
  bool stopping_ = false;
  std::uint64_t generation_ = 0;  ///< bumped by each published call
  Call* call_ = nullptr;          ///< the call workers may still join
  std::size_t active_ = 0;        ///< workers inside `call_`
  std::vector<std::thread> workers_;  ///< last: they use every member above
};

/// Process-wide pool (hardware_concurrency threads) for callers that don't
/// want to manage a pool's lifetime.
ThreadPool& global_pool();

}  // namespace mpch::util
