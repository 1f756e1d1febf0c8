#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace mpch::util {

namespace {
thread_local bool t_pool_worker = false;
}  // namespace

bool ThreadPool::in_worker() { return t_pool_worker; }

struct ThreadPool::Call {
  Call(ChunkBody b, std::size_t n, std::size_t c) : body(b), total(n), chunks(c) {}

  const ChunkBody body;
  const std::size_t total;
  const std::size_t chunks;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_chunk = SIZE_MAX;
  std::exception_ptr error;

  /// Claim and run chunks until none is left; keep the lowest-index error.
  void run_claimed() {
    const std::size_t per = total / chunks;
    const std::size_t extra = total % chunks;
    for (std::size_t c; (c = next.fetch_add(1)) < chunks;) {
      const std::size_t begin = c * per + std::min(c, extra);
      try {
        body.call(body.fn, c, begin, begin + per + (c < extra ? 1 : 0));
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (c < error_chunk) {
          error_chunk = c;
          error = std::current_exception();
        }
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_pool_worker = true;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
    if (stopping_) return;
    seen = generation_;
    Call* call = call_;
    if (call == nullptr) continue;  // its caller already ran every chunk
    ++active_;
    lock.unlock();
    call->run_claimed();
    lock.lock();
    if (--active_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::run(std::size_t total, ChunkBody body) {
  if (total == 0) return;
  Call call(body, total, std::min(total, 4 * thread_count()));
  if (in_worker()) {
    // Nested in a chunk: waiting on workers could deadlock, so run inline.
    call.run_claimed();
  } else {
    std::lock_guard<std::mutex> turn(call_mutex_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      call_ = &call;
      ++generation_;
    }
    work_cv_.notify_all();
    t_pool_worker = true;
    call.run_claimed();
    t_pool_worker = false;
    // Every chunk is claimed; close the call and wait out the workers
    // still running one, so `call` and `body` outlive every use.
    std::unique_lock<std::mutex> lock(mutex_);
    call_ = nullptr;
    done_cv_.wait(lock, [this] { return active_ == 0; });
  }
  if (call.error) std::rethrow_exception(call.error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace mpch::util
