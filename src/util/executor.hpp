#pragma once
// Fixed-size worker pool for property-level parallelism (VerifySession's
// property jobs, rfn_serve's request queue).
//
// A deliberately small executor: N std::threads draining one FIFO work
// queue. Submitted jobs are fire-and-forget; completion signalling is the
// caller's business (VerifySession::run layers a countdown latch on top).
// With zero workers the executor runs every job inline inside submit() —
// same code path, no threads, deterministic order.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rfn {

class Executor {
 public:
  /// Spawns `workers` threads; 0 means inline execution inside submit().
  explicit Executor(size_t workers);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues `fn` (runs it before returning when the pool has no workers).
  void submit(std::function<void()> fn);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace rfn
