#pragma once
// core::Executor — the analysis-stage execution engine (DESIGN.md §10).
//
// The paper's whole economic argument (§2, Fig 9) is that cheap detection
// buys enough headroom to run many expensive demodulators; the demodulator
// bank itself (1 x 802.11 + 8 x per-channel Bluetooth) is embarrassingly
// parallel across dispatched intervals. The Executor turns that into wall
// clock: a fixed-width work-stealing thread pool over which the pipeline
// fans out per-interval analysis tasks, with a serial inline mode that is the
// default and is byte-for-byte the pre-parallel behavior.
//
// Width semantics: Executor(N) means N analysis workers total — N-1 pool
// threads plus the caller, which joins the work inside Batch::Wait()
// (help-while-wait). Executor(1) therefore spawns no threads at all and
// every Batch::Run() executes inline at the call site, in submission order.
//
// Scheduling: each pool thread owns a deque; submissions are distributed
// round-robin; an idle worker first drains its own deque (FIFO) and then
// steals from its siblings. Tasks must not block on other tasks — the
// pipeline only submits leaf demodulation units, so a waiting thread that
// "helps" can never deadlock.
//
// Determinism contract: the Executor guarantees only that every task
// submitted to a Batch has completed when Wait() returns, and that the
// first task exception is rethrown there. Callers that need deterministic
// output (the pipeline's ordered merge) give each task its own result slot
// and combine the slots in submission order after Wait().

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rfdump::core {

class Executor {
 public:
  /// Hard cap on the pool width (far above any sane front-end host).
  static constexpr int kMaxThreads = 64;

  /// `threads` is the total worker count including the caller: 1 (default)
  /// is serial inline, N > 1 spawns N-1 pool threads. 0 resolves to the
  /// hardware concurrency. Clamped to [1, kMaxThreads].
  explicit Executor(int threads = 1);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Effective total width (pool threads + the helping caller), >= 1.
  [[nodiscard]] int threads() const noexcept { return threads_; }
  /// True when Batch::Run executes inline (threads() == 1).
  [[nodiscard]] bool serial() const noexcept { return pool_.empty(); }

  /// One joinable group of tasks. Destruction waits for completion; Wait()
  /// additionally rethrows the first task exception (remaining tasks still
  /// ran — a failing task never cancels its siblings).
  class Batch {
   public:
    /// A null or serial executor gives an inline batch.
    explicit Batch(Executor* ex);
    ~Batch();
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// Submits one task. Inline batches run it immediately at this call.
    void Run(std::function<void()> fn);

    /// True when Run() executes each task at the call (null or serial
    /// executor), so a task is complete as soon as Run() returns.
    [[nodiscard]] bool runs_inline() const noexcept { return !state_; }

    /// Blocks until every submitted task has completed, helping to drain
    /// the pool while waiting, then rethrows the first stored exception.
    void Wait();

   private:
    friend class Executor;
    struct State;
    Executor* ex_ = nullptr;
    std::shared_ptr<State> state_;       // null for inline batches
    std::exception_ptr inline_error_;    // first exception, inline mode
    bool waited_ = false;
  };

 private:
  struct Task {
    std::function<void()> fn;
    std::shared_ptr<Batch::State> batch;
    double enqueued_at = 0.0;  // Stopwatch::NowSeconds at submission
  };

  /// One pool thread's deque (owner pops front, thieves steal back).
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  void WorkerLoop(std::size_t index);
  void Enqueue(Task task);
  bool TryPop(std::size_t preferred, Task& out);
  void RunTask(Task& task);

  int threads_ = 1;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> pool_;
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  bool shutdown_ = false;
  std::uint64_t next_queue_ = 0;  // round-robin submission cursor
};

}  // namespace rfdump::core
