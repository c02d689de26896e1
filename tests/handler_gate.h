#ifndef DUPLEX_TESTS_HANDLER_GATE_H_
#define DUPLEX_TESTS_HANDLER_GATE_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace duplex {

// A latch for request handlers in server tests. While closed, every
// handler that calls Pass() parks its worker until the test opens it, so
// overload, shedding and shutdown tests hold the server in exactly the
// state they need for as long as they need it.
class HandlerGate {
 public:
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  // Blocks until `n` handlers have parked on the closed gate; false if
  // that takes implausibly long (the test fails instead of hanging).
  bool AwaitParked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30),
                        [&] { return parked_ >= n; });
  }
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    if (open_) return;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  int parked_ = 0;
};

// Polls `done` until it holds (or a generous bound passes, so a broken
// server fails the test instead of hanging it).
template <typename Predicate>
bool WaitUntil(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace duplex

#endif  // DUPLEX_TESTS_HANDLER_GATE_H_
