// Poll-based event loop with pipe wakeup.
//
// Reproduces the Mrs main-thread discipline (paper §IV-B): the main thread
// of each master/slave runs an event loop based on poll(); it never blocks
// on locks for extended periods; other threads hand it work by pushing a
// closure and writing a wakeup byte to a pipe.
#pragma once

#include <poll.h>

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "net/waker.h"

namespace mrs {

/// Events a watcher may subscribe to.
struct FdEvents {
  bool readable = false;
  bool writable = false;
};

class EventLoop {
 public:
  using FdCallback = std::function<void(FdEvents)>;

  /// The loop polls `waker`'s read end; create it with Waker::Create() so a
  /// pipe failure surfaces to the caller instead of yielding a loop that
  /// cannot be woken.
  explicit EventLoop(Waker waker);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Watch an fd; the callback fires on the loop thread.  Re-registering an
  /// fd replaces its watcher.  Safe from any thread: off the loop thread
  /// the change is applied through Post().
  void WatchFd(int fd, FdEvents interest, FdCallback cb);
  void UnwatchFd(int fd);

  /// Queue a closure to run on the loop thread; wakes the loop via the
  /// pipe.  Safe from any thread.  If called from the loop thread itself
  /// the closure still runs asynchronously (next iteration).
  void Post(std::function<void()> fn);

  /// Run until Stop() is called.  Must be called from exactly one thread.
  /// Returns at once if Stop() already happened, even before Run().
  void Run();

  /// Request the loop to exit; safe from any thread.
  void Stop();

  bool IsInLoopThread() const {
    return std::this_thread::get_id() ==
           loop_thread_.load(std::memory_order_acquire);
  }

 private:
  struct Watcher {
    FdEvents interest;
    FdCallback cb;
  };

  /// One poll() plus dispatch; false once the loop is stopped.
  bool RunOnce();
  void DrainPosted();

  Waker waker_;
  std::atomic<bool> stop_{false};
  // Written once, by Run(); read by WatchFd/UnwatchFd on any thread.
  std::atomic<std::thread::id> loop_thread_{};

  // fd watchers: only touched on the loop thread (WatchFd from other
  // threads goes through Post()).
  std::map<int, Watcher> watchers_;

  std::mutex posted_mutex_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace mrs
