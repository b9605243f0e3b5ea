#include "net/event_loop.h"

#include <cerrno>

#include "common/log.h"

namespace mrs {

EventLoop::EventLoop(Waker waker) : waker_(std::move(waker)) {}

EventLoop::~EventLoop() { Stop(); }

void EventLoop::WatchFd(int fd, FdEvents interest, FdCallback cb) {
  if (IsInLoopThread()) {
    watchers_[fd] = Watcher{interest, std::move(cb)};
  } else {
    Post([this, fd, interest, cb = std::move(cb)]() mutable {
      watchers_[fd] = Watcher{interest, std::move(cb)};
    });
  }
}

void EventLoop::UnwatchFd(int fd) {
  if (IsInLoopThread()) {
    watchers_.erase(fd);
  } else {
    Post([this, fd] { watchers_.erase(fd); });
  }
}

void EventLoop::Post(std::function<void()> fn) {
  bool was_empty;
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    was_empty = posted_.empty();
    posted_.push_back(std::move(fn));
  }
  // A non-empty queue already has a wakeup byte on its way: the Post that
  // made it non-empty wrote one, and DrainPosted() empties the queue only
  // after the loop has consumed the pipe.
  if (was_empty) waker_.Notify();
}

void EventLoop::DrainPosted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

bool EventLoop::RunOnce() {
  if (stop_.load()) return false;

  // Snapshot pollfds: wakeup pipe first, then registered watchers.
  std::vector<pollfd> pfds;
  std::vector<int> fds;
  pfds.push_back(pollfd{waker_.read_fd(), POLLIN, 0});
  fds.push_back(-1);
  for (const auto& [fd, w] : watchers_) {
    short events = 0;
    if (w.interest.readable) events |= POLLIN;
    if (w.interest.writable) events |= POLLOUT;
    pfds.push_back(pollfd{fd, events, 0});
    fds.push_back(fd);
  }

  // No timeout: every reason to wake — fd activity, Post(), Stop() — is
  // delivered through a watched fd or the wakeup pipe.
  int n = ::poll(pfds.data(), pfds.size(), /*timeout=*/-1);
  if (n < 0 && errno != EINTR) {
    MRS_LOG(kError, "loop") << "poll failed: " << errno;
    return false;
  }

  if (pfds[0].revents & POLLIN) waker_.Drain();
  DrainPosted();

  // Dispatch fd events.  A callback may unregister fds (including its
  // own), so re-check membership before each dispatch.
  for (size_t i = 1; i < pfds.size(); ++i) {
    short re = pfds[i].revents;
    if (re == 0) continue;
    auto it = watchers_.find(fds[i]);
    if (it == watchers_.end()) continue;
    FdEvents ev;
    ev.readable = (re & (POLLIN | POLLHUP | POLLERR)) != 0;
    ev.writable = (re & (POLLOUT | POLLERR)) != 0;
    // Copy the callback: it may replace or erase its own registration.
    FdCallback cb = it->second.cb;
    cb(ev);
  }
  return !stop_.load();
}

void EventLoop::Run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  while (RunOnce()) {
  }
}

void EventLoop::Stop() {
  stop_.store(true);
  waker_.Notify();
}

}  // namespace mrs
