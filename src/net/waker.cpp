#include "net/waker.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

namespace mrs {

Result<Waker> Waker::Create() {
  int fds[2];
  if (::pipe(fds) < 0) return IoErrorFromErrno("pipe", errno);
  Fd read_end(fds[0]);
  Fd write_end(fds[1]);
  // Non-blocking on both ends: Notify must never block the caller, and
  // Drain must stop at an empty pipe.
  for (int fd : fds) {
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      return IoErrorFromErrno("fcntl(pipe)", errno);
    }
  }
  return Waker(std::move(read_end), std::move(write_end));
}

void Waker::Notify() const {
  uint8_t byte = 1;
  // EAGAIN (pipe full) is success: the loop will wake anyway.
  [[maybe_unused]] ssize_t n = ::write(write_end_.get(), &byte, 1);
}

void Waker::Drain() const {
  uint8_t buf[256];
  // A short read means the pipe is empty; stop without the extra read()
  // that would only report EAGAIN.
  while (::read(read_end_.get(), buf, sizeof(buf)) ==
         static_cast<ssize_t>(sizeof(buf))) {
  }
}

}  // namespace mrs
