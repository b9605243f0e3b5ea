// Tests for sockets, pipe waker, and the poll event loop.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "net/event_loop.h"
#include "net/socket.h"
#include "net/waker.h"

namespace mrs {
namespace {

TEST(SocketAddr, ParseAndFormat) {
  auto addr = SocketAddr::Parse("127.0.0.1:8080");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr->host, "127.0.0.1");
  EXPECT_EQ(addr->port, 8080);
  EXPECT_EQ(addr->ToString(), "127.0.0.1:8080");
}

TEST(SocketAddr, ParseRejectsBadInput) {
  EXPECT_FALSE(SocketAddr::Parse("no-port").ok());
  EXPECT_FALSE(SocketAddr::Parse("host:99999").ok());
  EXPECT_FALSE(SocketAddr::Parse("host:abc").ok());
}

TEST(Tcp, ListenEphemeralPortAssigned) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(listener->local_addr().port, 0);
}

TEST(Tcp, RoundTripData) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());

  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    char buf[64];
    auto n = conn->Read(buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    // Echo back upper-cased.
    for (size_t i = 0; i < *n; ++i) buf[i] = static_cast<char>(buf[i] ^ 0x20);
    ASSERT_TRUE(conn->WriteAll(buf, *n).ok());
  });

  auto conn = TcpConn::Connect(listener->local_addr());
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  ASSERT_TRUE(conn->WriteAll("hello").ok());
  char buf[64];
  auto n = conn->Read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "HELLO");
  server.join();
}

TEST(Tcp, ConnectToClosedPortFails) {
  // Bind then immediately drop a listener to find a (very likely) free port.
  uint16_t port;
  {
    auto listener = TcpListener::Listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    port = listener->local_addr().port;
  }
  auto conn = TcpConn::Connect(SocketAddr{"127.0.0.1", port}, 2.0);
  EXPECT_FALSE(conn.ok());
}

TEST(Tcp, ReadToEndSeesEof) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn->WriteAll("abc123").ok());
    // close on scope exit = EOF for the client
  });
  auto conn = TcpConn::Connect(listener->local_addr());
  ASSERT_TRUE(conn.ok());
  auto all = conn->ReadToEnd();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, "abc123");
  server.join();
}

TEST(Waker, NotifyWakesAndDrainClears) {
  auto waker = Waker::Create();
  ASSERT_TRUE(waker.ok());
  waker->Notify();
  waker->Notify();
  pollfd pfd{waker->read_fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 100), 1);
  waker->Drain();
  pfd.revents = 0;
  EXPECT_EQ(::poll(&pfd, 1, 0), 0);  // drained: no longer readable
}

Waker NewWaker() {
  Result<Waker> waker = Waker::Create();
  EXPECT_TRUE(waker.ok()) << waker.status().ToString();
  return std::move(waker).value();
}

TEST(EventLoop, PostRunsOnLoopThread) {
  EventLoop loop(NewWaker());
  std::atomic<bool> ran{false};
  loop.Post([&] {
    ran = true;
    loop.Stop();
  });
  loop.Run();
  EXPECT_TRUE(ran.load());
}

TEST(EventLoop, PostFromOtherThread) {
  EventLoop loop(NewWaker());
  std::atomic<int> value{0};
  std::thread poster([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    loop.Post([&] {
      value = 42;
      loop.Stop();
    });
  });
  loop.Run();
  poster.join();
  EXPECT_EQ(value.load(), 42);
}

TEST(EventLoop, StopBeforeRunIsNotLost) {
  // A server that is shut down right after starting may call Stop() before
  // its loop thread has entered Run(); Run() must then return at once
  // instead of sleeping in poll() with nobody left to wake it.
  EventLoop loop(NewWaker());
  loop.Stop();
  std::future<void> run =
      std::async(std::launch::async, [&] { loop.Run(); });
  EXPECT_EQ(run.wait_for(std::chrono::seconds(5)), std::future_status::ready);
  loop.Stop();  // frees a stuck Run() so a failure cannot hang the test
}

TEST(EventLoop, WatchFdFromOtherThreadWhileRunning) {
  EventLoop loop(NewWaker());
  std::thread runner([&] { loop.Run(); });
  Waker peer = NewWaker();
  std::atomic<bool> readable{false};
  loop.WatchFd(peer.read_fd(), FdEvents{.readable = true},
               [&](FdEvents ev) {
                 EXPECT_TRUE(loop.IsInLoopThread());
                 if (!ev.readable) return;
                 readable = true;
                 peer.Drain();
                 loop.Stop();
               });
  EXPECT_FALSE(loop.IsInLoopThread());
  peer.Notify();
  runner.join();
  EXPECT_TRUE(readable.load());
}

TEST(EventLoop, FdReadableCallbackFires) {
  EventLoop loop(NewWaker());
  auto waker = Waker::Create();
  ASSERT_TRUE(waker.ok());
  std::atomic<bool> readable{false};
  loop.WatchFd(waker->read_fd(), FdEvents{.readable = true, .writable = false},
               [&](FdEvents ev) {
                 if (ev.readable) {
                   readable = true;
                   waker->Drain();
                   loop.Stop();
                 }
               });
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    waker->Notify();
  });
  loop.Run();
  writer.join();
  EXPECT_TRUE(readable.load());
}

TEST(EventLoop, UnwatchStopsCallbacks) {
  EventLoop loop(NewWaker());
  auto waker = Waker::Create();
  ASSERT_TRUE(waker.ok());
  std::atomic<int> calls{0};
  loop.WatchFd(waker->read_fd(), FdEvents{.readable = true, .writable = false},
               [&](FdEvents) {
                 ++calls;
                 loop.UnwatchFd(waker->read_fd());
                 // Leave the byte in the pipe: without unwatch this would
                 // fire continuously.  Stop two iterations later, so a
                 // second callback would have had its chance to run.
                 loop.Post([&] { loop.Post([&] { loop.Stop(); }); });
               });
  waker->Notify();
  loop.Run();
  EXPECT_EQ(calls.load(), 1);
}

}  // namespace
}  // namespace mrs
