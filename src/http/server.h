// HTTP/1.1 server: one poll loop for every connection, one handler pool.
//
// Plays the role of the "built-in HTTP server" each Mrs slave runs to serve
// intermediate data files, and carries XML-RPC traffic for the master.  It
// follows the paper's main-thread discipline (§IV-B): one EventLoop thread
// owns the listener and every connection, idle keep-alive ones included —
// it accepts, reads into a per-connection parser, and is the only thread
// that changes the watch set or closes a connection.  A complete request
// is handed to a per-server WorkStealingPool, which runs the handler and
// writes the response; the connection is unwatched meanwhile and is Post()ed
// back to the loop afterwards.  An idle peer therefore costs no worker, and
// a slow handler (the master's get_task long poll) holds only its own.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/thread_pool.h"
#include "http/message.h"
#include "http/parser.h"
#include "net/event_loop.h"
#include "net/socket.h"

namespace mrs {

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Bind to host:port (port 0 = ephemeral) and start serving; handlers
  /// run on `num_workers` pool threads.
  static Result<std::unique_ptr<HttpServer>> Start(const std::string& host,
                                                   uint16_t port,
                                                   Handler handler,
                                                   size_t num_workers = 4);

  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  const SocketAddr& addr() const { return listener_.local_addr(); }
  std::string url_base() const {
    return "http://" + addr().ToString();
  }

  /// Stop the loop, close the listener and idle connections, let in-flight
  /// handlers write their responses, then close the rest.  Idempotent.
  void Shutdown();

 private:
  struct Conn {
    TcpConn sock;
    HttpRequestParser parser;
    std::string pending;  // bytes read but not yet fed to the parser
    bool in_flight = false;  // a pool thread is serving its request
  };

  HttpServer(TcpListener listener, Waker waker, Handler handler,
             size_t num_workers);

  // Loop thread only.
  void OnAcceptable();
  void Watch(int fd);
  void OnReadable(int fd);
  /// Feed `pending` to the parser; hand a complete request to the pool,
  /// otherwise leave the connection watched for more bytes.
  void Advance(int fd);
  void Close(int fd);

  // Pool thread: run the handler and write the response.
  void Serve(int fd, Conn* conn);

  TcpListener listener_;
  Handler handler_;
  EventLoop loop_;
  WorkStealingPool pool_;
  // Owned by the loop thread until Shutdown() has joined it.
  std::map<int, std::unique_ptr<Conn>> conns_;
  std::atomic<bool> stop_{false};
  std::thread loop_thread_;
};

}  // namespace mrs
