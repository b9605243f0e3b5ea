#include "http/server.h"

#include "common/log.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mrs {

Result<std::unique_ptr<HttpServer>> HttpServer::Start(const std::string& host,
                                                      uint16_t port,
                                                      Handler handler,
                                                      size_t num_workers) {
  MRS_ASSIGN_OR_RETURN(TcpListener listener, TcpListener::Listen(host, port));
  MRS_RETURN_IF_ERROR(listener.SetNonBlocking(true));
  MRS_ASSIGN_OR_RETURN(Waker waker, Waker::Create());
  return std::unique_ptr<HttpServer>(
      new HttpServer(std::move(listener), std::move(waker), std::move(handler),
                     num_workers));
}

HttpServer::HttpServer(TcpListener listener, Waker waker, Handler handler,
                       size_t num_workers)
    : listener_(std::move(listener)),
      handler_(std::move(handler)),
      loop_(std::move(waker)),
      pool_(num_workers) {
  loop_.WatchFd(listener_.fd(), FdEvents{.readable = true},
                [this](FdEvents) { OnAcceptable(); });
  loop_thread_ = std::thread([this] { loop_.Run(); });
}

HttpServer::~HttpServer() { Shutdown(); }

void HttpServer::Shutdown() {
  if (stop_.exchange(true)) return;
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // With the loop gone this thread owns every connection.  Close the
  // listener so late peers get connection-refused (retryable) instead of
  // sitting in the accept backlog waiting on a dead server, and idle peers
  // so they see EOF now.  A connection whose handler is still running keeps
  // its fd until that handler has written its response.
  listener_.Close();
  std::erase_if(conns_, [](const auto& entry) {
    return !entry.second->in_flight;
  });
  pool_.Shutdown();
  conns_.clear();
}

void HttpServer::OnAcceptable() {
  for (;;) {
    Result<TcpConn> sock = listener_.Accept();
    if (!sock.ok()) {
      if (sock.status().code() != StatusCode::kUnavailable) {
        MRS_LOG(kWarning, "http") << "accept: " << sock.status().ToString();
      }
      return;
    }
    (void)sock->SetNoDelay(true);
    int fd = sock->fd();
    auto conn = std::make_unique<Conn>();
    conn->sock = std::move(sock).value();
    conns_[fd] = std::move(conn);
    Watch(fd);
  }
}

void HttpServer::Watch(int fd) {
  loop_.WatchFd(fd, FdEvents{.readable = true},
                [this, fd](FdEvents) { OnReadable(fd); });
}

void HttpServer::OnReadable(int fd) {
  Conn& conn = *conns_.at(fd);
  char buf[16384];
  Result<size_t> n = conn.sock.Read(buf, sizeof(buf), /*dont_wait=*/true);
  if (!n.ok() && n.status().code() == StatusCode::kUnavailable) return;
  if (!n.ok() || *n == 0) {  // error or peer closed
    Close(fd);
    return;
  }
  conn.pending.append(buf, *n);
  Advance(fd);
}

void HttpServer::Advance(int fd) {
  Conn& conn = *conns_.at(fd);
  Result<size_t> used = conn.parser.Feed(conn.pending);
  if (!used.ok()) {
    HttpResponse resp = HttpResponse::BadRequest(used.status().ToString());
    resp.headers.Set("Connection", "close");
    // Best effort: the loop must not block on a peer that stopped reading.
    (void)conn.sock.SetNonBlocking(true);
    (void)conn.sock.WriteAll(resp.Serialize());
    Close(fd);
    return;
  }
  conn.pending.erase(0, *used);
  if (!conn.parser.Done()) return;  // stay watched for the rest
  loop_.UnwatchFd(fd);
  conn.in_flight = true;
  if (!pool_.Submit([this, fd, c = &conn] { Serve(fd, c); })) Close(fd);
}

void HttpServer::Close(int fd) {
  loop_.UnwatchFd(fd);
  conns_.erase(fd);
}

void HttpServer::Serve(int fd, Conn* conn) {
  HttpRequest req = conn->parser.TakeRequest();
  bool close = false;
  if (auto c = req.headers.Get("Connection");
      c.has_value() && EqualsIgnoreCase(*c, "close")) {
    close = true;
  }
  static obs::Counter* requests =
      obs::Registry::Instance().GetCounter("mrs.http.server.requests");
  static obs::Histogram* handle_seconds =
      obs::Registry::Instance().GetHistogram("mrs.http.server.handle_seconds");
  double handle_start = obs::TraceNowSeconds();
  HttpResponse resp = handler_(req);
  handle_seconds->Observe(obs::TraceNowSeconds() - handle_start);
  requests->Inc();
  resp.headers.Set("Connection", close ? "close" : "keep-alive");
  bool keep = conn->sock.WriteAll(resp.Serialize()).ok() && !close;
  // Hand the connection back; a pipelined request already buffered in
  // `pending` is dispatched at once rather than after the next POLLIN.
  loop_.Post([this, fd, keep] {
    Conn& back = *conns_.at(fd);
    back.in_flight = false;
    if (!keep) {
      Close(fd);
      return;
    }
    back.parser = HttpRequestParser();
    Watch(fd);
    Advance(fd);
  });
}

}  // namespace mrs
