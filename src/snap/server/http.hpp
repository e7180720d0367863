#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "snap/util/sync.hpp"

namespace snap::server {

/// One parsed HTTP request, as the service layer sees it.
struct HttpRequest {
  std::string method;        ///< "GET", "POST", ... (upper-case)
  std::string path;          ///< decoded path, query string stripped
  std::string query_string;  ///< raw text after '?', may be empty
  std::string body;

  /// Parsed `k=v` pairs of the query string (percent-decoded).
  std::vector<std::pair<std::string, std::string>> query;

  /// Value of query parameter `key`, or `dflt` when absent.
  [[nodiscard]] std::string query_value(std::string_view key,
                                        std::string_view dflt = "") const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Request dispatch interface.  An implementation must be thread-safe:
/// the server calls handle() concurrently from every worker thread.
/// (A virtual interface rather than a callable member keeps the hot
/// per-neighbor visitor rule intact — no std::function in library code —
/// and one indirect call per HTTP request is noise next to the socket I/O.)
class HttpHandler {
 public:
  virtual ~HttpHandler() = default;
  virtual HttpResponse handle(const HttpRequest& request) = 0;
};

/// Self-contained blocking-socket HTTP/1.1 server — no external
/// dependencies, POSIX sockets only.  `threads` workers block in accept()
/// on one listening socket and serve their connections to completion;
/// keep-alive is honored, so a client can stream many requests over one
/// connection (what the replay bench's readers do).  Request-line/header
/// size and body size are capped (the service parses untrusted bodies).
///
/// Lifecycle: construct → start() → (serve) → stop().  stop() is
/// idempotent and also runs from the destructor; it closes the listening
/// socket, nudges the workers out of accept(), shuts the read side of every
/// open connection (so a worker waiting on an idle keep-alive client wakes
/// at once, while a response in flight still goes out), and joins them.
class HttpServer {
 public:
  explicit HttpServer(HttpHandler* handler, int threads = 4);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind + listen on host:port and launch the worker pool.  `host` must be
  /// an IPv4 literal (the daemon binds 127.0.0.1 by default; exposing it
  /// wider is a deployment decision, not a library default).  `port` 0
  /// binds an ephemeral port — read the actual one back from port().
  /// Returns false and fills `*error` on failure.
  bool start(const std::string& host, int port, std::string* error);

  /// Port actually bound (valid after a successful start()).
  [[nodiscard]] int port() const { return port_; }

  /// Stop accepting, drain workers, join.  Safe to call more than once.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// Total requests served (all workers).
  [[nodiscard]] std::uint64_t requests_served() const {
    return served_.load(std::memory_order_acquire);
  }

 private:
  /// Accept loop of one pool worker.  Workers never touch the guarded
  /// lifecycle state: the listening fd is captured by value at launch
  /// (valid until stop() joins them — stop() closes it only after the
  /// join), and shutdown is signalled through the `running_` atomic.
  void worker_loop(int listen_fd);
  void serve_connection(int fd);

  HttpHandler* handler_;
  int num_threads_;

  // Lifecycle state.  start() and stop() may be called from different
  // threads (the tests' main thread destroys the server while a signal
  // handler thread could be stopping it); lifecycle_mu_ serializes them.
  // port_ is written once inside start() before any worker launches and is
  // immutable afterwards (readers of port() see it via the caller's
  // happens-before on start() returning).
  sync::Mutex lifecycle_mu_;  // guards: listen_fd_, workers_
  int listen_fd_ GUARDED_BY(lifecycle_mu_) = -1;
  std::vector<std::thread> workers_ GUARDED_BY(lifecycle_mu_);
  int port_ = 0;
  std::atomic<bool> running_{false};
  // Connections being served.  A worker registers its fd before it first
  // checks running_ and removes it before close(), so stop() — which clears
  // running_ first — either shuts the fd down or the worker never reads it,
  // and never touches a closed (possibly reused) descriptor.
  sync::Mutex conns_mu_;  // guards: conns_
  std::unordered_set<int> conns_ GUARDED_BY(conns_mu_);
  std::atomic<std::uint64_t> served_{0};
};

/// Result of one client-side HTTP exchange.  `status` 0 means a transport
/// failure, described in `error`.
struct HttpResult {
  int status = 0;
  std::string body;
  std::string error;
  [[nodiscard]] bool ok() const { return status >= 200 && status < 300; }
};

/// Minimal blocking HTTP/1.1 client connection (keep-alive): connect once,
/// issue any number of request()s, close on destruction.  Used by the CLI
/// `query` subcommand, the loopback tests, and the replay bench's reader
/// threads.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connect to an IPv4 literal host.  Returns false + error on failure.
  bool connect(const std::string& host, int port, std::string* error);
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  void close();

  /// Issue one request and read the full response.  On transport failure
  /// the connection is closed and the result carries status 0 + error.
  HttpResult request(const std::string& method, const std::string& target,
                     std::string_view body = {});

 private:
  int fd_ = -1;
};

/// One-shot convenience: connect, request, close.
HttpResult http_request(const std::string& host, int port,
                        const std::string& method, const std::string& target,
                        std::string_view body = {});

}  // namespace snap::server
