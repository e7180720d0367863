#include "snap/server/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "snap/util/json.hpp"

namespace snap::server {

namespace {

// Caps on untrusted input: a request head (request line + headers) beyond
// 64 KiB or a body beyond 64 MiB is rejected, not buffered.
constexpr std::size_t kMaxHeadBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 64 * 1024 * 1024;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    default: return "Status";
  }
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Percent-decode `s`; '+' becomes a space when `plus_is_space`.
std::string url_decode(std::string_view s, bool plus_is_space) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '+' && plus_is_space) {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < s.size()) {
      const int hi = hex_digit(s[i + 1]);
      const int lo = hex_digit(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_response(int fd, const HttpResponse& resp, bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                     status_text(resp.status) + "\r\n";
  head += "Content-Type: " + resp.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  head += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  head += "\r\n";
  return send_all(fd, head.data(), head.size()) &&
         send_all(fd, resp.body.data(), resp.body.size());
}

std::string lower(std::string s) {
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// State of reading successive requests off one connection: bytes received
/// beyond the current request are kept for the next one (pipelining-safe).
struct ConnReader {
  int fd;
  std::string buffered;

  /// Pull up to `max_bytes` more bytes; false on EOF/error.
  bool fill(std::size_t max_bytes = 8192) {
    char chunk[8192];
    const ssize_t n =
        ::recv(fd, chunk, std::min(sizeof chunk, max_bytes), 0);
    if (n <= 0) return false;
    buffered.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  /// Take the next `length` bytes as a message body, held once: the buffer
  /// is reserved to the body's size, never reads past it, and is moved out
  /// whole when it holds exactly the body.  Only a body that arrived with
  /// pipelined bytes behind it is copied out, and those bytes stay
  /// buffered.  False if the peer closes first.
  bool take_body(std::size_t length, std::string* body) {
    if (buffered.size() < length) {
      buffered.reserve(length);
      while (buffered.size() < length)
        if (!fill(length - buffered.size())) return false;
    }
    if (buffered.size() == length) {
      *body = std::move(buffered);
      buffered = std::string();
    } else {
      body->assign(buffered, 0, length);
      buffered.erase(0, length);
    }
    return true;
  }
};

/// Parse outcome for one request off the wire.
enum class ReadOutcome { kOk, kClosed, kTooLarge, kMalformed, kNotImplemented };

/// A Content-Length field value: 1-19 ASCII digits, optionally between
/// spaces and tabs (19 digits cannot overflow 64 bits).  False for anything
/// else, including a sign or an empty value.
bool parse_content_length(std::string_view value, std::size_t* out) {
  const auto ows = [](char c) { return c == ' ' || c == '\t'; };
  while (!value.empty() && ows(value.front())) value.remove_prefix(1);
  while (!value.empty() && ows(value.back())) value.remove_suffix(1);
  if (value.empty() || value.size() > 19) return false;
  std::uint64_t n = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = static_cast<std::size_t>(n);
  return true;
}

ReadOutcome read_request(ConnReader* rd, HttpRequest* req,
                         bool* keep_alive) {
  // 1. Accumulate the head.
  std::size_t head_end = std::string::npos;
  for (;;) {
    head_end = rd->buffered.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    if (rd->buffered.size() > kMaxHeadBytes) return ReadOutcome::kTooLarge;
    if (!rd->fill())
      return rd->buffered.empty() ? ReadOutcome::kClosed
                                  : ReadOutcome::kMalformed;
  }
  const std::string head = rd->buffered.substr(0, head_end);
  rd->buffered.erase(0, head_end + 4);

  // 2. Request line: METHOD SP target SP HTTP/1.x
  const std::size_t line_end = head.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return ReadOutcome::kMalformed;
  req->method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);
  if (version.rfind("HTTP/", 0) != 0) return ReadOutcome::kMalformed;

  // 3. Headers we act on: Content-Length, Transfer-Encoding, Connection.
  // Framing follows RFC 9112 §6.3: an invalid Content-Length, or two with
  // different values, is a 400; a transfer coding, which this server does
  // not decode, is a 501.  Either way the connection closes, since where
  // the next request starts is unknown.
  std::size_t content_length = 0;
  bool have_length = false;
  bool bad_length = false;
  bool transfer_coded = false;
  std::string connection;
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string hline = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = hline.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = lower(hline.substr(0, colon));
    std::size_t vstart = colon + 1;
    while (vstart < hline.size() && hline[vstart] == ' ') ++vstart;
    const std::string value = hline.substr(vstart);
    if (name == "content-length") {
      std::size_t cl = 0;
      if (!parse_content_length(value, &cl) ||
          (have_length && cl != content_length))
        bad_length = true;
      content_length = cl;
      have_length = true;
    } else if (name == "transfer-encoding") {
      transfer_coded = true;
    } else if (name == "connection") {
      connection = lower(value);
    }
  }
  if (transfer_coded) return ReadOutcome::kNotImplemented;
  if (bad_length) return ReadOutcome::kMalformed;
  if (content_length > kMaxBodyBytes) return ReadOutcome::kTooLarge;

  // HTTP/1.1 defaults to keep-alive; an explicit "close" wins either way.
  *keep_alive = version == "HTTP/1.1" ? connection != "close"
                                      : connection == "keep-alive";

  // 4. Body.
  if (!rd->take_body(content_length, &req->body))
    return ReadOutcome::kMalformed;

  // 5. Split target into decoded path + query pairs.
  const std::size_t qmark = target.find('?');
  req->query_string =
      qmark == std::string::npos ? "" : target.substr(qmark + 1);
  req->path = url_decode(
      qmark == std::string::npos ? target : target.substr(0, qmark), false);
  req->query.clear();
  std::size_t qpos = 0;
  while (qpos < req->query_string.size()) {
    std::size_t amp = req->query_string.find('&', qpos);
    if (amp == std::string::npos) amp = req->query_string.size();
    const std::string pair = req->query_string.substr(qpos, amp - qpos);
    qpos = amp + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos)
      req->query.emplace_back(url_decode(pair, true), "");
    else
      req->query.emplace_back(url_decode(pair.substr(0, eq), true),
                              url_decode(pair.substr(eq + 1), true));
  }
  return ReadOutcome::kOk;
}

}  // namespace

std::string HttpRequest::query_value(std::string_view key,
                                     std::string_view dflt) const {
  for (const auto& [k, v] : query)
    if (k == key) return v;
  return std::string(dflt);
}

HttpServer::HttpServer(HttpHandler* handler, int threads)
    : handler_(handler), num_threads_(threads < 1 ? 1 : threads) {}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(const std::string& host, int port, std::string* error) {
  sync::MutexLock lk(lifecycle_mu_);
  if (running()) {
    if (error != nullptr) *error = "server already running";
    return false;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "host must be an IPv4 literal: " + host;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  running_.store(true, std::memory_order_release);
  workers_.reserve(static_cast<std::size_t>(num_threads_));
  // Workers get the fd by value: they must stay off the guarded lifecycle
  // state, and the fd outlives them by construction (stop() closes it only
  // after joining every worker).
  for (int t = 0; t < num_threads_; ++t)
    workers_.emplace_back([this, fd = listen_fd_] { worker_loop(fd); });
  return true;
}

void HttpServer::stop() {
  sync::MutexLock lk(lifecycle_mu_);
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Never started (or already stopped): nothing to join.
    if (workers_.empty()) return;
  }
  // Unblock every worker's accept(); the fd itself is closed only after the
  // join so no worker can race a recycled descriptor.  Then end the reads of
  // open connections: SHUT_RD wakes a worker parked on an idle keep-alive
  // client, and a response being sent still goes out.  Joining under
  // lifecycle_mu_ cannot deadlock: workers never take the lifecycle lock.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  {
    sync::MutexLock conns(conns_mu_);
    for (const int fd : conns_) ::shutdown(fd, SHUT_RD);
  }
  for (auto& w : workers_) w.join();
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::worker_loop(int listen_fd) {
  while (running()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener shut down
    }
    // A dead peer must not park a worker forever.
    timeval tv{};
    tv.tv_sec = 60;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    {
      sync::MutexLock lk(conns_mu_);
      conns_.insert(fd);
    }
    serve_connection(fd);  // re-checks running() before its first read
    {
      sync::MutexLock lk(conns_mu_);
      conns_.erase(fd);
    }
    ::close(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  ConnReader rd{fd, {}};
  while (running()) {
    HttpRequest req;
    bool keep_alive = false;
    const ReadOutcome rc = read_request(&rd, &req, &keep_alive);
    if (rc == ReadOutcome::kClosed) return;
    if (rc == ReadOutcome::kTooLarge) {
      send_response(fd, {413, "application/json",
                         R"({"error":"request too large"})"},
                    false);
      return;
    }
    if (rc == ReadOutcome::kMalformed) {
      send_response(fd, {400, "application/json",
                         R"({"error":"malformed HTTP request"})"},
                    false);
      return;
    }
    if (rc == ReadOutcome::kNotImplemented) {
      send_response(fd, {501, "application/json",
                         R"({"error":"transfer codings are not supported"})"},
                    false);
      return;
    }
    HttpResponse resp;
    try {
      resp = handler_->handle(req);
    } catch (const std::exception& e) {
      resp.status = 500;
      resp.body = R"({"error":)";
      json::escape(std::string("internal: ") + e.what(), &resp.body);
      resp.body += '}';
    }
    served_.fetch_add(1, std::memory_order_acq_rel);
    if (!send_response(fd, resp, keep_alive)) return;
    if (!keep_alive) return;
  }
}

// ---------------------------------------------------------------------------
// Client.

HttpClient::~HttpClient() { close(); }

void HttpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool HttpClient::connect(const std::string& host, int port,
                         std::string* error) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "host must be an IPv4 literal: " + host;
    close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return true;
}

HttpResult HttpClient::request(const std::string& method,
                               const std::string& target,
                               std::string_view body) {
  HttpResult res;
  if (fd_ < 0) {
    res.error = "not connected";
    return res;
  }
  std::string msg = method + " " + target + " HTTP/1.1\r\n";
  msg += "Host: snap\r\n";
  msg += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  msg += "Connection: keep-alive\r\n\r\n";
  msg.append(body.data(), body.size());
  if (!send_all(fd_, msg.data(), msg.size())) {
    res.error = "send failed";
    close();
    return res;
  }

  // Response: status line + headers, then content-length body bytes.
  ConnReader rd{fd_, {}};
  std::size_t head_end = std::string::npos;
  for (;;) {
    head_end = rd.buffered.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    if (rd.buffered.size() > kMaxHeadBytes || !rd.fill()) {
      res.error = "connection closed mid-response";
      close();
      return res;
    }
  }
  const std::string head = rd.buffered.substr(0, head_end);
  rd.buffered.erase(0, head_end + 4);
  // "HTTP/1.1 NNN text"
  const std::size_t sp = head.find(' ');
  if (sp == std::string::npos) {
    res.error = "malformed status line";
    close();
    return res;
  }
  res.status = std::atoi(head.c_str() + sp + 1);

  std::size_t content_length = 0;
  bool have_length = false;
  bool server_closes = false;
  std::size_t pos = head.find("\r\n");
  pos = pos == std::string::npos ? head.size() : pos + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string hline = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = hline.find(':');
    if (colon == std::string::npos) continue;
    const std::string name = lower(hline.substr(0, colon));
    std::size_t vstart = colon + 1;
    while (vstart < hline.size() && hline[vstart] == ' ') ++vstart;
    if (name == "content-length") {
      content_length = static_cast<std::size_t>(
          std::strtoull(hline.c_str() + vstart, nullptr, 10));
      have_length = true;
    } else if (name == "connection") {
      server_closes = lower(hline.substr(vstart)) == "close";
    }
  }
  if (have_length) {
    if (!rd.take_body(content_length, &res.body)) {
      res.error = "connection closed mid-body";
      close();
      return res;
    }
  } else {
    // No length: body runs to EOF (and the connection is done).
    while (rd.fill()) {
    }
    res.body = std::move(rd.buffered);
    server_closes = true;
  }
  if (server_closes) close();
  return res;
}

HttpResult http_request(const std::string& host, int port,
                        const std::string& method, const std::string& target,
                        std::string_view body) {
  HttpClient client;
  std::string err;
  if (!client.connect(host, port, &err)) {
    HttpResult res;
    res.error = err;
    return res;
  }
  return client.request(method, target, body);
}

}  // namespace snap::server
