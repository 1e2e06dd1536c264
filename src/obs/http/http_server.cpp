#include "obs/http/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>

namespace byzrename::obs {

namespace {

constexpr int kPollIntervalMs = 50;
/// Cap on the request line + header block; bodies are bounded separately
/// by the route's PostOptions::max_body_bytes.
constexpr std::size_t kMaxHeaderBytes = 8192;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 415: return "Unsupported Media Type";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpResponse plain_error(int status, const char* message) {
  return {status, "text/plain; charset=utf-8", std::string(message) + "\n", {}};
}

void set_io_timeout(int fd) {
  // A scraper that stalls mid-request must not wedge the accept loop:
  // connections are served one at a time, so every socket read/write is
  // bounded by this timeout.
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
}

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t written = ::send(fd, data, size, MSG_NOSIGNAL);
    if (written <= 0) return false;
    data += written;
    size -= static_cast<std::size_t>(written);
  }
  return true;
}

bool equals_ignore_case(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Value of the first header named @p name (case-insensitive) in the
/// header block, or nullopt when absent.
std::optional<std::string_view> header_value(std::string_view headers,
                                             std::string_view name) {
  std::size_t line_start = 0;
  while (line_start < headers.size()) {
    std::size_t line_end = headers.find("\r\n", line_start);
    if (line_end == std::string_view::npos) line_end = headers.size();
    const std::string_view line = headers.substr(line_start, line_end - line_start);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        equals_ignore_case(trim(line.substr(0, colon)), name)) {
      return trim(line.substr(colon + 1));
    }
    line_start = line_end + 2;
  }
  return std::nullopt;
}

/// Media type comparison per the route policy: the header value up to
/// any ';' parameter must equal the expected type (case-insensitive).
bool content_type_matches(std::string_view header, std::string_view expected) {
  if (expected.empty()) return true;
  const std::size_t semicolon = header.find(';');
  if (semicolon != std::string_view::npos) header = header.substr(0, semicolon);
  return equals_ignore_case(trim(header), expected);
}

}  // namespace

HttpServer::~HttpServer() { stop(); }

HttpServer::Route& HttpServer::route_for(std::string path) {
  if (running()) {
    throw std::logic_error("HttpServer: cannot register routes after start()");
  }
  for (Route& route : routes_) {
    if (route.path == path) return route;
  }
  routes_.push_back(Route{std::move(path), nullptr, nullptr, {}});
  return routes_.back();
}

void HttpServer::handle(std::string path, HttpHandler handler) {
  route_for(std::move(path)).get = std::move(handler);
}

void HttpServer::handle_post(std::string path, HttpHandler handler, PostOptions options) {
  Route& route = route_for(std::move(path));
  route.post = std::move(handler);
  route.post_options = std::move(options);
}

void HttpServer::start(std::uint16_t port) {
  if (running()) throw std::logic_error("HttpServer::start: already running");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("HttpServer: socket: ") + std::strerror(errno));
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpServer: cannot bind 127.0.0.1:" + std::to_string(port) +
                             ": " + detail);
  }
  if (::listen(listen_fd_, 16) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("HttpServer: listen: ") + detail);
  }

  sockaddr_in bound{};
  socklen_t bound_size = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_size) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Never started (or already stopped); still reap a joinable thread
    // in case stop() races a previous stop() that already flipped the
    // flag but has not joined yet — join() below is idempotent-guarded.
    if (thread_.joinable()) thread_.join();
    return;
  }
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::serve_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd poll_set{};
    poll_set.fd = listen_fd_;
    poll_set.events = POLLIN;
    const int ready = ::poll(&poll_set, 1, kPollIntervalMs);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    if ((poll_set.revents & POLLIN) == 0) continue;
    const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (client_fd < 0) continue;
    handle_connection(client_fd);
    ::close(client_fd);
  }
}

void HttpServer::handle_connection(int client_fd) {
  set_io_timeout(client_fd);

  // Read until the end of the header block; anything received past it is
  // the start of the body and is kept.
  std::string request;
  char buffer[1024];
  std::size_t header_end = std::string::npos;
  while (request.size() < kMaxHeaderBytes) {
    header_end = request.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    const ssize_t got = ::recv(client_fd, buffer, sizeof buffer, 0);
    if (got <= 0) break;
    request.append(buffer, static_cast<std::size_t>(got));
  }

  HttpResponse response;
  HttpRequest parsed;
  const std::size_t line_end = request.find("\r\n");
  const std::size_t method_end = request.find(' ');
  const std::size_t target_end =
      method_end == std::string::npos ? std::string::npos : request.find(' ', method_end + 1);
  if (header_end == std::string::npos || line_end == std::string::npos ||
      method_end == std::string::npos || target_end == std::string::npos ||
      target_end > line_end) {
    response = plain_error(400, "bad request");
  } else {
    parsed.method = request.substr(0, method_end);
    std::string target = request.substr(method_end + 1, target_end - method_end - 1);
    const std::size_t query = target.find('?');
    if (query != std::string::npos) {
      parsed.query = target.substr(query + 1);
      target.resize(query);
    }
    parsed.target = std::move(target);
    const std::string_view headers =
        std::string_view(request).substr(line_end + 2, header_end - line_end - 2);

    const bool is_get = parsed.method == "GET" || parsed.method == "HEAD";
    const bool is_post = parsed.method == "POST";
    if (!is_get && !is_post) {
      response = plain_error(405, "method not allowed");
    } else {
      const Route* route = nullptr;
      for (const Route& candidate : routes_) {
        if (candidate.path == parsed.target) {
          route = &candidate;
          break;
        }
      }
      if (route == nullptr) {
        response = plain_error(404, "not found");
      } else if (is_get ? route->get == nullptr : route->post == nullptr) {
        response = plain_error(405, "method not allowed");
      } else {
        bool body_ok = true;
        if (is_post) {
          // Validate the declared body before buffering a single byte of
          // it: an oversized or mistyped request is rejected from its
          // headers alone.
          if (const auto type = header_value(headers, "Content-Type")) {
            parsed.content_type = std::string(*type);
          }
          const auto length_header = header_value(headers, "Content-Length");
          std::size_t content_length = 0;
          if (!length_header.has_value()) {
            response = plain_error(411, "length required");
            body_ok = false;
          } else {
            const auto [end, ec] =
                std::from_chars(length_header->data(),
                                length_header->data() + length_header->size(), content_length);
            if (ec != std::errc{} || end != length_header->data() + length_header->size()) {
              response = plain_error(400, "bad Content-Length");
              body_ok = false;
            } else if (content_length > route->post_options.max_body_bytes) {
              response = plain_error(413, "request body too large");
              body_ok = false;
            } else if (!content_type_matches(parsed.content_type,
                                             route->post_options.content_type)) {
              response = plain_error(415, "unsupported content type");
              body_ok = false;
            }
          }
          if (body_ok) {
            parsed.body = request.substr(header_end + 4);
            if (parsed.body.size() > content_length) parsed.body.resize(content_length);
            while (parsed.body.size() < content_length) {
              const std::size_t want = std::min(
                  sizeof buffer, content_length - parsed.body.size());
              const ssize_t got = ::recv(client_fd, buffer, want, 0);
              if (got <= 0) break;  // client hung up or stalled past the timeout
              parsed.body.append(buffer, static_cast<std::size_t>(got));
            }
            if (parsed.body.size() < content_length) {
              response = plain_error(400, "truncated request body");
              body_ok = false;
            }
          }
        }
        if (body_ok) {
          const HttpHandler& handler = is_get ? route->get : route->post;
          try {
            response = handler(parsed);
          } catch (const std::exception& error) {
            response = {500, "text/plain; charset=utf-8",
                        std::string("internal error: ") + error.what() + "\n", {}};
          } catch (...) {
            response = plain_error(500, "internal error");
          }
        }
      }
    }
  }

  // Head and body leave in one send: on a socket without TCP_NODELAY, a
  // second small write waits (Nagle) for the ACK of the first, which a
  // client may delay by up to ~40 ms.
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + ' ' +
                    status_text(response.status) +
                    "\r\nContent-Type: " + response.content_type +
                    "\r\nContent-Length: " + std::to_string(response.body.size());
  for (const auto& [name, value] : response.extra_headers) {
    out += "\r\n" + name + ": " + value;
  }
  out += "\r\nConnection: close\r\n\r\n";
  if (parsed.method != "HEAD") out += response.body;
  write_all(client_fd, out.data(), out.size());
  requests_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace byzrename::obs
