#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sys/time.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

/// Owns one socket descriptor.
class Socket {
 public:
  Socket() : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_;
};

void send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t sent = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<std::size_t>(sent));
  }
}

}  // namespace

HttpResponse http_request(std::uint16_t port, std::string_view method, std::string_view target,
                          std::string_view body) {
  Socket socket;
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  const int one = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }

  std::string request;
  request.reserve(128 + body.size());
  request.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  request.append("Host: 127.0.0.1\r\nConnection: close\r\n");
  if (method == "POST") {
    request.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  request.append("\r\n").append(body);
  send_all(socket.fd(), request);

  std::string raw;
  char buffer[16384];
  for (;;) {
    const ssize_t got = ::recv(socket.fd(), buffer, sizeof buffer, 0);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    raw.append(buffer, static_cast<std::size_t>(got));
  }

  const std::size_t line_end = raw.find("\r\n");
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || line_end == std::string::npos ||
      head_end == std::string::npos) {
    throw std::runtime_error("malformed HTTP response");
  }
  HttpResponse response;
  response.status = std::atoi(raw.c_str() + 9);
  response.headers = raw.substr(line_end + 2, head_end - line_end - 2);
  response.body = raw.substr(head_end + 4);
  return response;
}

}  // namespace perfbench
