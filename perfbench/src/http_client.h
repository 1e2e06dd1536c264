#ifndef PERFBENCH_HTTP_CLIENT_H
#define PERFBENCH_HTTP_CLIENT_H

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct HttpResponse {
  int status = 0;
  std::string headers;  ///< raw header block, status line excluded
  std::string body;
};

/// One blocking HTTP/1.1 exchange with 127.0.0.1:@p port over a fresh
/// connection (the daemon answers Connection: close). Throws
/// std::runtime_error on socket errors or a malformed response.
[[nodiscard]] HttpResponse http_request(std::uint16_t port, std::string_view method,
                                        std::string_view target, std::string_view body = {});

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H
