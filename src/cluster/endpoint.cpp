#include "cluster/endpoint.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>

namespace iph::cluster {

bool parse_endpoint(const std::string& s, Endpoint* out) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    return false;
  }
  char* end = nullptr;
  const long port = std::strtol(s.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port < 1 || port > 65535) {
    return false;
  }
  out->host = s.substr(0, colon);
  out->port = static_cast<int>(port);
  return true;
}

bool parse_endpoint_list(const std::string& csv,
                         std::vector<Endpoint>* out) {
  out->clear();
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const auto comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? std::string::npos
                                                   : comma - pos);
    Endpoint ep;
    if (!parse_endpoint(item, &ep)) return false;
    out->push_back(ep);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out->empty();
}

int dial(const Endpoint& ep) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(ep.port);
  if (::getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) {
    // Every protocol message is one small line: send it at once
    // instead of holding it for the peer's ACK (Nagle).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}

}  // namespace iph::cluster
