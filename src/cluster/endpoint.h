// Backend endpoint addressing for the cluster router: parse
// "host:port[,host:port...]" lists and dial one endpoint with plain
// POSIX sockets (no dependencies beyond libc — same constraint as the
// serving tools).
#pragma once

#include <string>
#include <vector>

namespace iph::cluster {

struct Endpoint {
  std::string host;
  int port = 0;

  std::string str() const { return host + ":" + std::to_string(port); }
};

/// Parse "host:port". False on a missing colon or non-numeric /
/// out-of-range port.
bool parse_endpoint(const std::string& s, Endpoint* out);

/// Parse a comma-separated endpoint list; empty elements are an error.
bool parse_endpoint_list(const std::string& csv, std::vector<Endpoint>* out);

/// Blocking TCP connect with TCP_NODELAY set. Returns the connected
/// fd, or -1 on failure.
int dial(const Endpoint& ep);

}  // namespace iph::cluster
