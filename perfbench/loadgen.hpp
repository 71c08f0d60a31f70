// Open-loop load generator for `aapx serve`: one thread pipelines
// pre-encoded frames over a few connections on a seeded arrival schedule
// and times every response from its *scheduled* send time, so a stalled
// server shows up in the latencies of every request queued behind the
// stall (no coordinated omission).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace perfbench {

struct Request {
  double at = 0.0;  ///< scheduled send time, seconds from the run's start
  int conn = 0;     ///< connection index
  int cls = 0;      ///< caller-defined request class
  std::string bytes;  ///< the encoded frame; its request id is index + 1
};

struct ClassStats {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  /// error / cancelled / no reply, or shed on every allowed attempt
  std::uint64_t failed = 0;
  std::vector<double> latency_s;  ///< from scheduled send, ok replies only
};

struct LoadResult {
  std::vector<ClassStats> classes;
  std::vector<double> lag_s;  ///< actual minus scheduled send time
  std::uint64_t retry_hints = 0;  ///< retry_later replies
  /// Outstanding requests at the last scheduled send minus those at the
  /// schedule's midpoint; a server that keeps up holds this near zero.
  double backlog_growth = 0.0;
  double elapsed_s = 0.0;  ///< first scheduled send to last reply
};

/// Checks one reply; returns false if its payload is wrong.
using OnReply = std::function<bool(std::size_t index,
                                   const aapx::service::Frame& reply)>;

/// Builds a seeded Poisson arrival schedule: `count` sends at `rate` per
/// second starting at `start_s`; returns the send times.
std::vector<double> poisson_times(std::uint64_t seed, double rate,
                                  std::size_t count, double start_s);

/// Runs the schedule over `fds` (connected sockets, one per connection
/// index). A request shed with retry_later is sent again after the
/// server's hint, up to ServiceClient's attempt limit, and keeps its first
/// scheduled send time. Requests that get no reply within `timeout_s`
/// after the last scheduled send count as failed. With `hold_delayed_ack`
/// (TCP sockets only) the client re-enters delayed-ACK mode after every
/// read.
LoadResult run_open_loop(const std::vector<int>& fds,
                         const std::vector<Request>& schedule, int classes,
                         const OnReply& on_reply, double timeout_s,
                         bool hold_delayed_ack = false);

/// Disables Nagle's algorithm on a client socket, as RPC clients do.
void set_nodelay(int fd);

/// One closed request/response exchange on a blocking socket.
bool roundtrip(int fd, const aapx::service::Frame& request,
               aapx::service::Frame* reply, int timeout_ms);

}  // namespace perfbench
