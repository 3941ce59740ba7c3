#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// Where a load run draws its requests from. Both calls come from
/// the generator's one thread.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  /// Wire frame of the next request, carrying `request_id`.
  virtual std::string Next(uint32_t request_id) = 0;
  /// Exactly once per request: its response, or nullptr when none arrived
  /// before the drain deadline.
  virtual void OnResponse(uint32_t request_id,
                          const cats::serve::Message* response) = 0;
};

/// Overwrites the request_id field of an encoded frame (header bytes
/// 8..11, little-endian), so sources can encode a payload once and stamp
/// each send.
void StampRequestId(std::string* frame, uint32_t request_id);

/// The benchmark's own load generator: one thread and a few loopback
/// connections. Its open loop follows a seeded Poisson arrival schedule
/// and times latency from each request's scheduled send, so a stall
/// charges every request queued behind it; its closed loop keeps a fixed
/// number of requests outstanding, to measure capacity. It deliberately
/// shares no code with src/serve/loadgen.cc: a change to the server's load
/// generator cannot move this yardstick.
class LoadClient {
 public:
  /// Connects `connections` sockets to 127.0.0.1:port; fails the run on
  /// error.
  LoadClient(uint16_t port, size_t connections);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Offers `rate` requests/s for `seconds` on a schedule drawn from
  /// `seed`, then waits for every outstanding response (at most
  /// `drain_seconds`). Appends each request's send lag (actual minus
  /// scheduled send, ms) to `send_lag_ms` when non-null, and records one
  /// "request" span per request in `tracer`.
  StepOutcome Run(double rate, double seconds, uint64_t seed,
                  RequestSource* source, Tracer* tracer,
                  std::vector<double>* send_lag_ms,
                  double drain_seconds = 5.0);

  /// Closed loop: keeps `depth` requests outstanding for `seconds` (each
  /// reply is replaced at once), then waits for the last replies. Latency
  /// runs from each request's send.
  StepOutcome RunClosed(size_t depth, double seconds, RequestSource* source,
                        Tracer* tracer);

 private:
  struct Connection;
  bool Flush(Connection* conn);
  /// Open loop when `offsets_s` is given (send times from the start),
  /// closed loop with `depth` outstanding otherwise.
  StepOutcome Drive(const std::vector<double>* offsets_s, size_t depth,
                    double seconds, RequestSource* source, Tracer* tracer,
                    std::vector<double>* send_lag_ms, double drain_seconds);

  int epoll_fd_ = -1;
  std::vector<std::unique_ptr<Connection>> connections_;
  uint32_t next_request_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
