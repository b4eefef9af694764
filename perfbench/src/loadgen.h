// Open-loop load generator: one thread drives every connection.
//
// Requests leave on a precomputed schedule (seeded Poisson arrivals at a
// fixed rate), whether or not earlier ones have been answered, because the
// clients being modelled are independent edge devices that do not wait on
// each other. One thread owns all connections through non-blocking sockets
// and poll, so the generator adds one thread to the load budget however
// many requests are in flight. Each request is timed from its scheduled
// send time; how late the generator actually sent it (its lag) is recorded
// too, so a generator that fell behind is visible and not billed to the
// server. Frames are the library's wire format (serve/protocol.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace perfbench {

class Tracer;

enum class RequestKind : std::uint8_t { kPredict, kReload, kStats };

struct Request {
  std::int64_t at_ns = 0;    // scheduled send time, from phase start
  std::uint32_t frame = 0;   // index into the phase's frame table
  std::uint16_t expected = 0;
  std::uint8_t conn = 0;
  RequestKind kind = RequestKind::kPredict;
};

// Encoded predict frames of equal size, frame i at data[i * frame_size].
struct FrameTable {
  const std::uint8_t* data = nullptr;
  std::size_t frame_size = 0;
};

// Everything one phase's requests did.
struct PhaseOutcome {
  std::vector<std::int64_t> send_ns;  // per request; -1 = never sent
  std::vector<std::int64_t> done_ns;  // per request; -1 = never answered
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t wrong = 0;        // answered with another class
  std::uint64_t errors = 0;       // answered with an error status
  std::uint64_t transport = 0;    // lost to a broken connection
  std::uint64_t unanswered = 0;   // still open when the phase ended
  std::uint64_t unsent = 0;       // dropped by an early abort
  bool aborted = false;           // backlog passed the abort limit
  std::size_t backlog_at_last_send = 0;
  std::vector<double> latency_ms;  // succeeded predicts, from schedule
  std::vector<double> lag_ms;      // sent predicts: send - schedule
  std::vector<double> reload_ms;   // succeeded reloads: round trip
  poetbin::ServeStats stats;       // last kStats answer seen, if any
  // Share of the phase the spinning generator actually ran: below 1 by
  // about the time the host gave its virtual CPU to another guest.
  double generator_ran_share = 1.0;

  std::uint64_t failed() const {
    return wrong + errors + transport + unanswered;
  }
};

struct PhaseLimits {
  // How long after the last scheduled send the phase waits for answers.
  std::int64_t drain_ns = 1'000'000'000;
  // Stop sending once this many requests are outstanding (0 = never): an
  // overloaded ladder probe ends early instead of queueing seconds of work.
  std::size_t abort_backlog = 0;
};

class LoadGenerator {
 public:
  LoadGenerator() = default;
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Opens `n` loopback TCP connections to `port` (closing any open ones).
  bool connect(std::uint16_t port, std::size_t n, std::string* error);
  void close();
  std::size_t connections() const { return conns_.size(); }

  // Sends `requests` (sorted by at_ns) on their schedule and collects the
  // answers. Connections that still owe answers when the phase ends are
  // reopened, so a late answer can never be matched to a later request.
  // With a tracer, the send and receive steps of each loop turn and every
  // request's scheduled-to-answered interval are recorded as spans.
  PhaseOutcome run(const std::vector<Request>& requests,
                   const FrameTable& frames, const PhaseLimits& limits,
                   Tracer* tracer = nullptr);

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> tx;
    std::size_t tx_offset = 0;
    std::vector<std::uint8_t> rx;
    std::size_t rx_offset = 0;
    std::deque<std::uint32_t> pending;  // request ids, in send order
    bool broken = false;
  };

  bool open_one(Conn* conn, std::string* error);

  std::uint16_t port_ = 0;
  std::vector<Conn> conns_;
};

}  // namespace perfbench
