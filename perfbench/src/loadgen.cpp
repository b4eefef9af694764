#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common.h"
#include "trace.h"

namespace perfbench {

namespace wire = poetbin::wire;

LoadGenerator::~LoadGenerator() { close(); }

void LoadGenerator::close() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  conns_.clear();
}

bool LoadGenerator::open_one(Conn* conn, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = "socket: " + std::string(std::strerror(errno));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = "connect: " + std::string(std::strerror(errno));
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  *conn = Conn{};
  conn->fd = fd;
  return true;
}

bool LoadGenerator::connect(std::uint16_t port, std::size_t n,
                            std::string* error) {
  close();
  port_ = port;
  conns_.resize(n);
  for (Conn& conn : conns_) {
    if (!open_one(&conn, error)) return false;
  }
  return true;
}

PhaseOutcome LoadGenerator::run(const std::vector<Request>& requests,
                                const FrameTable& frames,
                                const PhaseLimits& limits, Tracer* tracer) {
  PhaseOutcome out;
  const std::size_t n = requests.size();
  out.send_ns.assign(n, -1);
  out.done_ns.assign(n, -1);
  std::vector<std::uint8_t> reload_frame;
  std::vector<std::uint8_t> stats_frame;
  wire::encode_reload_request(&reload_frame);
  wire::encode_stats_request(&stats_frame);

  const std::int64_t start = now_ns() + 1'000'000;  // 1 ms to get going
  const double cpu_start = thread_cpu_s();
  const std::int64_t last_at = n == 0 ? 0 : requests.back().at_ns;
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::vector<pollfd> pfds(conns_.size());

  auto fail_conn = [&](Conn& conn) {
    conn.broken = true;
    out.transport += conn.pending.size();
    outstanding -= conn.pending.size();
    conn.pending.clear();
  };

  while (true) {
    std::int64_t now = now_ns() - start;

    // --- send everything that is due --------------------------------------
    const std::int64_t send_begin = now;
    bool wrote = false;
    while (next < n && !out.aborted && requests[next].at_ns <= now) {
      const Request& r = requests[next];
      Conn& conn = conns_[r.conn];
      if (conn.broken) {
        ++out.transport;
      } else {
        if (r.kind == RequestKind::kPredict) {
          const std::uint8_t* f = frames.data + r.frame * frames.frame_size;
          conn.tx.insert(conn.tx.end(), f, f + frames.frame_size);
        } else {
          const auto& f =
              r.kind == RequestKind::kReload ? reload_frame : stats_frame;
          conn.tx.insert(conn.tx.end(), f.begin(), f.end());
        }
        conn.pending.push_back(static_cast<std::uint32_t>(next));
        out.send_ns[next] = now;
        ++out.sent;
        ++outstanding;
      }
      ++next;
      if (next == n) out.backlog_at_last_send = outstanding;
      if (limits.abort_backlog > 0 && outstanding > limits.abort_backlog) {
        out.aborted = true;
        out.unsent = n - next;
        out.backlog_at_last_send = outstanding;
      }
    }
    for (Conn& conn : conns_) {
      while (!conn.broken && conn.tx_offset < conn.tx.size()) {
        const ssize_t put =
            ::send(conn.fd, conn.tx.data() + conn.tx_offset,
                   conn.tx.size() - conn.tx_offset,
                   MSG_NOSIGNAL | MSG_DONTWAIT);
        if (put > 0) {
          conn.tx_offset += static_cast<std::size_t>(put);
          wrote = true;
          continue;
        }
        if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (put < 0 && errno == EINTR) continue;
        fail_conn(conn);
      }
      if (conn.tx_offset == conn.tx.size()) {
        conn.tx.clear();
        conn.tx_offset = 0;
      }
    }
    if (tracer != nullptr && wrote) {
      tracer->add("loadgen.send", start + send_begin, now_ns());
    }

    // --- look for answers without sleeping ---------------------------------
    // The generator spins on its own core: a sleeping thread on a virtual
    // CPU can take milliseconds to wake, which would show up as send lag
    // and as answer latency that the server did not cause.
    const bool more_to_send = next < n && !out.aborted;
    if (!more_to_send && outstanding == 0) break;
    now = now_ns() - start;
    if (now >= last_at + limits.drain_ns) break;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      pfds[c].fd = conns_[c].broken ? -1 : conns_[c].fd;
      pfds[c].events = static_cast<short>(
          POLLIN | (conns_[c].tx.empty() ? 0 : POLLOUT));
      pfds[c].revents = 0;
    }
    if (::poll(pfds.data(), pfds.size(), 0) <= 0) continue;

    // --- read and match answers --------------------------------------------
    const std::int64_t recv_begin = now_ns();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Conn& conn = conns_[c];
      if (conn.broken ||
          (pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      std::uint8_t chunk[64 * 1024];
      const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
        fail_conn(conn);
        continue;
      }
      if (got < 0) continue;
      const std::int64_t at = now_ns() - start;
      conn.rx.insert(conn.rx.end(), chunk, chunk + got);
      wire::Response response;
      while (wire::decode_response(conn.rx.data(), conn.rx.size(),
                                   &conn.rx_offset, &response) ==
             wire::FrameResult::kFrame) {
        if (conn.pending.empty()) {  // an answer nobody asked for
          fail_conn(conn);
          break;
        }
        const std::uint32_t id = conn.pending.front();
        conn.pending.pop_front();
        --outstanding;
        out.done_ns[id] = at;
        const Request& r = requests[id];
        const bool ok = response.status == wire::Status::kOk;
        switch (r.kind) {
          case RequestKind::kPredict:
            if (response.type != wire::MsgType::kPredict || !ok) {
              ++out.errors;
            } else if (response.prediction != r.expected) {
              ++out.wrong;
            } else {
              ++out.succeeded;
              out.latency_ms.push_back(1e-6 *
                                       static_cast<double>(at - r.at_ns));
            }
            break;
          case RequestKind::kReload:
            if (response.type != wire::MsgType::kReload || !ok) {
              ++out.errors;
            } else {
              ++out.succeeded;
              out.reload_ms.push_back(
                  1e-6 * static_cast<double>(at - out.send_ns[id]));
            }
            break;
          case RequestKind::kStats:
            if (response.type != wire::MsgType::kStats || !ok) {
              ++out.errors;
            } else {
              ++out.succeeded;
              out.stats = response.stats;
            }
            break;
        }
      }
      if (conn.rx_offset == conn.rx.size()) {
        conn.rx.clear();
        conn.rx_offset = 0;
      }
    }
    if (tracer != nullptr) {
      tracer->add("loadgen.recv", recv_begin, now_ns());
    }
  }

  const double wall_s = 1e-9 * static_cast<double>(now_ns() - start);
  if (wall_s > 0.05) {
    out.generator_ran_share = (thread_cpu_s() - cpu_start) / wall_s;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (out.send_ns[i] >= 0 && requests[i].kind == RequestKind::kPredict) {
      out.lag_ms.push_back(
          1e-6 * static_cast<double>(out.send_ns[i] - requests[i].at_ns));
    }
  }
  if (tracer != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      if (out.done_ns[i] < 0) continue;
      const std::uint32_t root =
          tracer->add("request", start + requests[i].at_ns,
                      start + out.done_ns[i], Tracer::kNoParent,
                      static_cast<std::uint32_t>(i));
      tracer->add("loadgen.lag", start + requests[i].at_ns,
                  start + out.send_ns[i], root, static_cast<std::uint32_t>(i));
    }
  }

  // Whatever is still owed an answer is failed, and its connection is
  // reopened so a late answer cannot be taken for a later request's.
  for (Conn& conn : conns_) {
    out.unanswered += conn.pending.size();
    if (!conn.pending.empty() || conn.broken || !conn.tx.empty()) {
      ::close(conn.fd);
      std::string error;
      if (!open_one(&conn, &error)) conn.broken = true;
    }
  }
  return out;
}

}  // namespace perfbench
