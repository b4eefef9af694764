#include "serve/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <sys/stat.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <utility>

#include "core/packed_model.h"
#include "core/serialize.h"
#include "serve/protocol.h"
#include "util/check.h"
#include "util/errno_string.h"

namespace poetbin {

namespace {

using Clock = std::chrono::steady_clock;

// Poll slice for stop-aware waits: handlers and the acceptor never block
// longer than this without re-checking the stop flag.
constexpr int kPollSliceMs = 200;

int make_listen_socket(const std::string& host, std::uint16_t port,
                       bool reuse_port, std::uint16_t* bound_port,
                       std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + errno_string(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port) {
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      if (error) *error = std::string("SO_REUSEPORT: ") + errno_string(errno);
      ::close(fd);
      return -1;
    }
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad bind address '" + host + "'";
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) {
      *error = "bind " + host + ":" + std::to_string(port) + ": " +
               errno_string(errno);
    }
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 128) != 0) {
    if (error) *error = std::string("listen: ") + errno_string(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    if (error) *error = std::string("getsockname: ") + errno_string(errno);
    ::close(fd);
    return -1;
  }
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

// Sends the whole buffer, polling POLLOUT in stop-agnostic slices bounded
// by `deadline`. Returns false on error or timeout.
bool send_all(int fd, const std::uint8_t* data, std::size_t n,
              Clock::time_point deadline) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t wrote =
        ::send(fd, data + sent, n - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (wrote > 0) {
      sent += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
        errno != EINTR) {
      return false;
    }
    if (Clock::now() >= deadline) return false;
    pollfd pfd{fd, POLLOUT, 0};
    ::poll(&pfd, 1, kPollSliceMs);
  }
  return true;
}

}  // namespace

NetServer::NetServer(Runtime& runtime, NetServerOptions options)
    : runtime_(&runtime),
      options_(options),
      // The snapshot's n_features() is the wire width: the frame size for
      // conv models, the classifier's feature count for dense ones.
      n_features_(runtime.snapshot()->n_features()),
      batcher_(runtime, MicroBatcherOptions{.max_batch = options.max_batch,
                                            .max_wait = options.max_wait}) {
  POETBIN_CHECK_MSG(n_features_ > 0, "served model references no features");
}

NetServer::~NetServer() { stop(); }

bool NetServer::start(std::string* error) {
  POETBIN_CHECK_MSG(!started_, "NetServer::start() called twice");
  listen_fd_ = make_listen_socket(options_.host, options_.port,
                                  options_.reuse_port, &bound_port_, error);
  if (listen_fd_ < 0) return false;
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void NetServer::stop() {
  if (!started_) return;
  stop_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    handlers.swap(handlers_);
  }
  for (auto& handler : handlers) handler.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
  stop_.store(false);
}

ServeStats NetServer::stats() const {
  ServeStats merged;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    merged = net_stats_;
  }
  // The batcher's snapshot already folds in the Runtime cache's counters.
  merged.merge(batcher_.stats());
  return merged;
}

void NetServer::accept_loop() {
  while (!stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollSliceMs);
    if (ready <= 0) continue;
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                            &len);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::lock_guard<std::mutex> lock(conn_mu_);
    net_stats_.connections += 1;
    handlers_.emplace_back([this, fd] { handle_connection(fd); });
  }
}

void NetServer::handle_connection(int fd) {
  // One parsed frame awaiting its response, in arrival order. Predict
  // requests keep their decoded bits HERE (never reallocated after the
  // parse pass) because the MicroBatcher stores pointers into them.
  struct Slot {
    wire::Request request;
    bool rejected = false;
    wire::Status error = wire::Status::kOk;
  };

  std::vector<std::uint8_t> buffer;
  std::size_t offset = 0;
  std::vector<std::uint8_t> out;
  std::vector<Slot> slots;
  std::vector<MicroBatcher::Ticket> tickets;
  std::vector<int> ticket_slot;  // slots[ticket_slot[i]] owns tickets[i]
  std::uint8_t chunk[64 * 1024];
  bool poisoned = false;
  auto read_deadline = Clock::now() + options_.io_timeout;

  while (!stop_.load() && !poisoned) {
    // --- wait for bytes (idle: unbounded; mid-frame: io_timeout) ----------
    const bool mid_frame = buffer.size() > offset;
    if (mid_frame && Clock::now() >= read_deadline) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollSliceMs);
    if (ready < 0) break;
    if (ready == 0) continue;
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got == 0) break;  // peer closed
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      break;
    }
    buffer.insert(buffer.end(), chunk, chunk + got);
    read_deadline = Clock::now() + options_.io_timeout;

    // --- drain every complete buffered frame, in max_batch-sized rounds ---
    // Pipelined clients land many frames per read; decoding them all before
    // dispatch is what fills micro-batch windows from a single connection.
    while (buffer.size() > offset && !poisoned) {
      slots.clear();
      std::size_t n_predicts = 0;
      while (n_predicts < options_.max_batch) {
        Slot slot;
        bool fatal = false;
        const wire::FrameResult result =
            wire::decode_request(buffer.data(), buffer.size(), &offset,
                                 &slot.request, &slot.error, &fatal);
        if (result == wire::FrameResult::kNeedMore) break;
        if (result == wire::FrameResult::kReject) {
          slot.rejected = true;
          poisoned = poisoned || fatal;
          slots.push_back(std::move(slot));
          if (fatal) break;
          continue;
        }
        if (slot.request.type == wire::MsgType::kPredict &&
            slot.request.bits.size() != n_features_) {
          slot.rejected = true;
          slot.error = wire::Status::kWrongFeatureWidth;
          slots.push_back(std::move(slot));
          continue;
        }
        if (slot.request.type == wire::MsgType::kPredict) ++n_predicts;
        slots.push_back(std::move(slot));
      }
      if (slots.empty()) break;  // partial frame: go read more bytes

      // Submit the round's predictions; slots is stable from here on.
      tickets.clear();
      ticket_slot.clear();
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (slots[s].rejected ||
            slots[s].request.type != wire::MsgType::kPredict) {
          continue;
        }
        tickets.push_back(batcher_.submit(slots[s].request.bits));
        ticket_slot.push_back(static_cast<int>(s));
      }

      // Build the responses in frame order and ship them in one write.
      out.clear();
      std::size_t next_ticket = 0;
      std::size_t round_errors = 0;
      for (std::size_t s = 0; s < slots.size(); ++s) {
        Slot& slot = slots[s];
        if (slot.rejected) {
          wire::encode_predict_response(slot.error, 0, &out);
          ++round_errors;
          continue;
        }
        switch (slot.request.type) {
          case wire::MsgType::kPredict: {
            POETBIN_CHECK(next_ticket < tickets.size() &&
                          ticket_slot[next_ticket] == static_cast<int>(s));
            const int prediction = tickets[next_ticket++].get();
            wire::encode_predict_response(
                wire::Status::kOk, static_cast<std::uint16_t>(prediction),
                &out);
            break;
          }
          case wire::MsgType::kInfo: {
            // Snapshot, not model(): a concurrent kReload may retire the
            // borrowed version between the call and the read.
            const Runtime::Snapshot snap = runtime_->snapshot();
            wire::encode_info_response(
                static_cast<std::uint32_t>(n_features_),
                static_cast<std::uint32_t>(snap->model.n_classes()), &out);
            break;
          }
          case wire::MsgType::kStats:
            wire::encode_stats_response(stats(), &out);
            break;
          case wire::MsgType::kReload: {
            const IoStatus swapped = runtime_->reload();
            if (swapped.ok()) {
              wire::encode_reload_response(wire::Status::kOk,
                                           runtime_->model_version(), &out);
            } else {
              std::fprintf(stderr, "reload failed: %s: %s\n",
                           model_io_error_kind_name(swapped.error().kind),
                           swapped.error().message.c_str());
              wire::encode_reload_response(wire::Status::kReloadFailed, 0,
                                           &out);
              ++round_errors;
            }
            break;
          }
          case wire::MsgType::kModelInfo: {
            const Runtime::Snapshot snap = runtime_->snapshot();
            wire::WireConvShape conv;
            if (snap->conv != nullptr) {
              const BinShape3 in = snap->conv->input_shape();
              const BinShape3 out_shape = snap->conv->output_shape();
              conv.has_conv = 1;
              conv.in_channels = static_cast<std::uint32_t>(in.channels);
              conv.in_height = static_cast<std::uint32_t>(in.height);
              conv.in_width = static_cast<std::uint32_t>(in.width);
              conv.out_channels =
                  static_cast<std::uint32_t>(out_shape.channels);
              conv.out_height = static_cast<std::uint32_t>(out_shape.height);
              conv.out_width = static_cast<std::uint32_t>(out_shape.width);
            }
            wire::encode_model_info_response(
                snap->version, static_cast<std::uint8_t>(snap->format),
                static_cast<std::uint32_t>(n_features_),
                static_cast<std::uint32_t>(snap->model.n_classes()), conv,
                &out);
            break;
          }
        }
      }
      if (round_errors > 0) {
        std::lock_guard<std::mutex> lock(conn_mu_);
        net_stats_.errors += round_errors;
      }
      if (!out.empty() &&
          !send_all(fd, out.data(), out.size(),
                    Clock::now() + options_.io_timeout)) {
        poisoned = true;
      }
    }

    // Compact the consumed prefix so the buffer never grows unbounded.
    if (offset > 0) {
      buffer.erase(buffer.begin(),
                   buffer.begin() + static_cast<std::ptrdiff_t>(offset));
      offset = 0;
    }
  }
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Forked SO_REUSEPORT sharding.

namespace {

volatile std::sig_atomic_t g_shutdown = 0;
void on_shutdown_signal(int) { g_shutdown = 1; }

void sleep_ms(long ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1000000L};
  ::nanosleep(&ts, nullptr);
}

// What the file watcher compares between polls: a model push is visible as
// an mtime and/or size change (rename-into-place updates both).
struct FileStamp {
  std::int64_t mtime_sec = 0;
  std::int64_t mtime_nsec = 0;
  std::int64_t size = 0;
  bool ok = false;

  bool operator==(const FileStamp&) const = default;
};

FileStamp stamp_of(const std::string& path) {
  struct stat st = {};
  if (::stat(path.c_str(), &st) != 0) return FileStamp{};
  return FileStamp{st.st_mtim.tv_sec, st.st_mtim.tv_nsec,
                   static_cast<std::int64_t>(st.st_size), true};
}

void print_worker_stats(std::size_t worker, const ServeStats& stats) {
  std::printf("worker %zu: %llu requests, %llu batches (mean fill %.1f), "
              "%llu timeouts, %llu errors, %llu connections\n",
              worker, static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches),
              stats.mean_window_fill(),
              static_cast<unsigned long long>(stats.timeouts),
              static_cast<unsigned long long>(stats.errors),
              static_cast<unsigned long long>(stats.connections));
  if (stats.cache_hits + stats.cache_misses > 0) {
    std::printf("worker %zu: cache %llu hits / %llu misses (%.1f%% hit "
                "rate), %llu evictions, %llu stale\n",
                worker, static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses),
                100.0 * stats.cache_hit_rate(),
                static_cast<unsigned long long>(stats.cache_evictions),
                static_cast<unsigned long long>(stats.cache_stale));
  }
}

}  // namespace

int run_sharded_server(const std::string& model_path,
                       const ShardedServeOptions& options) {
  // Pre-validate (text or packed) before forking so a bad path fails with
  // one typed error instead of N worker deaths; each worker then loads the
  // file itself, reading it into its own heap buffer (nothing is shared
  // across the shard group), and per-worker loading is what records the
  // source path its Runtime hot-reloads from.
  {
    const IoResult<LoadedModel> model = read_model_file_any(model_path);
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s: %s\n",
                   model_io_error_kind_name(model.error().kind),
                   model.error().message.c_str());
      return 1;
    }
  }

  const std::size_t workers = options.workers < 1 ? 1 : options.workers;
  NetServerOptions server_opts = options.server;
  if (workers > 1) server_opts.reuse_port = true;

  // With port = 0 the workers must agree on one ephemeral port before they
  // bind: the parent binds port 0 itself (SO_REUSEPORT, never listening, so
  // the kernel routes it no connections), reads the number back, and keeps
  // the socket open until every worker has bound — reserving the port
  // against the rest of the machine in between.
  int hold_fd = -1;
  if (server_opts.port == 0) {
    hold_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (hold_fd < 0) {
      std::perror("socket");
      return 1;
    }
    int one = 1;
    ::setsockopt(hold_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    ::setsockopt(hold_fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    if (::inet_pton(AF_INET, server_opts.host.c_str(), &addr.sin_addr) != 1 ||
        ::bind(hold_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      std::perror("bind");
      ::close(hold_fd);
      return 1;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(hold_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    server_opts.port = ntohs(addr.sin_port);
    server_opts.reuse_port = true;  // the parent still holds the port
  }

  // Both the parent and (by inheritance) the workers shut down on
  // SIGTERM/SIGINT via the same flag; installing before fork closes the
  // window where a signal could hit a worker with default disposition.
  g_shutdown = 0;
  // Installed while the launcher is still single-threaded (pre-fork,
  // pre-server-threads), so the mt-unsafety of signal() cannot bite.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  std::signal(SIGTERM, on_shutdown_signal);
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  std::signal(SIGINT, on_shutdown_signal);

  std::vector<pid_t> pids;
  std::vector<int> ready_fds;
  for (std::size_t w = 0; w < workers; ++w) {
    int ready_pipe[2];
    if (::pipe(ready_pipe) != 0) {
      std::perror("pipe");
      for (const pid_t pid : pids) ::kill(pid, SIGTERM);
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      for (const pid_t p : pids) ::kill(p, SIGTERM);
      return 1;
    }
    if (pid == 0) {
      // Worker: own Runtime + engine + batcher, nothing shared with the
      // siblings but the listening port. Threads are created only after
      // fork(), so the single-threaded-fork rule holds.
      ::close(ready_pipe[0]);
      for (const int rfd : ready_fds) ::close(rfd);
      if (hold_fd >= 0) ::close(hold_fd);
      Runtime::LoadResult loaded = Runtime::load(
          model_path, RuntimeOptions{.threads = options.threads,
                                     .cache_bytes = options.cache_bytes});
      if (!loaded.ok()) {
        std::fprintf(stderr, "worker %zu: %s: %s\n", w,
                     model_io_error_kind_name(loaded.error().kind),
                     loaded.error().message.c_str());
        std::_Exit(1);
      }
      Runtime runtime = std::move(loaded).value();
      NetServer server(runtime, server_opts);
      std::string error;
      if (!server.start(&error)) {
        std::fprintf(stderr, "worker %zu: %s\n", w, error.c_str());
        std::_Exit(1);
      }
      const char ok = 1;
      if (::write(ready_pipe[1], &ok, 1) != 1) std::_Exit(1);
      ::close(ready_pipe[1]);
      // Idle loop doubling as the file watcher: when watch_interval is
      // set, poll the model file's stamp and hot-reload on change. The
      // stamp updates even when the reload fails, so a bad push logs once
      // rather than every interval until the file is fixed.
      const long watch_ms = static_cast<long>(options.watch_interval.count());
      FileStamp last_stamp = stamp_of(model_path);
      long since_check = 0;
      while (!g_shutdown) {
        sleep_ms(50);
        if (watch_ms <= 0) continue;
        since_check += 50;
        if (since_check < watch_ms) continue;
        since_check = 0;
        const FileStamp current = stamp_of(model_path);
        if (!current.ok || current == last_stamp) continue;
        last_stamp = current;
        const IoStatus swapped = runtime.reload(model_path);
        if (swapped.ok()) {
          std::printf("worker %zu: reloaded %s (version %llu)\n", w,
                      model_path.c_str(),
                      static_cast<unsigned long long>(
                          runtime.model_version()));
          std::fflush(stdout);
        } else {
          std::fprintf(stderr, "worker %zu: reload failed: %s: %s\n", w,
                       model_io_error_kind_name(swapped.error().kind),
                       swapped.error().message.c_str());
        }
      }
      server.stop();
      print_worker_stats(w, server.stats());
      std::fflush(stdout);
      std::_Exit(0);
    }
    ::close(ready_pipe[1]);
    pids.push_back(pid);
    ready_fds.push_back(ready_pipe[0]);
  }

  // Wait for every worker to be accepting before announcing the port.
  bool all_ready = true;
  for (const int rfd : ready_fds) {
    char byte = 0;
    ssize_t got;
    do {
      got = ::read(rfd, &byte, 1);
    } while (got < 0 && errno == EINTR && !g_shutdown);
    if (got != 1) all_ready = false;
    ::close(rfd);
  }
  if (hold_fd >= 0) ::close(hold_fd);
  if (!all_ready) {
    std::fprintf(stderr, "error: a worker failed to start\n");
    for (const pid_t pid : pids) ::kill(pid, SIGTERM);
    for (const pid_t pid : pids) ::waitpid(pid, nullptr, 0);
    return 1;
  }
  std::printf("serving %s on %s:%u with %zu worker(s)\n",
              model_path.c_str(), server_opts.host.c_str(), server_opts.port,
              workers);
  std::fflush(stdout);

  int exit_code = 0;
  while (!g_shutdown) {
    int status = 0;
    const pid_t done = ::waitpid(-1, &status, WNOHANG);
    if (done > 0) {
      // A worker died without being asked to — take the shard group down.
      std::fprintf(stderr, "error: worker %d exited unexpectedly\n",
                   static_cast<int>(done));
      exit_code = 1;
      break;
    }
    sleep_ms(50);
  }
  for (const pid_t pid : pids) ::kill(pid, SIGTERM);
  for (const pid_t pid : pids) {
    int status = 0;
    // The unexpectedly-dead worker (if any) was already reaped above;
    // waitpid then fails with ECHILD, which is fine.
    if (::waitpid(pid, &status, 0) == pid &&
        (!WIFEXITED(status) || WEXITSTATUS(status) != 0)) {
      exit_code = 1;
    }
  }
  return exit_code;
}

}  // namespace poetbin
