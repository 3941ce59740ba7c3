#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <random>
#include <unordered_map>

#include "setup.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// How long before a due send the open loop stops sleeping and polls.
constexpr int64_t kSpinNanos = 300'000;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

struct LoadClient::Connection {
  size_t index = 0;  // position in connections_, the epoll tag
  int fd = -1;
  std::string out;       // bytes queued for the socket
  size_t out_pos = 0;    // first unsent byte of `out`
  bool want_write = false;
  cats::serve::FrameReader reader;
};

void StampRequestId(std::string* frame, uint32_t request_id) {
  for (int i = 0; i < 4; ++i) {
    (*frame)[8 + i] = static_cast<char>((request_id >> (8 * i)) & 0xFF);
  }
}

LoadClient::LoadClient(uint16_t port, size_t connections) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) Fail("epoll_create1 failed");
  for (size_t i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Connection>();
    conn->index = i;
    conn->fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn->fd < 0) Fail("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Fail("connect to the scoring server failed");
    }
    int one = 1;
    setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(conn->fd, F_SETFL, fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
      Fail("epoll_ctl failed");
    }
    connections_.push_back(std::move(conn));
  }
}

LoadClient::~LoadClient() {
  for (auto& conn : connections_) close(conn->fd);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

bool LoadClient::Flush(Connection* conn) {
  while (conn->out_pos < conn->out.size()) {
    const ssize_t n = send(conn->fd, conn->out.data() + conn->out_pos,
                           conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  if (conn->out_pos == conn->out.size()) {
    conn->out.clear();
    conn->out_pos = 0;
  }
  const bool want_write = !conn->out.empty();
  if (want_write != conn->want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = conn->index;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->want_write = want_write;
  }
  return true;
}

StepOutcome LoadClient::Run(double rate, double seconds, uint64_t seed,
                            RequestSource* source, Tracer* tracer,
                            std::vector<double>* send_lag_ms,
                            double drain_seconds) {
  // Seeded Poisson arrivals: independent users, so an open loop.
  std::vector<double> offsets_s;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  for (double t = gap(rng); t < seconds; t += gap(rng)) offsets_s.push_back(t);
  StepOutcome step = Drive(&offsets_s, 0, seconds, source, tracer, send_lag_ms,
                           drain_seconds);
  step.offered_rate = rate;
  return step;
}

StepOutcome LoadClient::RunClosed(size_t depth, double seconds,
                                  RequestSource* source, Tracer* tracer) {
  return Drive(nullptr, depth, seconds, source, tracer, nullptr, 5.0);
}

StepOutcome LoadClient::Drive(const std::vector<double>* offsets_s,
                              size_t depth, double seconds,
                              RequestSource* source, Tracer* tracer,
                              std::vector<double>* send_lag_ms,
                              double drain_seconds) {
  StepOutcome step;
  const bool open = offsets_s != nullptr;

  struct InFlight {
    Clock::time_point scheduled;
  };
  std::unordered_map<uint32_t, InFlight> in_flight;

  const Clock::time_point start = Clock::now();
  const Clock::time_point window_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const Clock::time_point drain_deadline =
      window_end + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(drain_seconds));
  auto due = [&](size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>((*offsets_s)[k]));
  };

  size_t sent = 0;
  size_t owed = open ? 0 : depth;  // closed loop: replies not yet replaced
  size_t next_conn = 0;
  bool window_closed = false;
  std::vector<char> buf(64 * 1024);
  epoll_event events[16];

  auto send = [&](Clock::time_point scheduled) {
    const uint32_t id = next_request_id_++;
    Connection* conn = connections_[next_conn].get();
    next_conn = (next_conn + 1) % connections_.size();
    conn->out += source->Next(id);
    in_flight.emplace(id, InFlight{scheduled});
    if (!Flush(conn)) Fail("send to the scoring server failed");
    if (send_lag_ms != nullptr) {
      send_lag_ms->push_back(Ms(Clock::now() - scheduled));
    }
    ++sent;
    ++step.attempted;
  };
  auto complete = [&](uint32_t id, const cats::serve::Message* response,
                      Clock::time_point now) {
    auto it = in_flight.find(id);
    if (it == in_flight.end()) return;
    if (response != nullptr && response->type == cats::serve::MessageType::kOk) {
      step.latency_ms.push_back(Ms(now - it->second.scheduled));
    } else {
      ++step.failed;
    }
    tracer->Record("request", it->second.scheduled, now, id);
    source->OnResponse(id, response);
    in_flight.erase(it);
    if (!open) ++owed;
  };
  auto schedule_done = [&] {
    return open ? sent == offsets_s->size() : window_closed;
  };

  while (true) {
    Clock::time_point now = Clock::now();
    if (open) {
      while (sent < offsets_s->size() && due(sent) <= now) {
        send(due(sent));
        now = Clock::now();
      }
    } else {
      for (; owed > 0 && now < window_end; --owed) send(now);
    }
    if (!window_closed && now >= window_end) {
      window_closed = true;
      step.backlog_at_end = in_flight.size();
    }
    if (schedule_done() && window_closed && in_flight.empty()) break;
    if (now >= drain_deadline) break;

    Clock::time_point wake = window_closed ? drain_deadline : window_end;
    int64_t spin_ns = 0;
    if (open && sent < offsets_s->size()) {
      // Sleep until shortly before the next send is due, then poll: a
      // sleeping thread wakes late on a shared host, and that lateness
      // would be charged to the server as latency.
      wake = due(sent);
      spin_ns = kSpinNanos;
    }
    const int64_t wait_ns = std::max<int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
                   .count() -
               spin_ns);
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    const int n = epoll_pwait2(epoll_fd_, events, 16, &timeout, nullptr);
    if (n < 0 && errno != EINTR) Fail("epoll_pwait2 failed");
    for (int e = 0; e < n; ++e) {
      Connection* conn = connections_[events[e].data.u64].get();
      if (events[e].events & EPOLLOUT) {
        if (!Flush(conn)) Fail("send to the scoring server failed");
      }
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      while (true) {
        const ssize_t r = recv(conn->fd, buf.data(), buf.size(), 0);
        if (r > 0) {
          conn->reader.Feed(std::string_view(buf.data(), static_cast<size_t>(r)));
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        Fail("the scoring server closed a connection");
      }
      const Clock::time_point received = Clock::now();
      while (true) {
        auto message = conn->reader.Next();
        if (!message.ok()) {
          if (message.status().code() == cats::StatusCode::kNotFound) break;
          Fail("bad response frame: " + message.status().ToString());
        }
        complete(message->request_id, &*message, received);
      }
    }
  }
  if (!window_closed) step.backlog_at_end = in_flight.size();
  // Whatever is still outstanding at the drain deadline failed.
  std::vector<uint32_t> missing;
  for (const auto& [id, _] : in_flight) missing.push_back(id);
  std::sort(missing.begin(), missing.end());
  for (uint32_t id : missing) complete(id, nullptr, Clock::now());
  return step;
}

}  // namespace perfbench
