#include "edge/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <thread>

namespace lcrs::edge {

namespace {
[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// Blocks until the fd is ready for `events` (POLLIN/POLLOUT) or the
/// deadline expires. Throws TimeoutError on expiry.
void wait_ready(int fd, short events, const Deadline& deadline,
                const char* what) {
  if (deadline.is_infinite()) return;  // plain blocking I/O
  for (;;) {
    const double remaining = deadline.remaining_ms();
    if (remaining <= 0.0) {
      throw TimeoutError(std::string(what) + " deadline expired");
    }
    pollfd pfd{fd, events, 0};
    const int timeout_ms =
        static_cast<int>(std::min(remaining + 1.0, 1e9));  // ceil-ish
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (n > 0) return;  // readable/writable (or error -- recv/send reports)
  }
}

std::atomic<FaultInjector*> g_active_injector{nullptr};
}  // namespace

Deadline Deadline::after_ms(double ms) {
  Deadline d;
  d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(ms));
  return d;
}

bool Deadline::expired() const {
  return at_.has_value() && Clock::now() >= *at_;
}

double Deadline::remaining_ms() const {
  if (!at_.has_value()) return 1e18;
  const double ms =
      std::chrono::duration<double, std::milli>(*at_ - Clock::now()).count();
  return std::max(ms, 0.0);
}

FaultInjector::FaultInjector(const sim::FaultSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  spec_.validate();
}

FaultInjector::Action FaultInjector::next_send_action() {
  MutexLock lock(mutex_);
  if (rng_.bernoulli(spec_.close_prob)) {
    ++connections_closed_;
    return Action::kCloseMidFrame;
  }
  if (rng_.bernoulli(spec_.drop_prob)) {
    ++frames_dropped_;
    return Action::kDrop;
  }
  if (rng_.bernoulli(spec_.delay_prob)) {
    ++frames_delayed_;
    return Action::kDelay;
  }
  return Action::kNone;
}

FaultInjector::Scope::Scope(FaultInjector& injector) {
  FaultInjector* expected = nullptr;
  const bool installed =
      g_active_injector.compare_exchange_strong(expected, &injector);
  LCRS_CHECK(installed, "a FaultInjector is already installed");
}

FaultInjector::Scope::~Scope() { g_active_injector.store(nullptr); }

FaultInjector* FaultInjector::active() { return g_active_injector.load(); }

Socket::~Socket() { close_now(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close_now();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close_now() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_now() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::send_all(const void* data, std::size_t size,
                      const Deadline& deadline) const {
  LCRS_CHECK(valid(), "send on invalid socket");
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    wait_ready(fd_, POLLOUT, deadline, "send");
    const ssize_t n = ::send(fd_, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool Socket::recv_all(void* data, std::size_t size,
                      const Deadline& deadline) const {
  LCRS_CHECK(valid(), "recv on invalid socket");
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < size) {
    wait_ready(fd_, POLLIN, deadline, "recv");
    const ssize_t n = ::recv(fd_, p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF before any bytes
      throw IoError("connection closed mid-message");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

std::size_t Socket::recv_some(void* data, std::size_t size,
                              const Deadline& deadline) const {
  LCRS_CHECK(valid(), "recv on invalid socket");
  LCRS_CHECK(size > 0, "recv_some needs a non-empty buffer");
  for (;;) {
    wait_ready(fd_, POLLIN, deadline, "recv");
    const ssize_t n = ::recv(fd_, data, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    return static_cast<std::size_t>(n);  // 0 = EOF
  }
}

void Socket::send_frame(const Frame& frame, const Deadline& deadline) const {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  if (FaultInjector* fi = FaultInjector::active()) {
    switch (fi->next_send_action()) {
      case FaultInjector::Action::kDrop:
        return;  // frame vanishes; the peer simply never sees it
      case FaultInjector::Action::kCloseMidFrame: {
        // Leak a partial header so the peer observes a mid-message EOF,
        // the worst-case desync a real broken link produces.
        const std::size_t partial = std::min<std::size_t>(4, bytes.size());
        send_all(bytes.data(), partial, deadline);
        shutdown_now();
        throw IoError("fault injector closed connection mid-frame");
      }
      case FaultInjector::Action::kDelay:
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(fi->delay_ms()));
        break;
      case FaultInjector::Action::kNone:
        break;
    }
  }
  send_all(bytes.data(), bytes.size(), deadline);
}

std::optional<Frame> Socket::recv_frame(const Deadline& deadline) const {
  std::uint8_t header[kFrameHeaderBytes];
  if (!recv_all(header, kFrameHeaderBytes, deadline)) return std::nullopt;
  Frame f;
  const std::uint32_t payload_size =
      parse_frame_header(header, &f.type, &f.model_id, &f.trace_id);
  f.payload.resize(payload_size);
  if (payload_size > 0 &&
      !recv_all(f.payload.data(), payload_size, deadline)) {
    throw IoError("connection closed mid-frame");
  }
  return f;
}

Listener::Listener(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sock_ = Socket(fd);

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno("bind");
  }
  // A burst of concurrent clients can out-race the accept loop; if the
  // backlog overflows, the kernel silently drops the excess SYNs and each
  // affected client stalls for a full 1 s retransmit timeout before its
  // connect completes. Size the queue for serving-scale bursts.
  if (::listen(fd, 128) < 0) throw_errno("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

Socket Listener::accept_one() const {
  const int fd = ::accept(sock_.fd(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EBADF || errno == EINVAL) return Socket();  // shut down
    throw_errno("accept");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

void Listener::shutdown_now() {
  // shutdown(2) only, never close(2): the acceptor thread may be blocked
  // in accept() on this very fd, and closing would race it (and could
  // even redirect the accept onto a recycled descriptor). shutdown wakes
  // the accept with EINVAL; the fd is released by the destructor once the
  // acceptor thread has been joined.
  sock_.shutdown_now();
}

Socket connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket sock(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    throw_errno("connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

}  // namespace lcrs::edge
