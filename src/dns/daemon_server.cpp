#include "dns/daemon_server.hpp"

#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <unordered_map>

#include "dns/message.hpp"
#include "dns/packet_cache.hpp"
#include "dns/tcp.hpp"
#include "net/clock.hpp"
#include "net/error.hpp"
#include "netio/event_loop.hpp"
#include "netio/socket.hpp"
#include "obs/metrics.hpp"

namespace drongo::dns {

struct DaemonServer::TcpConnection {
  std::vector<std::uint8_t> in;
  std::size_t in_off = 0;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  bool want_write = false;
  bool peer_closed = false;
  std::uint64_t last_active_ms = 0;
};

struct DaemonServer::Listener {
  std::size_t index;
  netio::EventLoop loop;
  netio::UdpBatch batch;
  int udp_fd = -1;
  int tcp_listen_fd = -1;
  std::vector<std::uint8_t> scratch;  // reply wire buffer, reused per query
  // Per-listener (single-threaded, so lock-free) packet cache, keyed by
  // PacketCache::make_key; the id is patched back in on a hit. `key` is
  // reused so cache probes allocate nothing once its capacity settles.
  PacketCache packet_cache;
  std::vector<std::uint8_t> key;
  std::unordered_map<int, TcpConnection> connections;
  bool draining = false;  // loop-thread state, set by the posted drain task
  std::thread thread;

  Listener(std::size_t idx, const DaemonServerConfig& config)
      : index(idx),
        batch(config.batch, config.max_datagram_bytes),
        packet_cache(config.packet_cache_entries, config.packet_cache_ttl_ms) {}
};

DaemonServer::DaemonServer(DnsServer* handler, DaemonServerConfig config,
                           net::Ipv4Addr server_identity, obs::Registry* registry)
    : handler_(handler), identity_(server_identity), config_(config), registry_(registry) {
  if (handler_ == nullptr) throw net::InvalidArgument("null DnsServer");
  config_.listeners = std::max<std::size_t>(config_.listeners, 1);
  config_.batch = std::max<std::size_t>(config_.batch, 1);
  // 512 is the classic DNS floor; anything below it cannot carry answers.
  config_.max_datagram_bytes = std::max<std::size_t>(config_.max_datagram_bytes, 512);

  listeners_.reserve(config_.listeners);
  for (std::size_t i = 0; i < config_.listeners; ++i) {
    auto listener = std::make_unique<Listener>(i, config_);
    std::uint16_t bound = 0;
    // Listener 0 resolves an ephemeral request; the rest join its port.
    listener->udp_fd = netio::open_udp_reuseport(
        i == 0 ? config_.udp_port : udp_port_, &bound, config_.dual_stack);
    if (i == 0) udp_port_ = bound;
    listener->loop.set_registry(registry_);
    Listener* raw = listener.get();
    listener->loop.add_fd(listener->udp_fd, EPOLLIN,
                          [this, raw](std::uint32_t) { on_udp_ready(*raw); });
    listeners_.push_back(std::move(listener));
  }

  if (config_.enable_tcp) {
    Listener* first = listeners_.front().get();
    first->tcp_listen_fd = netio::open_tcp_listener(config_.tcp_port, &tcp_port_,
                                                    /*backlog=*/128, config_.dual_stack);
    first->loop.add_fd(first->tcp_listen_fd, EPOLLIN,
                       [this, first](std::uint32_t) { on_tcp_accept(*first); });
    arm_idle_sweep(*first);
  }

  for (auto& listener : listeners_) {
    Listener* raw = listener.get();
    raw->thread = std::thread([this, raw] {
      if (config_.pin_threads) {
        netio::pin_thread_to_cpu(static_cast<unsigned>(raw->index));
      }
      raw->loop.run();
    });
  }
}

DaemonServer::~DaemonServer() { stop(); }

void DaemonServer::begin_drain() {
  bool expected = false;
  if (!drain_started_.compare_exchange_strong(expected, true)) return;
  for (auto& listener : listeners_) {
    Listener* raw = listener.get();
    raw->loop.post([this, raw] { drain_listener(*raw); });
  }
}

void DaemonServer::stop() {
  begin_drain();
  for (auto& listener : listeners_) {
    if (listener->thread.joinable()) listener->thread.join();
  }
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;
  // The loops have exited; release anything the drain grace cut short.
  for (auto& listener : listeners_) {
    for (auto& [fd, conn] : listener->connections) ::close(fd);
    listener->connections.clear();
    if (listener->udp_fd >= 0) ::close(listener->udp_fd);
    if (listener->tcp_listen_fd >= 0) ::close(listener->tcp_listen_fd);
    listener->udp_fd = listener->tcp_listen_fd = -1;
  }
  mirror_stats_to_registry();
}

DaemonStats DaemonServer::stats() const {
  DaemonStats out;
#define DRONGO_DAEMON_LOAD_FIELD(field) \
  out.field = stats_.field.load(std::memory_order_relaxed);
  DRONGO_OBS_DNS_SERVER_COUNTERS(DRONGO_DAEMON_LOAD_FIELD)
#undef DRONGO_DAEMON_LOAD_FIELD
  return out;
}

void DaemonServer::mirror_stats_to_registry() {
  if (registry_ == nullptr) return;
#define DRONGO_DAEMON_MIRROR_FIELD(field)                  \
  registry_->add(obs::counter_name("dns.server.", #field), \
                 stats_.field.load(std::memory_order_relaxed));
  DRONGO_OBS_DNS_SERVER_COUNTERS(DRONGO_DAEMON_MIRROR_FIELD)
#undef DRONGO_DAEMON_MIRROR_FIELD
}

bool DaemonServer::answer_wire(Listener& listener, std::span<const std::uint8_t> wire,
                               bool udp, bool during_drain, std::uint64_t now_ms,
                               std::vector<std::uint8_t>& out) {
  // Packet-cache probe: identical query bytes (id aside) get identical reply
  // bytes, so a hit is a memcpy plus a 2-byte id patch — the resolver, the
  // codec, and every per-query allocation are skipped entirely.
  const bool cacheable = config_.packet_cache_entries > 0 && wire.size() >= 12;
  if (cacheable) {
    PacketCache::make_key(wire, udp, listener.key);
    const auto hit = listener.packet_cache.find(listener.key, now_ms);
    if (!hit.empty()) {
      out.assign(hit.begin(), hit.end());
      out[0] = wire[0];
      out[1] = wire[1];
      stats_.pcache_hits.fetch_add(1, std::memory_order_relaxed);
      if (during_drain) stats_.drained.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    stats_.pcache_misses.fetch_add(1, std::memory_order_relaxed);
  }

  Message query;
  try {
    query = Message::decode(wire);
  } catch (const net::Error&) {
    stats_.malformed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Message reply;
  bool handler_failed = false;
  try {
    reply = handler_->handle(query, identity_);
  } catch (const net::Error&) {
    // The resolver path signals overload/upstream failure via the error
    // taxonomy; a wire client must still get an answer.
    stats_.handler_failures.fetch_add(1, std::memory_order_relaxed);
    handler_failed = true;
    reply = Message::make_response(query, Rcode::kServFail);
  }
  // Encode straight into the caller's scratch, then truncate only when the
  // wire actually overflows the UDP limit — the fitting case (nearly every
  // reply) pays exactly one encode and zero allocations.
  reply.encode_to(out);
  if (udp) {
    const std::size_t limit =
        std::min(max_udp_payload(query), config_.max_datagram_bytes);
    if (out.size() > limit) {
      truncate_to_fit(reply, limit);
      stats_.truncated.fetch_add(1, std::memory_order_relaxed);
      reply.encode_to(out);
    }
  }
  // Only clean NOERROR answers are cached: SERVFAIL (including CoDel
  // shedding) and other error rcodes must re-consult the resolver so that
  // transient failure never sticks for a TTL.
  if (cacheable && !handler_failed && reply.header.rcode == Rcode::kNoError) {
    listener.packet_cache.store(listener.key, out, now_ms);
  }
  if (during_drain) stats_.drained.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void DaemonServer::on_udp_ready(Listener& listener) {
  if (listener.udp_fd < 0) return;
  // Edge-triggered: drain the socket to EAGAIN before returning.
  for (;;) {
    const std::size_t count = listener.batch.receive(listener.udp_fd);
    if (count == 0) break;
    stats_.udp_batches.fetch_add(1, std::memory_order_relaxed);
    process_datagrams(listener, count);
  }
}

void DaemonServer::process_datagrams(Listener& listener, std::size_t count) {
  // One clock read per recvmmsg batch serves every packet-cache probe and
  // store in it.
  const std::uint64_t now_ms = net::steady_now_ms();
  for (std::size_t i = 0; i < count; ++i) {
    if (!answer_wire(listener, listener.batch.payload(i), /*udp=*/true,
                     listener.draining, now_ms, listener.scratch)) {
      continue;
    }
    stats_.udp_queries.fetch_add(1, std::memory_order_relaxed);
    if (listener.scratch.size() > listener.batch.datagram_capacity()) continue;
    if (listener.batch.staged() == listener.batch.batch_size()) {
      const std::size_t sent = listener.batch.flush(listener.udp_fd);
      stats_.udp_responses.fetch_add(sent, std::memory_order_relaxed);
      served_.fetch_add(sent, std::memory_order_relaxed);
    }
    listener.batch.stage(listener.batch.source(i), listener.batch.source_len(i),
                         listener.scratch);
  }
  const std::size_t sent = listener.batch.flush(listener.udp_fd);
  stats_.udp_responses.fetch_add(sent, std::memory_order_relaxed);
  served_.fetch_add(sent, std::memory_order_relaxed);
}

void DaemonServer::on_tcp_accept(Listener& listener) {
  if (listener.tcp_listen_fd < 0) return;
  for (;;) {
    const int fd = netio::accept_nonblocking(listener.tcp_listen_fd);
    if (fd < 0) break;
    stats_.tcp_connections.fetch_add(1, std::memory_order_relaxed);
    TcpConnection& conn = listener.connections[fd];
    conn.last_active_ms = net::steady_now_ms();
    listener.loop.add_fd(fd, EPOLLIN, [this, &listener, fd](std::uint32_t events) {
      on_tcp_event(listener, fd, events);
    });
  }
}

void DaemonServer::on_tcp_event(Listener& listener, int fd, std::uint32_t events) {
  auto it = listener.connections.find(fd);
  if (it == listener.connections.end()) return;
  TcpConnection& conn = it->second;
  conn.last_active_ms = net::steady_now_ms();
  bool ok = (events & (EPOLLHUP | EPOLLERR)) == 0;
  if (ok && (events & EPOLLIN) != 0) {
    std::uint8_t buffer[4096];
    for (;;) {
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n > 0) {
        conn.in.insert(conn.in.end(), buffer, buffer + n);
        continue;
      }
      if (n == 0) {
        conn.peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
  }
  if (ok) {
    process_tcp_frames(listener, conn, conn.last_active_ms);
    ok = !conn.peer_closed || !conn.out.empty();  // keep only to finish writes
    if (!flush_tcp(listener, conn, fd)) ok = false;
  }
  const bool flushed = conn.out_off >= conn.out.size();
  if (!ok || (conn.peer_closed && flushed)) {
    close_tcp(listener, fd);
  }
  if (listener.draining) finish_drain_if_quiet(listener);
}

void DaemonServer::process_tcp_frames(Listener& listener, TcpConnection& conn,
                                      std::uint64_t now_ms) {
  for (;;) {
    const std::size_t avail = conn.in.size() - conn.in_off;
    if (avail < 2) break;
    const std::size_t frame_len =
        (static_cast<std::size_t>(conn.in[conn.in_off]) << 8) |
        static_cast<std::size_t>(conn.in[conn.in_off + 1]);
    if (avail < 2 + frame_len) break;
    const std::span<const std::uint8_t> wire(conn.in.data() + conn.in_off + 2,
                                             frame_len);
    conn.in_off += 2 + frame_len;
    if (!answer_wire(listener, wire, /*udp=*/false, listener.draining, now_ms,
                     listener.scratch)) {
      // A garbage frame means the stream cannot be trusted to re-sync;
      // drop the connection, as for any framing violation.
      conn.peer_closed = true;
      conn.out.clear();
      conn.out_off = 0;
      break;
    }
    const std::vector<std::uint8_t>& reply = listener.scratch;
    stats_.tcp_queries.fetch_add(1, std::memory_order_relaxed);
    if (reply.size() > 0xFFFF) {
      stats_.handler_failures.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    conn.out.push_back(static_cast<std::uint8_t>(reply.size() >> 8));
    conn.out.push_back(static_cast<std::uint8_t>(reply.size() & 0xFF));
    conn.out.insert(conn.out.end(), reply.begin(), reply.end());
    // Counted at staging: the drain path guarantees staged bytes are
    // flushed (or the grace timer expires and the client sees a reset).
    stats_.tcp_responses.fetch_add(1, std::memory_order_relaxed);
    served_.fetch_add(1, std::memory_order_relaxed);
  }
  if (conn.in_off > 0) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_off));
    conn.in_off = 0;
  }
}

bool DaemonServer::flush_tcp(Listener& listener, TcpConnection& conn, int fd) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!conn.want_write) {
        listener.loop.modify_fd(fd, EPOLLIN | EPOLLOUT);
        conn.want_write = true;
      }
      return true;
    }
    if (errno == EINTR) continue;
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.want_write) {
    listener.loop.modify_fd(fd, EPOLLIN);
    conn.want_write = false;
  }
  return true;
}

void DaemonServer::close_tcp(Listener& listener, int fd) {
  listener.loop.remove_fd(fd);
  ::close(fd);
  listener.connections.erase(fd);
}

void DaemonServer::arm_idle_sweep(Listener& listener) {
  if (config_.tcp_idle_timeout_ms == 0) return;
  Listener* raw = &listener;
  listener.loop.add_timer(config_.tcp_idle_timeout_ms / 2 + 1, [this, raw] {
    if (raw->draining) return;
    const std::uint64_t now = net::steady_now_ms();
    std::vector<int> idle;
    for (const auto& [fd, conn] : raw->connections) {
      if (now - conn.last_active_ms >= config_.tcp_idle_timeout_ms &&
          conn.out_off >= conn.out.size()) {
        idle.push_back(fd);
      }
    }
    for (const int fd : idle) close_tcp(*raw, fd);
    arm_idle_sweep(*raw);
  });
}

void DaemonServer::drain_listener(Listener& listener) {
  listener.draining = true;
  // Answer everything the kernel queued before intake stops: sweep the UDP
  // socket to EAGAIN, then close it so no new datagrams land.
  if (listener.udp_fd >= 0) {
    for (;;) {
      const std::size_t count = listener.batch.receive(listener.udp_fd);
      if (count == 0) break;
      stats_.udp_batches.fetch_add(1, std::memory_order_relaxed);
      process_datagrams(listener, count);
    }
    listener.loop.remove_fd(listener.udp_fd);
    ::close(listener.udp_fd);
    listener.udp_fd = -1;
  }
  if (listener.tcp_listen_fd >= 0) {
    listener.loop.remove_fd(listener.tcp_listen_fd);
    ::close(listener.tcp_listen_fd);
    listener.tcp_listen_fd = -1;
  }
  if (!listener.connections.empty()) {
    Listener* raw = &listener;
    listener.loop.add_timer(config_.drain_grace_ms, [this, raw] {
      std::vector<int> fds;
      fds.reserve(raw->connections.size());
      for (const auto& [fd, conn] : raw->connections) fds.push_back(fd);
      for (const int fd : fds) close_tcp(*raw, fd);
      raw->loop.stop();
    });
  }
  finish_drain_if_quiet(listener);
}

void DaemonServer::finish_drain_if_quiet(Listener& listener) {
  if (!listener.draining) return;
  for (const auto& [fd, conn] : listener.connections) {
    if (conn.out_off < conn.out.size()) return;  // still flushing a reply
  }
  std::vector<int> fds;
  fds.reserve(listener.connections.size());
  for (const auto& [fd, conn] : listener.connections) fds.push_back(fd);
  for (const int fd : fds) close_tcp(listener, fd);
  listener.loop.stop();
}

}  // namespace drongo::dns
