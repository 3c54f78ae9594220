// The socket-facing DNS daemon: batched UDP + framed TCP over an EventLoop.
//
// This is the serving front end the ROADMAP calls for — the piece that
// turns the in-process resolver core into something a real stub (or `dig`)
// can hit. Each listener thread owns a netio::EventLoop and a SO_REUSEPORT
// UDP socket, so the kernel spreads inbound flows across listeners and
// each listener can be pinned to a core (aligning with ShardedDnsCache's
// lock striping). Datagrams move in recvmmsg/sendmmsg batches through
// preallocated buffers, are decoded by the dns::message codec, answered by
// any DnsServer (in production: cdn::PublicResolver, so coalescing,
// negative caching, hedging, and CoDel shedding apply unchanged), and
// truncated to the client's advertised payload per RFC 1035 — with a TCP
// acceptor on listener 0 carrying the length-prefixed retry path.
//
// Naming note: this class is the *network* daemon. The older
// `core::DrongoDaemon` (src/core/daemon.hpp) is the in-process
// clock-driven *trial scheduler* on the client side of the paper's
// pipeline; the two share nothing but the word. Grep-friendly rule:
// `DaemonServer` listens on sockets, `DrongoDaemon` schedules trials.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "dns/server.hpp"
#include "obs/schema.hpp"

namespace drongo::obs {
class Registry;
}

namespace drongo::dns {

/// Tuning for the serving daemon; every field maps to a DRONGO_DAEMON_*
/// knob in tools/drongo_daemond.cpp.
struct DaemonServerConfig {
  /// UDP serving port; 0 picks an ephemeral port shared by all listeners.
  std::uint16_t udp_port = 0;
  /// TCP fallback port; 0 = ephemeral. Ignored when enable_tcp is false.
  std::uint16_t tcp_port = 0;
  /// Number of UDP listener threads sharing the port via SO_REUSEPORT.
  std::size_t listeners = 1;
  /// recvmmsg/sendmmsg batch size per syscall.
  std::size_t batch = 32;
  /// Per-datagram buffer bound; also caps the UDP payload the daemon will
  /// send even to clients advertising more (responses above it truncate).
  std::size_t max_datagram_bytes = 4096;
  /// Serve the TC→TCP retry path on listener 0.
  bool enable_tcp = true;
  /// Bind AF_INET6 sockets on [::] with IPV6_V6ONLY cleared instead of
  /// 127.0.0.1-only v4 sockets: v6 clients are answered natively (their
  /// family-2 ECS flows through the resolver unchanged) and v4 clients
  /// arrive v4-mapped on the same fd. Off by default — the historical
  /// loopback-v4 daemon.
  bool dual_stack = false;
  /// Pin listener i to CPU i (mod online CPUs); best-effort.
  bool pin_threads = false;
  /// Whole-packet cache capacity per listener; 0 disables it. The cache
  /// keys on the exact query wire (id aside), so a hit copies the cached
  /// reply and patches the id without touching the resolver — the standard
  /// front-end packet cache (cf. dnsdist). Only NOERROR answers are cached,
  /// so SERVFAIL shedding and error paths always re-consult the resolver.
  std::size_t packet_cache_entries = 8192;
  /// Packet-cache entry lifetime. Short by design: answer TTLs inside a
  /// cached reply are not decremented, so this bounds their staleness.
  std::uint32_t packet_cache_ttl_ms = 1'000;
  /// Idle TCP connections are reaped after this long.
  std::uint32_t tcp_idle_timeout_ms = 10'000;
  /// Drain bound: TCP connections get this long to flush pending writes
  /// after begin_drain() before being closed forcibly.
  std::uint32_t drain_grace_ms = 1'000;
};

/// Counter snapshot mirroring the `dns.server.*` schema fields.
struct DaemonStats {
  DRONGO_OBS_DNS_SERVER_COUNTERS(DRONGO_OBS_DECLARE_FIELD)
};

/// Serves a DnsServer over real loopback sockets, asynchronously.
///
/// Lifecycle: the constructor binds sockets and starts the listener
/// threads; begin_drain() (idempotent, thread-safe — wire it to SIGTERM)
/// stops intake, answers everything the kernel has already queued, and
/// flushes pending TCP writes before the loops exit; stop() drains and
/// joins. The handler is borrowed, must outlive the daemon, and must be
/// safe for concurrent handle() calls when listeners > 1.
class DaemonServer {
 public:
  DaemonServer(DnsServer* handler, DaemonServerConfig config = {},
               net::Ipv4Addr server_identity = net::Ipv4Addr(127, 0, 0, 1),
               obs::Registry* registry = nullptr);
  ~DaemonServer();

  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  /// The bound UDP serving port (after ephemeral resolution).
  [[nodiscard]] std::uint16_t udp_port() const { return udp_port_; }

  /// The bound TCP fallback port; 0 when TCP is disabled.
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

  /// Responses actually handed to the kernel (UDP sent + TCP flushed).
  [[nodiscard]] std::uint64_t served() const {
    return served_.load(std::memory_order_relaxed);
  }

  /// Stops intake and answers/flushes all in-flight work. Thread- and
  /// signal-dispatch-safe (callable from a signalfd handler); idempotent.
  void begin_drain();

  /// begin_drain() plus join; after this the sockets are closed. Idempotent.
  void stop();

  /// Counter snapshot (relaxed reads; exact once stopped).
  [[nodiscard]] DaemonStats stats() const;

 private:
  struct AtomicStats {
#define DRONGO_DAEMON_ATOMIC_FIELD(field) std::atomic<std::uint64_t> field{0};
    DRONGO_OBS_DNS_SERVER_COUNTERS(DRONGO_DAEMON_ATOMIC_FIELD)
#undef DRONGO_DAEMON_ATOMIC_FIELD
  };

  struct Listener;
  struct TcpConnection;

  void on_udp_ready(Listener& listener);
  void process_datagrams(Listener& listener, std::size_t count);
  void on_tcp_accept(Listener& listener);
  void on_tcp_event(Listener& listener, int fd, std::uint32_t events);
  void process_tcp_frames(Listener& listener, TcpConnection& connection,
                          std::uint64_t now_ms);
  bool flush_tcp(Listener& listener, TcpConnection& connection, int fd);
  void close_tcp(Listener& listener, int fd);
  void arm_idle_sweep(Listener& listener);
  void drain_listener(Listener& listener);
  void finish_drain_if_quiet(Listener& listener);
  void mirror_stats_to_registry();

  /// Decode + handle + encode for one wire query, writing the reply into
  /// `out` (cleared and reused — the hot path allocates nothing per query).
  /// Consults/feeds the listener's packet cache as of `now_ms`. Returns
  /// false on undecodable input (counted as malformed). Handler exceptions
  /// become SERVFAIL.
  bool answer_wire(Listener& listener, std::span<const std::uint8_t> wire,
                   bool udp, bool during_drain, std::uint64_t now_ms,
                   std::vector<std::uint8_t>& out);

  DnsServer* handler_;
  net::Ipv4Addr identity_;
  DaemonServerConfig config_;
  obs::Registry* registry_;
  std::uint16_t udp_port_ = 0;
  std::uint16_t tcp_port_ = 0;
  std::vector<std::unique_ptr<Listener>> listeners_;
  std::atomic<bool> drain_started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> served_{0};
  AtomicStats stats_;
};

}  // namespace drongo::dns
