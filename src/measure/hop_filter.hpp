// Usable-hop filtering (paper §3.1).
#pragma once

#include <string_view>
#include <vector>

#include "net/ipaddr.hpp"
#include "topology/world.hpp"

namespace drongo::measure {

/// The three usability conditions of §3.1 — a hop must
///  (i)   belong to a different /16 than the client,
///  (ii)  have a different (registrable) domain than the client,
///  (iii) belong to a different ASN than the client —
/// applied with the paper's prefix rule: hops failing the conditions are
/// filtered only at the BEGINNING of the route; once one hop passes, the
/// remainder of the route is kept. Private, unresponsive, and otherwise
/// unidentifiable hops are never usable (their ECS answers are generic).
struct HopFilterConfig {
  bool require_different_slash16 = true;
  bool require_different_domain = true;
  bool require_different_asn = true;
  /// Apply the "stop filtering after the first usable hop" rule. Disabling
  /// it (filter every hop) is the stricter ablation variant.
  bool stop_after_first_usable = true;
};

/// A traceroute hop in either address family — the dual-stack view the
/// filter core works on. v4 traceroutes are adapted into this shape by the
/// legacy overload below.
struct IpHop {
  net::IpAddr ip;
  std::string_view rdns;  ///< a view: the name must outlive the hop
  net::Asn asn;
  bool is_private = false;
  bool responded = true;
};

/// Per-hop usability flags for a traceroute, relative to the client.
/// Family-aware: condition (i)'s "/16" is the client's /16 for v4 and /32
/// for v6 (the conventional per-site allocation); a hop in the other family
/// trivially satisfies it. Bogon space (both families, from the constexpr
/// range tables in net/bogon.hpp) is never usable.
std::vector<bool> usable_hops(const topology::World& world, const net::IpAddr& client,
                              const std::vector<IpHop>& hops,
                              const HopFilterConfig& config = {});

/// v4 adapter preserving the original signature: wraps each TracerouteHop
/// in an IpHop view and runs the family-aware core.
std::vector<bool> usable_hops(const topology::World& world, net::Ipv4Addr client,
                              const std::vector<topology::TracerouteHop>& hops,
                              const HopFilterConfig& config = {});

}  // namespace drongo::measure
