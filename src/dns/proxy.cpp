#include "dns/proxy.hpp"

#include "net/error.hpp"

namespace drongo::dns {

LdnsProxy::LdnsProxy(DnsTransport* upstream_transport, net::Ipv4Addr upstream_address,
                     net::Ipv4Addr proxy_address, SubnetSelector* selector)
    : upstream_(upstream_transport),
      upstream_address_(upstream_address),
      proxy_address_(proxy_address),
      selector_(selector) {
  if (upstream_ == nullptr) throw net::InvalidArgument("null upstream transport");
}

Message LdnsProxy::handle(const Message& query, net::Ipv4Addr source) {
  if (query.questions.empty()) {
    return Message::make_response(query, Rcode::kFormErr);
  }

  // The client's own subnet: from an explicit ECS option if the stub sent
  // one, else from the transport source address, truncated to /24 per the
  // RFC's privacy guidance.
  net::Prefix client_subnet = net::Prefix(source, 24);
  if (query.edns && query.edns->client_subnet &&
      query.edns->client_subnet->is_representable()) {
    // Family 1 passes through; a family-2 subnet participates when it has a
    // v4 meaning (v4-mapped or the sim embedding), else the source /24
    // stands in — never a zeroed generic scope.
    if (const auto v4 = net::effective_v4_subnet(
            query.edns->client_subnet->source_prefix())) {
      client_subnet = *v4;
    }
  }

  net::Prefix announce = client_subnet;
  bool did_assimilate = false;
  if (selector_ != nullptr) {
    if (auto chosen = selector_->select_subnet(query.questions[0].name, client_subnet)) {
      announce = *chosen;
      did_assimilate = true;
    }
  }

  Message forwarded = query;
  forwarded.set_client_subnet(ClientSubnet::for_subnet(announce));

  forwarded_.fetch_add(1, std::memory_order_relaxed);
  if (did_assimilate) assimilated_.fetch_add(1, std::memory_order_relaxed);

  Message reply;
  try {
    const auto reply_wire =
        upstream_->exchange(proxy_address_, upstream_address_, forwarded.encode());
    reply = Message::decode(reply_wire);
  } catch (const net::TransientError&) {
    // The upstream recursive is unreachable or timing out. A proxy cannot
    // fix that; it answers SERVFAIL so the stub's own retry/backoff policy
    // decides what happens next (RFC 1035 rcode 2 semantics).
    upstream_failures_.fetch_add(1, std::memory_order_relaxed);
    return Message::make_response(query, Rcode::kServFail);
  }

  // Restore the client's view: the stub should see its own subnet echoed,
  // not the assimilated one (assimilation is invisible to applications).
  reply.header.id = query.header.id;
  if (query.edns && query.edns->client_subnet) {
    ClientSubnet echo = *query.edns->client_subnet;
    echo.scope_prefix_length =
        reply.edns && reply.edns->client_subnet
            ? reply.edns->client_subnet->scope_prefix_length
            : echo.source_prefix_length;
    reply.set_client_subnet(echo);
  } else if (reply.edns) {
    reply.clear_client_subnet();
  }
  return reply;
}

}  // namespace drongo::dns
