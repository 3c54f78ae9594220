// Small string helpers shared across libraries.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace drongo::net {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// ASCII lowercase copy (DNS names compare case-insensitively).
std::string to_lower(std::string_view text);

/// Whether `text` holds an ASCII uppercase letter, i.e. whether to_lower
/// would change it.
bool has_upper(std::string_view text);

/// ASCII case-insensitive equality: to_lower(a) == to_lower(b), no copies.
bool iequals(std::string_view a, std::string_view b);

/// True when `name` equals `suffix` or ends with "." + suffix, compared
/// case-insensitively. This is the "same domain" test used by the hop filter:
/// e.g. "r1.isp.example" is under suffix "isp.example".
bool domain_has_suffix(std::string_view name, std::string_view suffix);

/// Registrable-domain heuristic: last two labels of a dotted name
/// ("r7.core.att.net" -> "att.net"), as a view into `name` in its original
/// case (compare with iequals). Names of at most two labels come back whole.
/// Used to compare hop vs client "domain" per the paper's hop filter; our
/// simulated reverse-DNS names have two-label operator domains, so the
/// heuristic is exact here.
std::string_view registrable_domain_view(std::string_view name);

}  // namespace drongo::net
