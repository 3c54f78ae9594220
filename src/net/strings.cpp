#include "net/strings.hpp"

#include <algorithm>
#include <cctype>

namespace drongo::net {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

namespace {
char ascii_lower(char c) { return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c; }
}  // namespace

bool has_upper(std::string_view text) {
  return std::ranges::any_of(text, [](char c) { return c >= 'A' && c <= 'Z'; });
}

bool iequals(std::string_view a, std::string_view b) {
  return std::ranges::equal(a, b, [](char x, char y) { return ascii_lower(x) == ascii_lower(y); });
}

bool domain_has_suffix(std::string_view name, std::string_view suffix) {
  if (suffix.empty()) return true;
  std::string n = to_lower(name);
  std::string s = to_lower(suffix);
  if (n == s) return true;
  if (n.size() <= s.size()) return false;
  return n.ends_with(s) && n[n.size() - s.size() - 1] == '.';
}

std::string_view registrable_domain_view(std::string_view name) {
  // A trailing dot (fully-qualified "name.") ends no label of its own.
  std::string_view body = name;
  if (body.ends_with('.')) body.remove_suffix(1);
  const std::size_t last_dot = body.rfind('.');
  if (last_dot == std::string_view::npos || last_dot == 0) return name;
  const std::size_t second_dot = body.rfind('.', last_dot - 1);
  if (second_dot == std::string_view::npos) return name;
  return body.substr(second_dot + 1);
}

}  // namespace drongo::net
