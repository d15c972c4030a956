#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/error.hpp"

namespace caraml::str {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string current;
  for (char c : s) {
    if (c == sep) {
      out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  out.push_back(current);
  return out;
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::string current;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!current.empty()) {
        out.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ltrim(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return s.substr(i);
}

std::string rtrim(const std::string& s) {
  std::size_t end = s.size();
  while (end > 0 && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(0, end);
}

std::string trim(const std::string& s) { return ltrim(rtrim(s)); }

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

std::string to_lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string to_upper(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  if (from.empty()) return s;
  std::size_t pos = 0;
  while ((pos = s.find(from, pos)) != std::string::npos) {
    s.replace(pos, from.size(), to);
    pos += to.size();
  }
  return s;
}

std::string expand_env(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 1 < s.size() && s[i + 1] == '%') {
      out.push_back('%');
      ++i;
      continue;
    }
    if (s[i] == '%' && i + 2 < s.size() && s[i + 1] == 'q' && s[i + 2] == '{') {
      const std::size_t close = s.find('}', i + 3);
      if (close == std::string::npos) {
        throw ParseError("unterminated %q{...} in: " + s);
      }
      const std::string name = s.substr(i + 3, close - (i + 3));
      const char* value = std::getenv(name.c_str());
      if (value != nullptr) out += value;
      i = close;
      continue;
    }
    out.push_back(s[i]);
  }
  return out;
}

std::string substitute(
    const std::string& s,
    const std::vector<std::pair<std::string, std::string>>& values) {
  std::string out = s;
  for (const auto& [name, value] : values) {
    out = replace_all(out, "${" + name + "}", value);
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

long long parse_int(const std::string& s) {
  const std::string t = trim(s);
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(t, &pos);
    if (pos != t.size()) throw ParseError("trailing characters in int: " + s);
    return v;
  } catch (const std::invalid_argument&) {
    throw ParseError("not an integer: " + s);
  } catch (const std::out_of_range&) {
    throw ParseError("integer out of range: " + s);
  }
}

double parse_double(const std::string& s) {
  const std::string t = trim(s);
  try {
    std::size_t pos = 0;
    const double v = std::stod(t, &pos);
    if (pos != t.size()) throw ParseError("trailing characters in double: " + s);
    return v;
  } catch (const std::invalid_argument&) {
    throw ParseError("not a number: " + s);
  } catch (const std::out_of_range&) {
    throw ParseError("number out of range: " + s);
  }
}

bool parse_bool(const std::string& s) {
  const std::string t = to_lower(trim(s));
  if (t == "true" || t == "1" || t == "yes" || t == "on") return true;
  if (t == "false" || t == "0" || t == "no" || t == "off") return false;
  throw ParseError("not a boolean: " + s);
}

}  // namespace caraml::str
