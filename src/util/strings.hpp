// String helpers shared across CARAML, including the jpwr-style
// `%q{VARIABLE}` environment expansion used for result-file suffixes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace caraml::str {

/// Split `s` on `sep`; empty fields are kept. split("a,,b", ',') -> {a,"",b}.
std::vector<std::string> split(const std::string& s, char sep);

/// Split on any whitespace run; empty fields are dropped.
std::vector<std::string> split_ws(const std::string& s);

std::string join(const std::vector<std::string>& parts, const std::string& sep);

std::string trim(const std::string& s);
std::string ltrim(const std::string& s);
std::string rtrim(const std::string& s);

bool starts_with(const std::string& s, const std::string& prefix);
bool ends_with(const std::string& s, const std::string& suffix);
bool contains(const std::string& s, const std::string& needle);

std::string to_lower(const std::string& s);
std::string to_upper(const std::string& s);

/// Replace every occurrence of `from` with `to`.
std::string replace_all(std::string s, const std::string& from,
                        const std::string& to);

/// Expand jpwr's `%q{VAR}` escapes from the process environment. Unknown
/// variables expand to "". A literal "%%" produces "%".
std::string expand_env(const std::string& s);

/// Substitute `${name}`-style placeholders from an ordered (name, value) list
/// (JUBE-style parameter substitution). Unknown names are left untouched.
std::string substitute(
    const std::string& s,
    const std::vector<std::pair<std::string, std::string>>& values);

/// FNV-1a 64 of `bytes`, continuing from `hash` (by default the standard
/// offset basis), so several fields can feed one hash. Fingerprints on disk
/// (checkpoints, sweep caches, manifests) are built from it.
inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t hash = kFnv1a64Offset);

/// `value` as 16 lowercase hex digits.
std::string hex16(std::uint64_t value);

/// Parse helpers; throw caraml::ParseError on malformed input.
long long parse_int(const std::string& s);
double parse_double(const std::string& s);
bool parse_bool(const std::string& s);

}  // namespace caraml::str
