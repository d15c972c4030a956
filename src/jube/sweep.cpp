#include "jube/sweep.hpp"

#include <filesystem>

#include "telemetry/json.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace caraml::jube {

namespace {

// The offset basis sweep fingerprints have always started from: the
// standard FNV-1a 64 basis (14695981039346656037) without its last decimal
// digit. Cached fingerprints on disk depend on it, so it stays.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// Hash one field followed by a unit separator, so adjacent fields cannot
/// alias ("ab" + "c" vs "a" + "bc").
void feed(std::uint64_t& hash, const std::string& field) {
  hash = str::fnv1a64("\x1f", str::fnv1a64(field, hash));
}

constexpr int kCacheSchemaVersion = 1;

telemetry::json::Value to_json_object(
    const std::map<std::string, std::string>& entries) {
  telemetry::json::Value object{telemetry::json::Object{}};
  for (const auto& [key, value] : entries) object.set(key, value);
  return object;
}

std::string cache_line(const std::string& fingerprint,
                       const std::string& benchmark, const Workpackage& wp) {
  telemetry::json::Value root{telemetry::json::Object{}};
  root.set("schema_version", kCacheSchemaVersion);
  root.set("fingerprint", fingerprint);
  root.set("benchmark", benchmark);
  root.set("status", wp.status);
  root.set("context", to_json_object(wp.context));
  root.set("outputs", to_json_object(wp.outputs));
  root.set("analysed", to_json_object(wp.analysed));
  return telemetry::json::dump(root);
}

Workpackage parse_cache_line(const std::string& line,
                             std::string& fingerprint) {
  const telemetry::json::Value root = telemetry::json::parse(line);
  const int version = static_cast<int>(root.at("schema_version").as_int());
  if (version < 1 || version > kCacheSchemaVersion) {
    throw Error("sweep-cache schema_version " + std::to_string(version) +
                " not supported");
  }
  fingerprint = root.at("fingerprint").as_string();
  Workpackage wp;
  wp.status = root.at("status").as_string();
  for (const auto& [key, value] : root.at("context").as_object()) {
    wp.context[key] = value.as_string();
  }
  for (const auto& [key, value] : root.at("outputs").as_object()) {
    wp.outputs[key] = value.as_string();
  }
  for (const auto& [key, value] : root.at("analysed").as_object()) {
    wp.analysed[key] = value.as_string();
  }
  return wp;
}

}  // namespace

std::string workpackage_fingerprint(
    const std::string& benchmark, const Context& context,
    const std::vector<std::pair<std::string, std::string>>& steps,
    const std::string& extra) {
  std::uint64_t hash = kFnvOffset;
  feed(hash, benchmark);
  for (const auto& [name, value] : context) {
    feed(hash, name);
    feed(hash, value);
  }
  for (const auto& [step, action] : steps) {
    feed(hash, step);
    feed(hash, action);
  }
  feed(hash, extra);
  return str::hex16(hash);
}

void SweepCache::open(const std::string& path) {
  CARAML_CHECK_MSG(!path.empty(), "sweep-cache path must not be empty");
  std::lock_guard<std::mutex> lock(mutex_);
  const std::filesystem::path file(path);
  if (file.has_parent_path()) {
    std::filesystem::create_directories(file.parent_path());
  }
  entries_.clear();
  std::size_t skipped = 0;
  {
    std::ifstream in(path);
    std::string line;
    while (in && std::getline(in, line)) {
      if (line.empty()) continue;
      try {
        std::string fingerprint;
        Workpackage wp = parse_cache_line(line, fingerprint);
        entries_[fingerprint] = std::move(wp);  // last line wins
      } catch (const std::exception&) {
        ++skipped;  // e.g. a line truncated by a crashed writer
      }
    }
  }
  if (skipped > 0) {
    log::warn() << "sweep cache " << path << ": skipped " << skipped
                << " malformed line(s)";
  }
  out_.open(path, std::ios::app);
  if (!out_) throw Error("cannot open sweep cache for append: " + path);
  path_ = path;
  enabled_ = true;
}

std::size_t SweepCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

bool SweepCache::lookup(const std::string& fingerprint,
                        Workpackage& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(fingerprint);
  if (it == entries_.end()) return false;
  out = it->second;
  out.from_cache = true;
  return true;
}

void SweepCache::append(const std::string& fingerprint,
                        const std::string& benchmark, const Workpackage& wp) {
  const std::string line = cache_line(fingerprint, benchmark, wp);
  std::lock_guard<std::mutex> lock(mutex_);
  CARAML_CHECK_MSG(enabled_, "append on a closed sweep cache");
  out_ << line << "\n";
  out_.flush();  // a crashed sweep keeps every completed workpackage
  entries_[fingerprint] = wp;
}

}  // namespace caraml::jube
