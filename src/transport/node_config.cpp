#include "transport/node_config.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace ecfd::transport {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool fail(std::string* error, const std::string& reason) {
  if (error) *error = reason;
  return false;
}

bool parse_i64(const std::string& s, std::int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_f64(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_bool(const std::string& s, bool* out) {
  if (s == "true" || s == "1" || s == "yes" || s == "on") {
    *out = true;
    return true;
  }
  if (s == "false" || s == "0" || s == "no" || s == "off") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

std::optional<PeerAddr> parse_peer_addr(const std::string& s) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  PeerAddr a;
  a.host = trim(s.substr(0, colon));
  std::int64_t port = 0;
  if (a.host.empty() || !parse_i64(trim(s.substr(colon + 1)), &port) ||
      port < 1 || port > 65535) {
    return std::nullopt;
  }
  a.port = static_cast<std::uint16_t>(port);
  return a;
}

std::optional<NodeConfig> parse_node_config(const std::string& text,
                                            std::string* error) {
  NodeConfig cfg;
  std::map<int, PeerAddr> peers;

  std::istringstream in(text);
  std::string raw;
  std::string section;
  int lineno = 0;

  const auto bad = [&](const std::string& why) -> std::optional<NodeConfig> {
    fail(error, "config line " + std::to_string(lineno) + ": " + why);
    return std::nullopt;
  };

  while (std::getline(in, raw)) {
    ++lineno;
    // Strip comments ('#' or ';' anywhere outside values we care about —
    // hosts and numbers never contain those characters).
    const auto hash = raw.find_first_of("#;");
    std::string line = trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') return bad("unterminated section header");
      section = trim(line.substr(1, line.size() - 2));
      if (section != "cluster" && section != "peers" && section != "chaos" &&
          section != "net" && section != "kv") {
        return bad("unknown section [" + section + "]");
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) return bad("expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) return bad("empty key or value");

    if (section == "peers") {
      std::int64_t id = 0;
      if (!parse_i64(key, &id) || id < 0 || id > 4096) {
        return bad("bad peer id '" + key + "'");
      }
      const auto addr = parse_peer_addr(value);
      if (!addr) return bad("bad peer address '" + value + "'");
      if (!peers.emplace(static_cast<int>(id), *addr).second) {
        return bad("duplicate peer id " + key);
      }
    } else if (section == "cluster") {
      std::int64_t i = 0;
      if (key == "seed") {
        if (!parse_i64(value, &i) || i < 0) return bad("bad seed");
        cfg.seed = static_cast<std::uint64_t>(i);
      } else if (key == "fd") {
        cfg.fd = value;
      } else if (key == "consensus") {
        if (!parse_bool(value, &cfg.consensus)) return bad("bad consensus flag");
      } else if (key == "period_ms") {
        if (!parse_i64(value, &i) || i <= 0) return bad("bad period_ms");
        cfg.period = msec(i);
      } else if (key == "initial_timeout_ms") {
        if (!parse_i64(value, &i) || i <= 0) return bad("bad initial_timeout_ms");
        cfg.initial_timeout = msec(i);
      } else if (key == "timeout_increment_ms") {
        if (!parse_i64(value, &i) || i < 0) return bad("bad timeout_increment_ms");
        cfg.timeout_increment = msec(i);
      } else if (key == "backend") {
        if (value != "poll" && value != "uring") {
          return bad("backend must be 'poll' or 'uring'");
        }
        cfg.backend = value;
      } else {
        return bad("unknown [cluster] key '" + key + "'");
      }
    } else if (section == "chaos") {
      std::int64_t i = 0;
      if (key == "loss") {
        if (!parse_f64(value, &cfg.loss) || cfg.loss < 0.0 || cfg.loss >= 1.0) {
          return bad("loss must be in [0,1)");
        }
      } else if (key == "min_delay_ms") {
        if (!parse_i64(value, &i) || i < 0) return bad("bad min_delay_ms");
        cfg.min_delay = msec(i);
      } else if (key == "max_delay_ms") {
        if (!parse_i64(value, &i) || i < 0) return bad("bad max_delay_ms");
        cfg.max_delay = msec(i);
      } else {
        return bad("unknown [chaos] key '" + key + "'");
      }
    } else if (section == "net") {
      if (key == "coalesce") {
        if (!parse_bool(value, &cfg.net_coalesce)) return bad("bad coalesce");
      } else {
        return bad("unknown [net] key '" + key + "'");
      }
    } else if (section == "kv") {
      std::int64_t i = 0;
      if (key == "enabled") {
        if (!parse_bool(value, &cfg.kv_enabled)) return bad("bad kv enabled");
      } else if (key == "capacity") {
        // Accepted and ignored, so configs written for a fixed slot
        // budget still load.
        cfg.notes.push_back(
            "[kv] capacity is deprecated and ignored: the log has no slot "
            "budget");
      } else if (key == "pipeline_depth") {
        if (!parse_i64(value, &i) || i <= 0 || i > 256) {
          return bad("bad kv pipeline_depth");
        }
        cfg.kv_pipeline_depth = static_cast<int>(i);
      } else if (key == "batch_max_ops") {
        if (!parse_i64(value, &i) || i <= 0 || i > 448) {
          return bad("bad kv batch_max_ops (1..448)");
        }
        cfg.kv_batch_max_ops = static_cast<int>(i);
      } else if (key == "batch_wait_ms") {
        if (!parse_i64(value, &i) || i < 0) return bad("bad kv batch_wait_ms");
        cfg.kv_batch_wait = msec(i);
      } else if (key == "lease_establish_ms") {
        if (!parse_i64(value, &i) || i < 0) {
          return bad("bad kv lease_establish_ms");
        }
        cfg.kv_lease_establish = msec(i);
      } else if (key == "snapshot_every") {
        if (!parse_i64(value, &i) || i < 0) return bad("bad kv snapshot_every");
        cfg.kv_snapshot_every = static_cast<int>(i);
      } else if (key == "dedup_window") {
        if (!parse_i64(value, &i) || i <= 0 || i > 4096) {
          return bad("bad kv dedup_window");
        }
        cfg.kv_dedup_window = static_cast<int>(i);
      } else {
        return bad("unknown [kv] key '" + key + "'");
      }
    } else {
      return bad("key outside any section");
    }
  }

  if (peers.empty()) {
    fail(error, "config has no [peers]");
    return std::nullopt;
  }
  // Peer ids must be the contiguous range 0..n-1 (they are ProcessIds).
  const int n = static_cast<int>(peers.size());
  for (int p = 0; p < n; ++p) {
    const auto it = peers.find(p);
    if (it == peers.end()) {
      fail(error, "peer table must cover ids 0.." + std::to_string(n - 1) +
                      " contiguously (missing " + std::to_string(p) + ")");
      return std::nullopt;
    }
    cfg.peers.push_back(it->second);
  }
  if (cfg.max_delay < cfg.min_delay) {
    fail(error, "chaos max_delay_ms < min_delay_ms");
    return std::nullopt;
  }
  return cfg;
}

std::optional<NodeConfig> load_node_config(const std::string& path,
                                           std::string* error) {
  std::ifstream in(path);
  if (!in) {
    fail(error, "cannot open config file: " + path);
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_node_config(text.str(), error);
}

}  // namespace ecfd::transport
