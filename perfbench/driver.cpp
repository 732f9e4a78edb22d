// perfbench_driver — the measuring half of the repository benchmark.
//
//   perfbench_driver kv   --node BIN --dir DIR --workload W --seed S
//                         --seconds T [--probes N] [--trace 0|1]
//                         [--micro 0|1]
//   perfbench_driver fuzz --dir DIR --seed S --seconds T [--recorder 0|1]
//
// `kv` launches 3-node `ecfd_node --kv` clusters on loopback UDP (the
// examples/kv_demo.sh config), drives them with one kv::KvClient session
// per client thread, and writes raw measurements into DIR:
//   summary.json  run context, set-up/failover probes, node CPU and memory
//                 samples, readback counts, and (with --micro 1) timings of
//                 the wire codec and KvStore on the workload's own messages
//   spans.bin     one 40-byte record per measured request (see Span)
//   <cluster>/    per-cluster config, node stdout/stderr, --metrics files
//                 and, with --trace 1, the nodes' --trace files.
// `fuzz` runs check::run_fuzz_case over all profiles x a seed range
// derived from --seed, repeating the range until --seconds have passed,
// and writes summary.json plus cases.bin (one record per case). Both
// commands also time a fixed reference work that runs no repository code
// (through the KV window; after every fuzz case), so run.py can read
// CPU-bound figures at a reference host speed.
//
// The driver only measures; perfbench/run.py folds the files into metrics
// and applies the correctness gates.

#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "check/fuzz.hpp"
#include "kv/client.hpp"
#include "kv/command.hpp"
#include "kv/store.hpp"
#include "net/protocol_ids.hpp"
#include "obs/recorder.hpp"
#include "sim/rng.hpp"
#include "wire/codec.hpp"

namespace {

using namespace ecfd;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t t) {
  const std::int64_t left = t - now_ns();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// A fixed, deterministic piece of work built from the standard library
// only: hash-map updates, ordered-set inserts and small heap blocks. It
// never changes with the repository's code, so the CPU time it takes
// tracks only how fast the host runs such code at the moment; run.py
// reads CPU-bound figures at a reference speed from it. Returns the
// thread CPU time it took (waiting for a CPU does not count).
std::uint64_t reference_sink = 0;

std::int64_t reference_work_ns() {
  const std::int64_t t0 = thread_cpu_ns();
  std::uint64_t x = 88172645463325252ULL;
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  std::set<std::uint64_t> ordered;
  for (int i = 0; i < 6000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[x % 4096] += x;
    ordered.insert(x % 20000);
    const auto block = std::make_unique<std::vector<int>>(x % 64);
    reference_sink += block->size();
  }
  for (const auto& [k, v] : m) reference_sink += k ^ v;
  reference_sink += ordered.size();
  return thread_cpu_ns() - t0;
}

// ---------------------------------------------------------------- output

std::string json_string(const std::string& v) {
  std::string out = "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Minimal JSON object writer: keys are emitted in call order.
class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return raw(k, os.str());
  }
  JsonObj& num(const std::string& k, std::int64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObj& str(const std::string& k, const std::string& v) {
    return raw(k, json_string(v));
  }
  JsonObj& strs(const std::string& k, const std::vector<std::string>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ",";
      out += json_string(v[i]);
    }
    return raw(k, out + "]");
  }
  JsonObj& nums(const std::string& k, const std::vector<std::int64_t>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(v[i]);
    }
    return raw(k, out + "]");
  }
  JsonObj& raw(const std::string& k, const std::string& json) {
    if (!body_.empty()) body_ += ",\n  ";
    body_ += json_string(k) + ": " + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{\n  " + body_ + "\n}"; }

 private:
  std::string body_;
};

bool write_file(const std::string& path, const std::string& data) {
  std::ofstream os(path, std::ios::binary);
  os << data;
  return static_cast<bool>(os);
}

template <class T>
void put_le(std::string* out, T v) {
  char b[sizeof(T)];
  std::memcpy(b, &v, sizeof(T));  // x86/arm64 Linux: already little-endian
  out->append(b, sizeof(T));
}

// ------------------------------------------------------- node processes

struct ProcSample {
  std::int64_t cpu_ns{-1};  ///< CPU time (user + system) of all threads
  std::int64_t hwm_kb{-1};  ///< VmHWM
};

/// CPU time from each thread's schedstat (nanoseconds; utime + stime in
/// /proc/<pid>/stat have only clock-tick resolution) and peak RSS.
ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  const std::string proc = "/proc/" + std::to_string(pid);
  std::error_code ec;
  std::int64_t cpu = 0;
  for (const auto& task :
       std::filesystem::directory_iterator(proc + "/task", ec)) {
    std::ifstream st(task.path() / "schedstat");
    std::int64_t run_ns = 0;
    if (st >> run_ns) cpu += run_ns;
  }
  if (!ec) s.cpu_ns = cpu;
  std::string line;
  std::ifstream status(proc + "/status");
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      s.hwm_kb = std::stoll(line.substr(6));
    }
  }
  return s;
}

/// The node config of examples/kv_demo.sh, verbatim apart from the ports.
std::string node_config_text(int base_port, int n) {
  std::string s =
      "[cluster]\n"
      "seed = 7\n"
      "fd = ecfd\n"
      "period_ms = 50\n"
      "initial_timeout_ms = 250\n"
      "timeout_increment_ms = 100\n"
      "\n"
      "[kv]\n"
      "enabled = 1\n"
      "capacity = 16384\n"
      "pipeline_depth = 4\n"
      "batch_max_ops = 64\n"
      "batch_wait_ms = 2\n"
      "lease_establish_ms = 400\n"
      "snapshot_every = 64\n"
      "dedup_window = 64\n"
      "\n"
      "[peers]\n";
  for (int i = 0; i < n; ++i) {
    s += std::to_string(i) + " = 127.0.0.1:" + std::to_string(base_port + i) +
         "\n";
  }
  return s;
}

/// Finds n consecutive free loopback UDP ports.
int pick_ports(int n) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int base =
        20000 + static_cast<int>((static_cast<unsigned>(::getpid()) * 37u +
                                  static_cast<unsigned>(attempt) * 101u +
                                  static_cast<unsigned>(now_ns() / 1000)) %
                                 20000u);
    bool ok = true;
    std::vector<int> fds;
    for (int i = 0; i < n && ok; ++i) {
      const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
      sockaddr_in sa{};
      sa.sin_family = AF_INET;
      sa.sin_port = htons(static_cast<std::uint16_t>(base + i));
      sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      ok = fd >= 0 && ::bind(fd, reinterpret_cast<const sockaddr*>(&sa),
                             sizeof(sa)) == 0;
      if (fd >= 0) fds.push_back(fd);
    }
    for (const int fd : fds) ::close(fd);
    if (ok) return base;
  }
  return -1;
}

/// One launched cluster. Destruction SIGKILLs and reaps whatever is still
/// running, so no early return can leak a node process.
class Cluster {
 public:
  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() {
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (!reaped[i]) {
        ::kill(pids[i], SIGKILL);
        ::waitpid(pids[i], nullptr, 0);
      }
    }
  }

  bool launch(const std::string& node_bin, const std::string& cluster_dir,
              bool trace, int report_ms, int n, std::string* error) {
    dir = cluster_dir;
    ::mkdir(dir.c_str(), 0755);
    const int base = pick_ports(n);
    if (base < 0) {
      *error = "no free loopback UDP ports";
      return false;
    }
    config = node_config_text(base, n);
    const std::string cfg_path = dir + "/cluster.ini";
    if (!write_file(cfg_path, config)) {
      *error = "cannot write " + cfg_path;
      return false;
    }
    for (int i = 0; i < n; ++i) {
      peers.push_back({"127.0.0.1", static_cast<std::uint16_t>(base + i)});
    }
    spawn_ns = now_ns();
    for (int i = 0; i < n; ++i) {
      const std::string id = std::to_string(i);
      std::vector<std::string> args = {
          node_bin, "--config", cfg_path, "--id", id, "--kv",
          "--backend", "poll", "--report-ms", std::to_string(report_ms),
          "--metrics", dir + "/metrics" + id + ".json"};
      if (trace) {
        args.push_back("--trace");
        args.push_back(dir + "/trace" + id + ".json");
      }
      const std::string out = dir + "/node" + id + ".out";
      const std::string err = dir + "/node" + id + ".err";
      const pid_t pid = ::fork();
      if (pid == 0) {
        const int ofd = ::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int efd = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (ofd >= 0) ::dup2(ofd, 1);
        if (efd >= 0) ::dup2(efd, 2);
        std::vector<char*> argv;
        for (auto& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(argv[0], argv.data());
        ::_exit(127);
      }
      if (pid < 0) {
        *error = std::string("fork: ") + std::strerror(errno);
        return false;
      }
      pids.push_back(pid);
      reaped.push_back(false);
    }
    return true;
  }

  /// SIGKILL: the crash the failover workloads inject. Samples the node's
  /// CPU and memory first, since /proc loses them with the process.
  ProcSample crash(int id) {
    const auto i = static_cast<std::size_t>(id);
    const ProcSample s = sample_proc(pids[i]);
    ::kill(pids[i], SIGKILL);
    ::waitpid(pids[i], nullptr, 0);
    reaped[i] = true;
    return s;
  }

  /// SIGTERM to every live node (each writes its --metrics/--trace files
  /// on the way out) and reaps them; false if any exited uncleanly.
  bool stop() {
    bool clean = true;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      if (!reaped[i]) ::kill(pids[i], SIGTERM);
    }
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      while (!reaped[i]) {
        int st = 0;
        const pid_t r = ::waitpid(pids[i], &st, WNOHANG);
        if (r == pids[i]) {
          reaped[i] = true;
          if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) clean = false;
        } else if (now_ns() > deadline) {
          ::kill(pids[i], SIGKILL);
          ::waitpid(pids[i], nullptr, 0);
          reaped[i] = true;
          clean = false;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
    }
    return clean;
  }

  std::string dir;
  std::string config;
  std::vector<transport::PeerAddr> peers;
  std::vector<pid_t> pids;
  std::vector<bool> reaped;
  std::int64_t spawn_ns{0};
};

std::int64_t wall_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fresh_session(int salt) {
  return (static_cast<std::uint64_t>(wall_us()) << 8) ^ (0x5042ULL << 48) ^
         static_cast<std::uint64_t>(salt);
}

/// A client with a short per-attempt timeout, so set-up and failover
/// probes measure the cluster rather than the client's default 200 ms
/// retry period.
kv::KvClient::Config probe_client_config(const Cluster& c, int salt) {
  kv::KvClient::Config cc;
  cc.servers = c.peers;
  cc.session = fresh_session(salt);
  cc.request_timeout = 5'000;
  cc.max_attempts = 3000;
  return cc;
}

bool put_ok(kv::KvClient& cl, const std::string& k, const std::string& v) {
  return cl.put(k, v) == kv::Status::kOk;
}

bool get_is(kv::KvClient& cl, const std::string& k, const std::string& v) {
  std::string out;
  return cl.get(k, &out) == kv::Status::kOk && out == v;
}

// ------------------------------------------------------------ workloads

struct KvWorkload {
  std::string name;
  bool paced{false};
  double rate_per_session{0};  ///< paced only, requests per second
  int read_pct{0};
  bool zipf_reads{false};
  int keys_per_session{1000};
  double kill_at{-1};  ///< fraction of each cluster's window; < 0 = no kill
  /// > 0: the measured window is split over fresh clusters of about this
  /// many seconds each (one kill each); 0: one cluster.
  double cluster_seconds{0};
};

constexpr int kValueBytes = 100;

std::optional<KvWorkload> kv_workload(const std::string& name) {
  KvWorkload w;
  w.name = name;
  if (name == "kv_write") return w;
  if (name == "kv_read") {
    w.read_pct = 95;
    w.zipf_reads = true;
    return w;
  }
  if (name == "kv_failover") {
    w.paced = true;
    w.rate_per_session = 50;
    w.read_pct = 50;
    w.kill_at = 0.4;
    w.cluster_seconds = 2;
    return w;
  }
  return std::nullopt;
}

class Zipf {
 public:
  Zipf(int n, double theta) : cdf_(static_cast<std::size_t>(n)) {
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += 1.0 / std::pow(i + 1, theta);
    double acc = 0;
    for (int i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(i + 1, theta) / sum;
      cdf_[static_cast<std::size_t>(i)] = acc;
    }
  }
  [[nodiscard]] int pick(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<int>(it - cdf_.begin()),
                    static_cast<int>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One request as the client saw it. Times are ns since the driver's t0.
/// `due` is when the schedule wanted the request sent (== `sent` in a
/// closed loop); attempts/redirects/timeouts are this call's deltas of
/// KvClient::Stats.
struct Span {
  std::int64_t due{0};
  std::int64_t sent{0};
  std::int64_t done{0};
  std::uint32_t attempts{0};
  std::uint32_t redirects{0};
  std::uint32_t timeouts{0};
  std::uint8_t kind{0};  ///< 0 = GET, 1 = PUT
  std::uint8_t ok{0};
  std::uint16_t session{0};
};

enum class KeyState : std::uint8_t { kUnwritten, kAcked, kAmbiguous };

/// One client thread's state: a KvClient session plus the ground truth
/// for readback (the session is the only writer of its own keys).
struct Session {
  int idx{0};
  std::unique_ptr<kv::KvClient> client;
  Rng rng;
  std::vector<std::string> keys;
  std::vector<std::string> value;
  std::vector<KeyState> state;
  std::int64_t opno{0};
  std::vector<Span> spans;
  std::int64_t stale_reads{0};
  std::int64_t lost{0};
  std::int64_t checked{0};
  // Material for the codec/store timings (--micro).
  std::vector<kv::Request> req_sample;
  std::vector<kv::Reply> reply_sample;
  std::vector<kv::Cmd> acked_cmds;
  std::vector<std::uint32_t> read_keys;
};

constexpr std::size_t kWireSample = 2048;
constexpr std::size_t kReadKeySample = 200'000;

/// A kValueBytes value, unique per session and op so that readback
/// cannot be fooled by an older write of the same key.
std::string make_value(Session& s) {
  std::string v = "s" + std::to_string(s.idx) + ".o" + std::to_string(s.opno++) + ".";
  while (static_cast<int>(v.size()) < kValueBytes) {
    v += static_cast<char>('a' + s.rng.below(26));
  }
  return v;
}

/// Records the outcome of a write of key \p k: the readback ground truth,
/// and (when acked) the command for the store timings.
void note_write(Session& s, std::size_t k, const std::string& value, bool ok) {
  s.value[k] = value;
  s.state[k] = ok ? KeyState::kAcked : KeyState::kAmbiguous;
  if (!ok) return;
  kv::Cmd c;
  c.op = kv::OpKind::kPut;
  c.key = s.keys[k];
  c.value = value;
  s.acked_cmds.push_back(std::move(c));
}

/// Issues one single-op request and records its span. Reads of a key the
/// session wrote must return the last acked value (the session is its only
/// writer); a mismatch is a stale read.
void do_op(Session& s, bool is_read, int k, std::int64_t due,
           std::int64_t t0, bool record, std::atomic<int>* leader) {
  kv::Op op;
  op.key = s.keys[static_cast<std::size_t>(k)];
  if (is_read) {
    op.op = kv::OpKind::kGet;
  } else {
    op.op = kv::OpKind::kPut;
    op.value = make_value(s);
  }
  const kv::KvClient::Stats before = s.client->stats();
  if (record && s.req_sample.size() < kWireSample) {
    kv::Request r;
    r.session = s.client->session();
    r.tag = static_cast<std::uint64_t>(before.requests + 1);
    r.ops = {op};
    s.req_sample.push_back(std::move(r));
  }
  const std::int64_t sent = now_ns();
  const auto reply = s.client->execute({op});
  const std::int64_t done = now_ns();
  const kv::KvClient::Stats& after = s.client->stats();

  bool ok = reply && reply->status == kv::Status::kOk &&
            reply->results.size() == 1;
  const auto ki = static_cast<std::size_t>(k);
  if (is_read) {
    ok = ok && (reply->results[0].status == kv::Status::kOk ||
                reply->results[0].status == kv::Status::kNotFound);
    if (ok && s.state[ki] == KeyState::kAcked &&
        (reply->results[0].status != kv::Status::kOk ||
         reply->results[0].value != s.value[ki])) {
      ++s.stale_reads;
    }
    if (ok && s.read_keys.size() < kReadKeySample) {
      s.read_keys.push_back(static_cast<std::uint32_t>(k));
    }
  } else {
    ok = ok && reply->results[0].status == kv::Status::kOk;
    note_write(s, ki, op.value, ok);
  }
  if (ok && leader != nullptr) leader->store(s.client->target());
  if (record && reply && s.reply_sample.size() < kWireSample) {
    s.reply_sample.push_back(*reply);
  }
  if (!record) return;
  Span sp;
  sp.due = due - t0;
  sp.sent = sent - t0;
  sp.done = done - t0;
  sp.attempts = static_cast<std::uint32_t>(after.attempts - before.attempts);
  sp.redirects = static_cast<std::uint32_t>(after.redirects - before.redirects);
  sp.timeouts = static_cast<std::uint32_t>(after.timeouts - before.timeouts);
  sp.kind = is_read ? 0 : 1;
  sp.ok = ok ? 1 : 0;
  sp.session = static_cast<std::uint16_t>(s.idx);
  s.spans.push_back(sp);
}

/// Writes every key of the session once, 16 puts per request, so reads
/// find values and the store holds its final key count from the start.
bool prepopulate(Session& s) {
  constexpr std::size_t kPerRequest = 16;
  for (std::size_t base = 0; base < s.keys.size(); base += kPerRequest) {
    std::vector<kv::Op> ops;
    for (std::size_t i = base; i < std::min(base + kPerRequest, s.keys.size());
         ++i) {
      kv::Op op;
      op.op = kv::OpKind::kPut;
      op.key = s.keys[i];
      op.value = make_value(s);
      ops.push_back(op);
    }
    const auto reply = s.client->execute(ops);
    if (!reply || reply->status != kv::Status::kOk ||
        reply->results.size() != ops.size()) {
      return false;
    }
    for (std::size_t j = 0; j < ops.size(); ++j) {
      if (reply->results[j].status != kv::Status::kOk) return false;
      note_write(s, base + j, ops[j].value, true);
    }
  }
  return true;
}

/// Runs the workload's request pattern on one session in [start, end).
void run_pattern(Session& s, const KvWorkload& w, const Zipf& zipf,
                 std::int64_t start, std::int64_t end, std::int64_t t0,
                 bool record, std::atomic<int>* leader) {
  const int nkeys = static_cast<int>(s.keys.size());
  auto next_op = [&](std::int64_t due) {
    const bool is_read = static_cast<int>(s.rng.below(100)) < w.read_pct;
    const int k = is_read && w.zipf_reads
                      ? zipf.pick(s.rng.uniform01())
                      : static_cast<int>(s.rng.below(
                            static_cast<std::uint64_t>(nkeys)));
    do_op(s, is_read, k, due, t0, record, leader);
  };
  if (w.paced) {
    const auto period = static_cast<std::int64_t>(1e9 / w.rate_per_session);
    // Sessions are staggered by a quarter period each.
    const std::int64_t phase = period * s.idx / 4;
    for (std::int64_t i = 0;; ++i) {
      const std::int64_t due = start + phase + i * period;
      if (due >= end) break;
      sleep_until_ns(due);
      next_op(due);
    }
  } else {
    while (now_ns() < end) next_op(now_ns());
  }
}

/// Reads back every key whose last write was acked.
void readback(Session& s) {
  for (std::size_t i = 0; i < s.keys.size(); ++i) {
    if (s.state[i] != KeyState::kAcked) continue;
    ++s.checked;
    if (!get_is(*s.client, s.keys[i], s.value[i])) {
      if (s.lost < 5) {
        std::cerr << "perfbench: LOST acked write " << s.keys[i] << "\n";
      }
      ++s.lost;
    }
  }
}

template <class F>
void in_parallel(std::vector<Session>& sessions, F f) {
  std::vector<std::thread> threads;
  for (Session& s : sessions) threads.emplace_back([&s, &f]() { f(s); });
  for (std::thread& t : threads) t.join();
}

std::string proc_json(const std::vector<ProcSample>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"cpu_ns\":" + std::to_string(v[i].cpu_ns) +
           ",\"hwm_kb\":" + std::to_string(v[i].hwm_kb) + "}";
  }
  return out + "]";
}

struct ProbeResult {
  bool ok{false};
  std::int64_t setup_ns{0};
  std::int64_t unavail_ns{-1};
  std::int64_t requests{0};
  std::int64_t victim{-1};
  std::string error;
};

/// Spawn-to-first-acked-write on a fresh cluster \p c, then (when
/// \p failover) SIGKILL of the leader and kill-to-first-acked-write, then
/// readback of both writes.
ProbeResult probe_with(Cluster& c, kv::KvClient& cl, bool failover) {
  ProbeResult r;
  if (!cl.connect(&r.error) || !cl.open_session(&r.error)) return r;
  if (!put_ok(cl, "probe.a", "1")) {
    r.error = "set-up probe write not acked";
    return r;
  }
  r.setup_ns = now_ns() - c.spawn_ns;
  if (failover) {
    r.victim = cl.target();
    c.crash(cl.target());
    const std::int64_t t_kill = now_ns();
    if (!put_ok(cl, "probe.b", "2")) {
      r.error = "failover probe write not acked";
      return r;
    }
    r.unavail_ns = now_ns() - t_kill;
    if (!get_is(cl, "probe.b", "2")) {
      r.error = "LOST acked write probe.b after the kill";
      return r;
    }
  }
  if (!get_is(cl, "probe.a", "1")) {
    r.error = "LOST acked write probe.a";
    return r;
  }
  r.ok = true;
  return r;
}

ProbeResult probe(Cluster& c, int salt, bool failover) {
  kv::KvClient cl(probe_client_config(c, salt));
  ProbeResult r = probe_with(c, cl, failover);
  r.requests = cl.stats().requests;
  return r;
}

std::string arg(const std::map<std::string, std::string>& a,
                const std::string& k, const std::string& def = "") {
  const auto it = a.find(k);
  return it == a.end() ? def : it->second;
}

constexpr int kNodes = 3;
constexpr int kSessions = 4;

/// One measured cluster: launch, set-up probe, sessions, prepopulation,
/// warm-up, the measured window (with the workload's leader kill), and
/// readback. Writes <dir>/spans.bin and returns the cycle's JSON; the
/// sessions are kept in \p sessions for the codec/store timings. A
/// set-up probe or prepopulation that fails is a gate failure: it goes
/// into \p errors and the cycle ends there, without a result.
std::optional<std::string> run_cycle(const std::string& node,
                                     const std::string& dir,
                                     const KvWorkload& w, std::uint64_t seed,
                                     double seconds, bool trace, int report_ms,
                                     std::int64_t t0,
                                     std::vector<Session>* sessions,
                                     std::vector<std::string>* errors,
                                     std::int64_t* setup_ns,
                                     std::string* config) {
  std::string error;
  Cluster c;
  if (!c.launch(node, dir, trace, report_ms, kNodes, &error)) {
    std::cerr << "perfbench: " << error << "\n";
    return std::nullopt;
  }
  *config = c.config;
  const ProbeResult first = probe(c, 99, false);
  if (!first.ok) {
    errors->push_back(dir + ": " + first.error);
    return std::nullopt;
  }
  *setup_ns = first.setup_ns;

  sessions->clear();
  sessions->resize(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    Session& s = (*sessions)[static_cast<std::size_t>(i)];
    s.idx = i;
    s.rng.reseed(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(i));
    kv::KvClient::Config cc;
    cc.servers = c.peers;
    cc.session = fresh_session(i + 1);
    s.client = std::make_unique<kv::KvClient>(cc);
    for (int k = 0; k < w.keys_per_session; ++k) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "s%d.k%05d", i, k);
      s.keys.emplace_back(buf);
    }
    s.value.resize(s.keys.size());
    s.state.assign(s.keys.size(), KeyState::kUnwritten);
    if (!s.client->connect(&error) || !s.client->open_session(&error)) {
      std::cerr << "perfbench: session " << i << ": " << error << "\n";
      return std::nullopt;
    }
  }
  std::atomic<bool> prepop_ok{true};
  in_parallel(*sessions, [&](Session& s) {
    if (!prepopulate(s)) prepop_ok = false;
  });
  if (!prepop_ok) {
    errors->push_back(dir + ": a prepopulation write was not acked");
    return std::nullopt;
  }

  const Zipf zipf(w.keys_per_session, 0.99);
  std::atomic<int> leader{-1};
  // Warm-up: the workload's own pattern, unrecorded, so leases, caches and
  // the batch pipeline are in steady state before timing starts.
  const std::int64_t warm_end = now_ns() + 1'000'000'000;
  in_parallel(*sessions, [&](Session& s) {
    run_pattern(s, w, zipf, now_ns(), warm_end, t0, false, &leader);
  });

  std::vector<ProcSample> cpu_start;
  for (const pid_t pid : c.pids) cpu_start.push_back(sample_proc(pid));
  const std::int64_t m_start = now_ns();
  const auto window = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t m_end = m_start + window;

  // The reference work every 250 ms of the window, on a thread of its own
  // (about 1% of one CPU): the host's speed while the window ran. Each
  // sample is the second of two back-to-back runs, so caches are warm.
  std::vector<std::int64_t> reference_ns;
  std::thread sampler([&]() {
    do {
      reference_work_ns();
      reference_ns.push_back(reference_work_ns());
      sleep_until_ns(now_ns() + 250'000'000);
    } while (now_ns() < m_end - 250'000'000);
  });
  std::vector<std::thread> threads;
  for (Session& s : *sessions) {
    threads.emplace_back([&, sp = &s]() {
      run_pattern(*sp, w, zipf, m_start, m_end, t0, true, &leader);
    });
  }
  std::int64_t kill_ns = -1;
  std::int64_t kill_wall_us = -1;
  int victim = -1;
  ProcSample victim_sample;
  if (w.kill_at >= 0) {
    sleep_until_ns(m_start + static_cast<std::int64_t>(w.kill_at * window));
    victim = std::max(0, leader.load());
    victim_sample = c.crash(victim);
    kill_ns = now_ns() - t0;
    kill_wall_us = wall_us();
  }
  sleep_until_ns(m_end);
  auto sample_all = [&]() {
    std::vector<ProcSample> v;
    for (std::size_t i = 0; i < c.pids.size(); ++i) {
      v.push_back(static_cast<int>(i) == victim ? victim_sample
                                                : sample_proc(c.pids[i]));
    }
    return v;
  };
  const std::vector<ProcSample> cpu_end = sample_all();
  for (std::thread& t : threads) t.join();
  sampler.join();

  in_parallel(*sessions, [](Session& s) { readback(s); });
  const std::vector<ProcSample> final_samples = sample_all();
  if (!c.stop()) errors->push_back(dir + ": a node exited uncleanly");

  std::int64_t lost = 0, checked = 0, stale = 0;
  std::int64_t requests = first.requests;
  std::string spans;
  for (const Session& s : *sessions) {
    lost += s.lost;
    checked += s.checked;
    stale += s.stale_reads;
    requests += s.client->stats().requests;
    for (const Span& sp : s.spans) {
      put_le(&spans, sp.due);
      put_le(&spans, sp.sent);
      put_le(&spans, sp.done);
      put_le(&spans, sp.attempts);
      put_le(&spans, sp.redirects);
      put_le(&spans, sp.timeouts);
      put_le(&spans, sp.kind);
      put_le(&spans, sp.ok);
      put_le(&spans, sp.session);
    }
  }
  write_file(dir + "/spans.bin", spans);

  JsonObj out;
  out.str("dir", dir);
  out.num("measure_start_ns", m_start - t0).num("measure_end_ns", m_end - t0);
  out.num("kill_ns", kill_ns).num("kill_wall_us", kill_wall_us);
  out.num("victim", std::int64_t{victim});
  out.nums("reference_ns", reference_ns);
  out.raw("cpu_start", proc_json(cpu_start)).raw("cpu_end", proc_json(cpu_end));
  out.raw("final", proc_json(final_samples));
  out.num("readback_checked", checked).num("readback_lost", lost);
  out.num("stale_reads", stale).num("client_requests", requests);
  return out.text();
}

/// Times the wire codec on the workload's own Request and Reply messages,
/// and KvStore apply/read/serialize on its own commands and read keys.
void micro_timings(const std::vector<Session>& sessions, JsonObj* out) {
  std::vector<Message> msgs;
  for (const Session& s : sessions) {
    for (const kv::Request& r : s.req_sample) {
      msgs.push_back(Message::make<kv::Request>(
          protocol_ids::kKvService, kv::kMsgClientRequest, "kv.request", r));
    }
    for (const kv::Reply& r : s.reply_sample) {
      msgs.push_back(Message::make<kv::Reply>(
          protocol_ids::kKvService, kv::kMsgClientReply, "kv.reply", r));
    }
  }
  std::vector<std::vector<std::uint8_t>> frames(msgs.size());
  const std::size_t reps =
      std::max<std::size_t>(1, 400'000 / std::max<std::size_t>(1, msgs.size()));
  std::int64_t t = now_ns();
  for (std::size_t r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      frames[i].clear();
      wire::encode_message(msgs[i], &frames[i]);
    }
  }
  const std::int64_t enc_ns = now_ns() - t;
  std::int64_t decoded = 0;
  t = now_ns();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& f : frames) decoded += wire::decode_message(f) ? 1 : 0;
  }
  const std::int64_t dec_ns = now_ns() - t;
  std::int64_t bytes = 0;
  for (const auto& f : frames) bytes += static_cast<std::int64_t>(f.size());
  out->num("wire_messages", static_cast<std::int64_t>(msgs.size()));
  out->num("wire_reps", static_cast<std::int64_t>(reps));
  out->num("wire_encode_ns_total", enc_ns).num("wire_decode_ns_total", dec_ns);
  out->num("wire_bytes", bytes).num("wire_decoded", decoded);

  // Replay the acked writes into a fresh KvStore (one session per client,
  // consecutive seqs), then read the run's read keys and snapshot it.
  kv::KvStore store;
  std::vector<kv::Cmd> cmds;
  for (const Session& s : sessions) {
    kv::Cmd open;
    open.op = kv::OpKind::kOpenSession;
    open.session = static_cast<std::uint64_t>(s.idx + 1);
    (void)store.apply(open);
    for (std::size_t i = 0; i < s.acked_cmds.size(); ++i) {
      cmds.push_back(s.acked_cmds[i]);
      cmds.back().session = open.session;
      cmds.back().seq = i + 1;
    }
  }
  std::int64_t applied_ok = 0;
  t = now_ns();
  for (const kv::Cmd& cmd : cmds) {
    applied_ok += store.apply(cmd).status == kv::Status::kOk ? 1 : 0;
  }
  const std::int64_t apply_ns = now_ns() - t;
  std::int64_t nread = 0, found = 0;
  t = now_ns();
  for (const Session& s : sessions) {
    for (const std::uint32_t k : s.read_keys) {
      found += store.read(s.keys[k]).status == kv::Status::kOk ? 1 : 0;
      ++nread;
    }
  }
  const std::int64_t read_ns = now_ns() - t;
  std::vector<std::int64_t> snap_ns;
  std::int64_t snap_bytes = 0;
  for (int r = 0; r < 5; ++r) {
    t = now_ns();
    snap_bytes = static_cast<std::int64_t>(store.serialize().size());
    snap_ns.push_back(now_ns() - t);
  }
  out->num("store_applies", static_cast<std::int64_t>(cmds.size()));
  out->num("store_applied_ok", applied_ok).num("store_apply_ns_total", apply_ns);
  out->num("store_reads", nread).num("store_reads_found", found);
  out->num("store_read_ns_total", read_ns);
  out->nums("store_snapshot_ns", snap_ns).num("store_snapshot_bytes", snap_bytes);
  out->num("store_keys", static_cast<std::int64_t>(store.size()));
}

int run_kv(const std::map<std::string, std::string>& a) {
  const std::string node = arg(a, "--node");
  const std::string dir = arg(a, "--dir");
  const auto w = kv_workload(arg(a, "--workload"));
  const auto seed = std::stoull(arg(a, "--seed", "1"));
  const double seconds = std::stod(arg(a, "--seconds", "10"));
  const int probes = std::stoi(arg(a, "--probes", "3"));
  const bool trace = arg(a, "--trace", "0") == "1";
  const int report_ms = std::stoi(arg(a, "--report-ms", "1000"));
  const bool micro = arg(a, "--micro", "0") == "1";
  if (node.empty() || dir.empty() || !w) {
    std::cerr << "perfbench_driver kv: need --node, --dir, --workload\n";
    return 2;
  }
  ::mkdir(dir.c_str(), 0755);
  const std::int64_t t0 = now_ns();
  JsonObj out;
  out.str("workload", w->name).num("seed", static_cast<std::int64_t>(seed));
  out.num("seconds", seconds).num("sessions", std::int64_t{kSessions});
#ifdef __OPTIMIZE__
  out.num("optimized", std::int64_t{1});
#else
  out.num("optimized", std::int64_t{0});
#endif

  // Set-up and idle-failover probes, each on its own fresh cluster.
  std::vector<std::int64_t> setup_ns;
  std::vector<std::int64_t> probe_unavail_ns;
  std::vector<std::int64_t> probe_victims;
  std::vector<std::string> probe_dirs;
  std::vector<std::string> errors;  // correctness gate failures
  std::string error;
  for (int p = 0; p < probes; ++p) {
    Cluster c;
    const std::string pdir = dir + "/probe" + std::to_string(p);
    if (!c.launch(node, pdir, false, report_ms, kNodes, &error)) {
      std::cerr << "perfbench: " << error << "\n";
      return 3;
    }
    const ProbeResult r = probe(c, 100 + p, true);
    probe_dirs.push_back(pdir);
    probe_victims.push_back(r.victim);
    if (!c.stop()) errors.push_back(pdir + ": a node exited uncleanly");
    if (!r.ok) {
      errors.push_back(pdir + ": " + r.error);
      continue;
    }
    setup_ns.push_back(r.setup_ns);
    probe_unavail_ns.push_back(r.unavail_ns);
  }

  // The measured clusters: the window is split evenly between them.
  const int n_cycles =
      w->cluster_seconds > 0
          ? std::max(1, static_cast<int>(std::lround(seconds / w->cluster_seconds)))
          : 1;
  std::vector<std::string> cycles;
  std::vector<Session> sessions;
  std::string config;
  bool aborted = false;  // a cycle's set-up failed a gate
  for (int k = 0; k < n_cycles; ++k) {
    std::int64_t setup = 0;
    const std::size_t known_errors = errors.size();
    const auto cycle = run_cycle(
        node, dir + "/cycle" + std::to_string(k), *w,
        seed * 131 + static_cast<std::uint64_t>(k), seconds / n_cycles, trace,
        report_ms, t0, &sessions, &errors, &setup, &config);
    if (!cycle) {
      if (errors.size() == known_errors) return 3;
      aborted = true;
      break;
    }
    cycles.push_back(*cycle);
    setup_ns.push_back(setup);
  }
  out.num("aborted", std::int64_t{aborted});
  out.str("node_config", config);
  out.nums("setup_ns", setup_ns).nums("probe_unavail_ns", probe_unavail_ns);
  out.strs("probe_dirs", probe_dirs).nums("probe_victims", probe_victims);
  std::string list = "[";
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    if (i > 0) list += ",";
    list += cycles[i];
  }
  out.raw("cycles", list + "]");
  out.strs("errors", errors);
  if (micro && !aborted) micro_timings(sessions, &out);
  write_file(dir + "/summary.json", out.text());
  return 0;
}

// ----------------------------------------------------------------- fuzz

int run_fuzz(const std::map<std::string, std::string>& a) {
  const std::string dir = arg(a, "--dir");
  const auto seed = std::stoull(arg(a, "--seed", "1"));
  const double seconds = std::stod(arg(a, "--seconds", "10"));
  const bool with_recorder = arg(a, "--recorder", "0") == "1";
  if (dir.empty()) {
    std::cerr << "perfbench_driver fuzz: need --dir\n";
    return 2;
  }
  ::mkdir(dir.c_str(), 0755);

  // ecfd_fuzz defaults (n=5, ecfd_c, ring FD) over every profile. 13 seeds
  // a profile = 104 cases a pass: twenty lie beyond the bounded p80.
  constexpr int seeds_per_profile = 13;
  std::vector<check::FuzzCaseConfig> cases;
  const std::uint64_t seed0 =
      1 + (seed % 1'000'000) * static_cast<std::uint64_t>(seeds_per_profile);
  for (const check::FuzzProfile p : check::all_profiles()) {
    for (int s = 0; s < seeds_per_profile; ++s) {
      check::FuzzCaseConfig cfg;
      cfg.profile = p;
      cfg.seed = seed0 + static_cast<std::uint64_t>(s);
      cases.push_back(cfg);
    }
  }

  // Pass k runs pinned to the k-th allowed CPU, so every case is timed on
  // every vCPU: the host's vCPUs slow down independently, for seconds at a
  // time, and run.py takes each case's median over the passes.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  std::string records;
  std::vector<std::int64_t> pass_digests;
  std::int64_t ran = 0;
  for (int pass = 0; pass < 2 || now_ns() - start < budget; ++pass) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(pass) % cpus.size()], &one);
      ::sched_setaffinity(0, sizeof(one), &one);
    }
    std::uint64_t combined = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::int64_t t_a = now_ns();
      const std::int64_t cpu_a = thread_cpu_ns();
      const check::FaultSchedule sched = check::generate_schedule(cases[i]);
      const std::int64_t t_b = now_ns();
      std::unique_ptr<obs::Recorder> rec;
      if (with_recorder) rec = std::make_unique<obs::Recorder>(4096);
      const check::FuzzOutcome o =
          check::run_fuzz_case(cases[i], sched, rec.get());
      const std::int64_t t_c = now_ns();
      const std::int64_t case_cpu = thread_cpu_ns() - cpu_a;
      const std::int64_t reference_ns = reference_work_ns();
      const std::int64_t events =
          rec ? static_cast<std::int64_t>(rec->merged().size() +
                                          rec->dropped_total())
              : 0;
      combined = (combined ^ o.digest) * 0x100000001b3ULL;
      std::int64_t msgs = 0;
      for (const auto& [k, v] : o.counters.all()) {
        if (k.rfind("msg.", 0) == 0) msgs += v;
      }
      put_le(&records, static_cast<std::int64_t>(t_c - t_a));
      put_le(&records, static_cast<std::int64_t>(t_b - t_a));
      put_le(&records, msgs);
      put_le(&records, o.digest);
      put_le(&records, events);
      put_le(&records, case_cpu);
      put_le(&records, static_cast<std::uint32_t>(pass));
      put_le(&records, static_cast<std::uint32_t>(i));
      put_le(&records, static_cast<std::uint8_t>(o.ok ? 1 : 0));
      put_le(&records, static_cast<std::uint8_t>(static_cast<int>(cases[i].profile)));
      put_le(&records, std::uint16_t{0});
      put_le(&records, static_cast<std::uint32_t>(reference_ns));
      ++ran;
    }
    pass_digests.push_back(static_cast<std::int64_t>(combined));
  }
  const std::int64_t elapsed = now_ns() - start;
  write_file(dir + "/cases.bin", records);

  JsonObj out;
  out.str("workload", "fuzz_sweep").num("seed", static_cast<std::int64_t>(seed));
  out.num("seconds", seconds).num("recorder", std::int64_t{with_recorder});
#ifdef __OPTIMIZE__
  out.num("optimized", std::int64_t{1});
#else
  out.num("optimized", std::int64_t{0});
#endif
  out.num("cases_per_pass", static_cast<std::int64_t>(cases.size()));
  out.num("seed0", static_cast<std::int64_t>(seed0));
  out.num("cases_run", ran).num("elapsed_ns", elapsed);
  out.num("hwm_kb", sample_proc(::getpid()).hwm_kb);
  out.nums("pass_digests", pass_digests);
  write_file(dir + "/summary.json", out.text());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver kv|fuzz --key value ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  std::map<std::string, std::string> a;
  for (int i = 2; i + 1 < argc; i += 2) a[argv[i]] = argv[i + 1];
  ::signal(SIGPIPE, SIG_IGN);
  try {
    // Caught here so that unwinding stops every node a Cluster launched.
    if (cmd == "kv") return run_kv(a);
    if (cmd == "fuzz") return run_fuzz(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 3;
  }
  std::cerr << "perfbench_driver: unknown command " << cmd << "\n";
  return 2;
}
