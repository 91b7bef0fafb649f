// kvbench: one replicated-KV workload over loopback TCP, end to end.
//
// Usage: kvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Stands up a 3-replica cluster::TcpCluster group in this process (shielded,
// batching on with RTT pacing, one transport shard per replica, admin
// endpoint off) and drives one KvClient on one client loop thread through
// the public API: 3 replica loops + 1 client loop. One run is
//
//   set-up    group construction, enclave provisioning, listeners and the
//             preload of every key (timed from the start of main: setup_s);
//   warm-up   1 s of the workload's load, not measured;
//   window    `seconds` sub-windows of 1 s, closed loop at a fixed number of
//             admitted ops; every end-to-end figure is the median over the
//             sub-windows of that sub-window's value;
//   rejoin    on the durable group only, kWarmRejoins clean shutdowns of the
//             CR middle, each followed by a rejoin on the WAL warm path;
//   checks    every get against the model of acknowledged writes (model.h),
//             every replica store against the model (after the window and
//             after every rejoin), the path every rejoin took, the committed-op
//             total, and on the durable group each replica's WAL entry count.
//
// --trace 0 runs the window with the flight recorder off and prints the
// end-to-end metrics. --trace 1 alternates untraced and traced sub-windows
// (recorder on), then times single layers through their public functions,
// and prints the per-layer metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A human-readable
// summary goes to stderr. Exit code 0 when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "attest/bundle.h"
#include "cluster/tcp_cluster.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "kvstore/kvstore.h"
#include "kvstore/wal.h"
#include "model.h"
#include "obs/flight_recorder.h"
#include "recipe/message.h"
#include "recipe/security.h"
#include "tee/enclave.h"
#include "tee/platform.h"

namespace kvbench {
namespace {

using namespace recipe;

constexpr std::size_t kKeys = 10000;
constexpr std::size_t kWarmRejoins = 8;
constexpr double kWarmupSeconds = 1.0;
constexpr double kSubWindowSeconds = 1.0;
// Whole-process bound: a lost completion or a stuck rejoin must end the run
// with an error, not hang it.
constexpr auto kWatchdog = std::chrono::seconds(170);

struct Workload {
  const char* name;
  const char* protocol;
  bool confidential;
  bool durable;  // sealed file-backed WAL on every replica
  double read_share;
  bool zipf;  // Zipf 0.99 key popularity; uniform otherwise
  std::size_t value_bytes;
  std::size_t outstanding;  // admitted ops of the closed loop
};

constexpr Workload kWorkloads[] = {
    {"cr-put", "cr", false, false, 0.0, false, 64, 32},
    {"raft-read-mostly", "raft", true, false, 0.9, true, 256, 32},
    {"cr-durable", "cr", false, true, 0.0, false, 1024, 64},
};

// The durable group restarts the CR middle; rejoin() names the tail as the
// donor it would stream from, which the warm path never contacts.
constexpr std::size_t kVictim = 1;
constexpr std::size_t kDonor = 2;

std::uint64_t now_ns() { return obs::FlightRecorder::now_ns(); }

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "kvbench: %s\n", why.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// --- the op stream -----------------------------------------------------------

struct Op {
  std::uint32_t key;
  bool put;
  std::uint64_t seq;  // position in the stream; a put's write sequence
};

// A pure function of (workload, seed): ops 1..kKeys preload every key once
// in order, later ops draw key and type from the workload's mix.
class OpStream {
 public:
  OpStream(const Workload& w, std::uint64_t seed)
      : workload_(w), rng_(seed ^ 0x6B7662656E6368ULL), zipf_(kKeys, 0.99) {}

  std::uint64_t last_seq() const { return seq_; }

  Op next() {
    const std::uint64_t seq = ++seq_;
    if (seq <= kKeys) return {static_cast<std::uint32_t>(seq - 1), true, seq};
    const std::uint64_t key =
        workload_.zipf ? zipf_.next(rng_) : rng_.below(kKeys);
    const bool put =
        workload_.read_share <= 0.0 || rng_.uniform() >= workload_.read_share;
    return {static_cast<std::uint32_t>(key), put, seq};
  }

 private:
  const Workload& workload_;
  Rng rng_;
  ZipfianGenerator zipf_;
  std::uint64_t seq_ = 0;
};

// --- the closed-loop client --------------------------------------------------

// Keeps `outstanding` ops admitted on the client's loop thread: each
// completion admits the next op of the stream. An op whose key already has
// one in flight parks behind it (per-key FIFO), so at most one op per key is
// in flight and the model check is exact; parked time is not part of an
// op's latency, which runs from the KvClient call to its completion.
//
// Loop-thread state is touched only from that thread (start through
// run_sync); limit_ and idle_ are the only cross-thread fields.
class LoadLoop {
 public:
  struct Sample {
    std::uint64_t done_ns;
    std::uint64_t latency_ns;
  };

  LoadLoop(KvClient& client, NodeId put_target, NodeId get_target,
           Model& model, OpStream& stream, std::size_t outstanding)
      : client_(client),
        put_target_(put_target),
        get_target_(get_target),
        model_(model),
        stream_(stream),
        outstanding_(outstanding),
        busy_(kKeys, false) {}

  // Any thread: admit ops until the stream reaches `last_seq`.
  void set_limit(std::uint64_t last_seq) {
    limit_.store(last_seq, std::memory_order_relaxed);
  }
  // True once nothing is admitted and the limit stops admission.
  bool idle() const { return idle_.load(std::memory_order_acquire); }

  // Loop thread.
  void start() {
    idle_.store(false, std::memory_order_relaxed);
    admit();
    publish_idle();
  }

  // Read after the loop went idle (through run_sync).
  const std::vector<Sample>& samples() const { return samples_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t succeeded() const { return succeeded_; }
  std::uint64_t puts_acked() const { return puts_acked_; }
  std::uint64_t stale_reads() const { return stale_reads_; }

 private:
  void admit() {
    while (admitted_ < outstanding_ &&
           stream_.last_seq() < limit_.load(std::memory_order_relaxed)) {
      const Op op = stream_.next();
      ++admitted_;
      ++attempted_;
      if (busy_[op.key]) {
        parked_[op.key].push_back(op);
      } else {
        issue(op);
      }
    }
  }

  void issue(const Op& op) {
    busy_[op.key] = true;
    const std::uint64_t t0 = now_ns();
    auto done = [this, op, t0](const ClientReply& reply) {
      complete(op, t0, reply);
    };
    if (op.put) {
      client_.put(put_target_, model_.key_name(op.key),
                  model_.value(op.key, op.seq), std::move(done));
    } else {
      client_.get(get_target_, model_.key_name(op.key), std::move(done));
    }
  }

  void complete(const Op& op, std::uint64_t t0, const ClientReply& reply) {
    const std::uint64_t t1 = now_ns();
    if (op.seq > kKeys) samples_.push_back({t1, t1 - t0});
    if (!reply.ok) {
      ++failed_;
      if (op.put) model_.put_unknown(op.key, op.seq);
    } else {
      ++succeeded_;
      if (op.put) {
        model_.put_acked(op.key, op.seq);
        ++puts_acked_;
      } else if (!model_.admits(op.key, reply.found, as_view(reply.value))) {
        ++stale_reads_;
      }
    }
    busy_[op.key] = false;
    --admitted_;
    const auto parked = parked_.find(op.key);
    if (parked != parked_.end()) {
      const Op next = parked->second.front();
      parked->second.pop_front();
      if (parked->second.empty()) parked_.erase(parked);
      issue(next);
    }
    admit();
    publish_idle();
  }

  void publish_idle() {
    if (admitted_ == 0) idle_.store(true, std::memory_order_release);
  }

  KvClient& client_;
  const NodeId put_target_;
  const NodeId get_target_;
  Model& model_;
  OpStream& stream_;
  const std::size_t outstanding_;
  std::vector<bool> busy_;
  std::unordered_map<std::uint32_t, std::deque<Op>> parked_;
  std::size_t admitted_ = 0;  // in flight + parked
  std::vector<Sample> samples_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t succeeded_ = 0;
  std::uint64_t puts_acked_ = 0;
  std::uint64_t stale_reads_ = 0;
  std::atomic<std::uint64_t> limit_{0};
  std::atomic<bool> idle_{true};
};

void wait_idle(const LoadLoop& loop, double bound_s) {
  const std::uint64_t t0 = now_ns();
  while (!loop.idle()) {
    if (seconds_since(t0) > bound_s) die("the client loop did not drain");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Admits ops on the client loop until the stream reaches `limit`.
void start_load(cluster::TcpCluster& group, LoadLoop& loop,
                std::uint64_t limit) {
  loop.set_limit(limit);
  group.client_home(0).run_sync([&] { loop.start(); });
}

// --- process and program counters --------------------------------------------

struct Cpu {
  double user_us = 0;
  double sys_us = 0;
  double ctx_switches = 0;
};

Cpu read_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Cpu c;
  c.user_us = static_cast<double>(ru.ru_utime.tv_sec) * 1e6 +
              static_cast<double>(ru.ru_utime.tv_usec);
  c.sys_us = static_cast<double>(ru.ru_stime.tv_sec) * 1e6 +
             static_cast<double>(ru.ru_stime.tv_usec);
  c.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return c;
}

// Program counters summed over the group (replicas + client transport).
struct Counters {
  double batch_msgs = 0;
  double batch_flushes = 0;
  double batch_timer_flushes = 0;
  double packets = 0;
  double bytes = 0;
  double wal_entries = 0;
  double wal_commits = 0;
  double wal_compactions = 0;
  double rpc_timeouts = 0;
  double client_retries = 0;
};

Counters read_counters(cluster::TcpCluster& group) {
  Counters c;
  auto value = [](obs::MetricsRegistry& m, const char* name) {
    return static_cast<double>(m.counter_value(name));
  };
  for (std::size_t i = 0; i < group.size(); ++i) {
    obs::MetricsRegistry& m = group.metrics(i);
    c.batch_msgs += value(m, "recipe_batch_messages_total");
    c.batch_flushes += value(m, "recipe_batch_flushes_total");
    c.batch_timer_flushes += value(m, "recipe_batch_flushes_by_timer_total");
    c.wal_entries += value(m, "recipe_wal_entries_total");
    c.wal_commits += value(m, "recipe_wal_group_commits_total");
    c.wal_compactions += value(m, "recipe_wal_compactions_total");
    c.rpc_timeouts += value(m, "recipe_rpc_timeouts_total");
    c.packets += static_cast<double>(group.transport(i).packets_sent());
    c.bytes += static_cast<double>(group.transport(i).bytes_sent());
  }
  c.packets += static_cast<double>(group.client_transport().packets_sent());
  c.bytes += static_cast<double>(group.client_transport().bytes_sent());
  c.client_retries =
      value(group.client_metrics(), "recipe_client_retries_total");
  return c;
}

// Flight-recorder span durations (ns) by kind, from events that started at
// or after `since_ns`.
using Spans = std::map<obs::SpanKind, std::vector<double>>;

void collect_spans(std::uint64_t since_ns, Spans& out) {
  for (const auto& e : obs::FlightRecorder::global().snapshot()) {
    if (e.t0_ns < since_ns || e.t1_ns < e.t0_ns) continue;
    out[e.kind].push_back(static_cast<double>(e.t1_ns - e.t0_ns));
  }
}

double span_percentile_us(Spans& spans, obs::SpanKind kind, double q) {
  std::vector<double>& v = spans[kind];
  std::sort(v.begin(), v.end());
  return percentile(v, q) / 1e3;
}

// --- correctness checks ------------------------------------------------------

struct Checks {
  std::vector<std::string> failures;
  void expect(bool cond, const std::string& what) {
    if (!cond) failures.push_back(what);
  }
  bool ok() const { return failures.empty(); }
};

// Keys on replica `i` that disagree with the model, read on its loop.
std::size_t diff_replica(cluster::TcpCluster& group, std::size_t i,
                         const Model& model) {
  std::size_t bad = 0;
  group.run_on(i, [&] {
    const kv::KvStore& kv = group.node(i).kv();
    bad = model.diff_store(
        kv.size(), [&](const std::string& name) -> std::optional<Bytes> {
          auto got = kv.get(name);
          if (!got) return std::nullopt;
          return std::move(got.value().value);
        });
  });
  return bad;
}

// Replica `i` equals the model. Followers apply commits a heartbeat later
// than the coordinator acknowledges them, so a mismatch is re-read for up to
// 3 s before it counts.
bool replica_matches(cluster::TcpCluster& group, std::size_t i,
                     const Model& model) {
  const std::uint64_t t0 = now_ns();
  while (diff_replica(group, i, model) != 0) {
    if (seconds_since(t0) > 3.0) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

// --- warm rejoins ------------------------------------------------------------

// Clean shutdown of the victim, then rejoin() returning it active on the WAL
// warm path. Returns the milliseconds of each cycle.
std::vector<double> run_warm_rejoins(cluster::TcpCluster& group,
                                     const Model& model, Checks& checks) {
  std::vector<double> ms;
  const NodeId donor = group.membership()[kDonor];
  for (std::size_t c = 0; c < kWarmRejoins; ++c) {
    const std::uint64_t t0 = now_ns();
    const Status shut = group.shutdown_clean(kVictim);
    bool warm = false;
    const Status s = group.rejoin(kVictim, donor, 30 * sim::kSecond, &warm);
    ms.push_back(seconds_since(t0) * 1e3);
    checks.expect(shut.is_ok(), "shutdown_clean failed: " + shut.message());
    checks.expect(s.is_ok(), "rejoin failed: " + s.message());
    checks.expect(warm, "a rejoin after a clean shutdown took the cold path");
    checks.expect(replica_matches(group, kVictim, model),
                  "replica differs from the model after a warm rejoin");
  }
  return ms;
}

// --- single-layer probes (--trace 1 only) ------------------------------------

template <typename Fn>
double time_ns_per_call(std::size_t calls, Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < calls; ++i) fn(i);
  return static_cast<double>(now_ns() - t0) / static_cast<double>(calls);
}

// The workload's client put request: the message every write carries.
Bytes workload_message(const Model& model) {
  ClientRequest req;
  req.client = ClientId{4000};
  req.rid = RequestId{1};
  req.op = OpType::kPut;
  req.key = model.key_name(1);
  req.value = model.value(1, 1);
  return req.serialize();
}

struct SecurityProbe {
  double shield_ns = 0;
  double verify_ns = 0;
  double shield_batch16_ns = 0;
};

// RecipeSecurity between two replica enclaves, on the workload's message
// size and mode (MAC only, or MAC + encryption when confidential).
SecurityProbe probe_security(const Workload& w, const Model& model) {
  const crypto::SymmetricKey root = cluster::TcpClusterOptions{}.root;
  tee::TeePlatform platform{1};
  tee::Enclave a{platform, "recipe-replica", 1};
  tee::Enclave b{platform, "recipe-replica", 2};
  if (!a.install_secret(attest::kClusterRootName, root).is_ok() ||
      !b.install_secret(attest::kClusterRootName, root).is_ok()) {
    die("probe enclave provisioning failed");
  }
  RecipeSecurityConfig config;
  config.confidentiality = w.confidential;
  RecipeSecurity sa(a, NodeId{1}, nullptr, nullptr, config);
  RecipeSecurity sb(b, NodeId{2}, nullptr, nullptr, config);
  const Bytes payload = workload_message(model);
  BatchFrame frame;
  for (std::uint64_t i = 0; i < 16; ++i) {
    frame.add(BatchItem::kKindRequest, 0xC0001, i + 1, as_view(payload));
  }
  const Bytes body = frame.take_body();

  constexpr std::size_t kCalls = 2000;
  constexpr int kReps = 7;
  std::vector<double> shield, verify, batch;
  std::vector<Bytes> wires(kCalls);
  std::size_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    shield.push_back(time_ns_per_call(kCalls, [&](std::size_t i) {
      auto wire = sa.shield(NodeId{2}, ViewId{0}, as_view(payload));
      if (!wire) die("probe shield failed");
      wires[i] = std::move(wire).take();
    }));
    verify.push_back(time_ns_per_call(kCalls, [&](std::size_t i) {
      auto env = sb.verify(NodeId{1}, as_view(wires[i]));
      if (!env) die("probe verify failed");
      sink += env.value().payload.size();
    }));
    batch.push_back(time_ns_per_call(kCalls, [&](std::size_t) {
      auto wire = sa.shield_batch(NodeId{2}, ViewId{0}, as_view(body));
      if (!wire) die("probe shield_batch failed");
      sink += wire.value().size();
    }));
  }
  if (sink == 0) die("probe produced nothing");
  return {median(shield), median(verify), median(batch)};
}

struct KvProbe {
  double get_ns = 0;
  double put_ns = 0;
};

// A KvStore shaped like the workload's: value encryption under the group's
// value key when confidential; fill_store() writes every key at the
// workload's value size.
kv::KvConfig store_config(const Workload& w) {
  kv::KvConfig config;
  if (w.confidential) {
    config.value_encryption_key = cluster::TcpClusterOptions{}.value_key;
  }
  return config;
}

void fill_store(kv::KvStore& store, const Model& model) {
  for (std::size_t key = 0; key < model.keys(); ++key) {
    store.write(model.key_name(key), as_view(model.value(key, key + 1)));
  }
}

KvProbe probe_kvstore(const Workload& w, const Model& model,
                      std::uint64_t seed) {
  kv::KvStore store(store_config(w));
  fill_store(store, model);
  constexpr std::size_t kCalls = 10000;
  Rng rng(seed);
  std::vector<std::uint32_t> keys(kCalls);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.below(kKeys));
  const Bytes value = model.value(0, 1);
  std::vector<double> gets, puts;
  std::size_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    gets.push_back(time_ns_per_call(kCalls, [&](std::size_t i) {
      auto got = store.get(model.key_name(keys[i]));
      if (!got) die("probe get failed");
      sink += got.value().value.size();
    }));
    puts.push_back(time_ns_per_call(kCalls, [&](std::size_t i) {
      sink += store.write(model.key_name(keys[i]), as_view(value)) ? 1 : 0;
    }));
  }
  if (sink == 0) die("probe produced nothing");
  return {median(gets), median(puts)};
}

// Wal::compact on a store of the workload's size, over the same file-backed
// storage the durable group uses.
double probe_compact_ms(const Workload& w, const Model& model,
                        const std::string& dir) {
  kv::KvStore store(store_config(w));
  fill_store(store, model);
  std::vector<double> ms;
  {
    kv::FileWalStorage storage(dir);
    kv::Wal wal(storage, crypto::SymmetricKey{Bytes(32, 0xA7)},
                /*boot_epoch=*/1);
    for (std::uint64_t version = 1; version <= 3; ++version) {
      const std::uint64_t t0 = now_ns();
      if (!wal.compact(store, version).is_ok()) die("probe compact failed");
      ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  std::filesystem::remove_all(dir);
  return median(ms);
}

// --- one run -----------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
};

// Per-sub-window end-to-end figures.
struct SubWindow {
  double ops = 0;
  double seconds = 0;
  std::vector<double> latency_us;
  Cpu cpu;
  bool traced = false;
};

RunResult run(const Args& args, std::uint64_t process_start_ns) {
  const Workload& w = *args.workload;
  const std::string wal_dir = ".bench_build/kvbench-wal";
  std::filesystem::remove_all(wal_dir);
  obs::FlightRecorder::global().set_enabled(false);

  cluster::TcpClusterOptions options;
  options.protocol = w.protocol;
  options.replicas = 3;
  options.secured = true;
  options.confidentiality = w.confidential;
  options.batch.enabled = true;
  options.batch.max_count = 16;
  options.batch.max_delay = 50 * sim::kMicrosecond;
  options.batch.rtt_fraction = 0.5;
  options.transport_shards = 1;
  options.admin_port = -1;
  options.durable_wal = w.durable;
  options.wal_dir = wal_dir + "/group";

  RunResult result;
  Checks checks;
  Model model(args.seed, kKeys, w.value_bytes);
  OpStream stream(w, args.seed);
  const int sub_windows = args.trace ? std::max(args.seconds, 2) : args.seconds;
  std::vector<SubWindow> windows(sub_windows);
  Counters counters_before, counters_after;
  Spans spans;
  std::vector<double> warm_rejoin_ms;
  double setup_s = 0;
  {
    cluster::TcpCluster group(options);
    KvClient& client = group.add_client(4000);
    LoadLoop loop(client, group.write_coordinator(), group.read_replica(),
                  model, stream, w.outstanding);

    // Set-up ends once every key holds its preload write.
    start_load(group, loop, kKeys);
    wait_idle(loop, 120.0);
    setup_s = static_cast<double>(now_ns() - process_start_ns) / 1e9;

    start_load(group, loop, ~0ULL);
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));

    counters_before = read_counters(group);
    std::vector<std::uint64_t> bounds{now_ns()};
    Cpu cpu = read_cpu();
    for (int k = 0; k < sub_windows; ++k) {
      // --trace 1: odd sub-windows traced, even ones untraced.
      windows[k].traced = args.trace && k % 2 == 1;
      obs::FlightRecorder::global().set_enabled(windows[k].traced);
      const auto end = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(bounds.back())) +
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::duration<double>(kSubWindowSeconds));
      std::this_thread::sleep_until(end);
      bounds.push_back(now_ns());
      const Cpu next = read_cpu();
      windows[k].cpu = {next.user_us - cpu.user_us, next.sys_us - cpu.sys_us,
                        next.ctx_switches - cpu.ctx_switches};
      cpu = next;
      if (windows[k].traced) collect_spans(bounds[k], spans);
    }
    obs::FlightRecorder::global().set_enabled(false);
    counters_after = read_counters(group);
    loop.set_limit(0);
    wait_idle(loop, 30.0);

    group.client_home(0).run_sync([&] {
      for (const auto& s : loop.samples()) {
        const auto it =
            std::upper_bound(bounds.begin(), bounds.end(), s.done_ns);
        if (it == bounds.begin() || it == bounds.end()) continue;
        SubWindow& sw = windows[static_cast<std::size_t>(
            it - bounds.begin() - 1)];
        sw.ops += 1;
        sw.latency_us.push_back(static_cast<double>(s.latency_ns) / 1e3);
      }
      result.attempted = loop.attempted();
      result.failed = loop.failed();
      checks.expect(loop.stale_reads() == 0,
                    std::to_string(loop.stale_reads()) +
                        " gets returned a value other than the model's");
    });
    for (int k = 0; k < sub_windows; ++k) {
      windows[k].seconds =
          static_cast<double>(bounds[k + 1] - bounds[k]) / 1e9;
    }

    for (std::size_t i = 0; i < group.size(); ++i) {
      checks.expect(replica_matches(group, i, model),
                    "replica " + std::to_string(i) +
                        " differs from the model after the window");
    }
    if (w.durable) warm_rejoin_ms = run_warm_rejoins(group, model, checks);
    checks.expect(group.committed_ops() == loop.succeeded(),
                  "committed_ops over replicas " +
                      std::to_string(group.committed_ops()) +
                      " != successful client ops " +
                      std::to_string(loop.succeeded()));
    if (w.durable) {
      // Every replica logs each write it applies: every acknowledged put.
      for (std::size_t i = 0; i < group.size(); ++i) {
        const std::uint64_t got =
            group.metrics(i).counter_value("recipe_wal_entries_total");
        checks.expect(got == loop.puts_acked(),
                      "replica " + std::to_string(i) + " logged " +
                          std::to_string(got) + " WAL entries, applied " +
                          std::to_string(loop.puts_acked()));
      }
    }
  }
  std::filesystem::remove_all(wal_dir);

  // --- figures ---
  std::vector<double> tput, p50, p99, cpu_op;
  std::vector<double> tput_traced;
  double window_ops = 0;
  for (SubWindow& sw : windows) {
    window_ops += sw.ops;
    const double t = sw.ops / sw.seconds;
    if (sw.traced) {  // end-to-end figures come from untraced time only
      tput_traced.push_back(t);
      continue;
    }
    tput.push_back(t);
    // A sub-window in which no op completed (a stall longer than the
    // sub-window) counts at zero throughput and has no latency figures.
    if (sw.ops == 0) continue;
    std::sort(sw.latency_us.begin(), sw.latency_us.end());
    p50.push_back(percentile(sw.latency_us, 0.50));
    p99.push_back(percentile(sw.latency_us, 0.99));
    std::fprintf(stderr, "  sub-window %6.0f ops/s p50 %8.1f us p99 %9.1f us\n",
                 t, p50.back(), p99.back());
    cpu_op.push_back((sw.cpu.user_us + sw.cpu.sys_us) / sw.ops);
  }
  Cpu total;
  for (const SubWindow& sw : windows) {
    total.user_us += sw.cpu.user_us;
    total.sys_us += sw.cpu.sys_us;
    total.ctx_switches += sw.cpu.ctx_switches;
  }
  window_ops = std::max(window_ops, 1.0);

  auto& out = result.metrics;
  if (!args.trace) {
    out.push_back({"throughput_ops_s", median(tput), "ops/s"});
    out.push_back({"latency_p50_us", median(p50), "us"});
    out.push_back({"latency_p99_us", median(p99), "us"});
    out.push_back({"cpu_us_per_op", median(cpu_op), "us"});
    out.push_back({"setup_s", setup_s, "s"});
  } else {
    const Counters& a = counters_before;
    const Counters& b = counters_after;
    const double kops = window_ops / 1e3;
    const double flushes = std::max(b.batch_flushes - a.batch_flushes, 1.0);
    const double commits = std::max(b.wal_commits - a.wal_commits, 1.0);
    const SecurityProbe sec = probe_security(w, model);
    const KvProbe kvp = probe_kvstore(w, model, args.seed);
    const double compact_ms =
        probe_compact_ms(w, model, wal_dir + "/probe");
    const double traced = median(tput_traced);
    const double untraced = median(tput);
    out.push_back({"security.shield_ns", sec.shield_ns, "ns"});
    out.push_back({"security.verify_ns", sec.verify_ns, "ns"});
    out.push_back({"security.shield_batch16_ns", sec.shield_batch16_ns, "ns"});
    out.push_back({"batcher.msgs_per_flush",
                   (b.batch_msgs - a.batch_msgs) / flushes, "count"});
    out.push_back({"batcher.timer_flush_share",
                   (b.batch_timer_flushes - a.batch_timer_flushes) / flushes,
                   "ratio"});
    out.push_back({"batcher.queue_wait_p50_us",
                   span_percentile_us(spans, obs::SpanKind::kBatchQueueWait,
                                      0.5),
                   "us"});
    out.push_back({"transport.packets_per_op",
                   (b.packets - a.packets) / window_ops, "count"});
    out.push_back({"transport.bytes_per_op",
                   (b.bytes - a.bytes) / window_ops, "B"});
    out.push_back({"transport.socket_write_p50_us",
                   span_percentile_us(spans, obs::SpanKind::kSocketWrite, 0.5),
                   "us"});
    out.push_back({"process.user_us_per_op", total.user_us / window_ops, "us"});
    out.push_back({"process.sys_us_per_op", total.sys_us / window_ops, "us"});
    out.push_back({"process.ctx_switches_per_op",
                   total.ctx_switches / window_ops, "count"});
    out.push_back({"protocols.apply_p50_us",
                   span_percentile_us(spans, obs::SpanKind::kApply, 0.5),
                   "us"});
    out.push_back({"kvstore.get_ns", kvp.get_ns, "ns"});
    out.push_back({"kvstore.put_ns", kvp.put_ns, "ns"});
    out.push_back({"wal.commit_p50_us",
                   span_percentile_us(spans, obs::SpanKind::kWalGroupCommit,
                                      0.5),
                   "us"});
    out.push_back({"wal.commit_p99_us",
                   span_percentile_us(spans, obs::SpanKind::kWalGroupCommit,
                                      0.99),
                   "us"});
    out.push_back({"wal.entries_per_commit",
                   (b.wal_entries - a.wal_entries) / commits, "count"});
    out.push_back({"wal.compactions_per_kop",
                   (b.wal_compactions - a.wal_compactions) / kops, "1/kop"});
    out.push_back({"wal.compact_ms", compact_ms, "ms"});
    out.push_back({"recovery.warm_rejoin_ms", median(warm_rejoin_ms), "ms"});
    out.push_back({"client.retries_per_kop",
                   (b.client_retries - a.client_retries) / kops, "1/kop"});
    out.push_back({"rpc.timeouts_per_kop",
                   (b.rpc_timeouts - a.rpc_timeouts) / kops, "1/kop"});
    out.push_back({"obs.traced_over_untraced_throughput",
                   untraced > 0 ? traced / untraced : 0.0, "ratio"});
  }
  result.failures = checks.failures;
  result.correct = checks.ok();
  return result;
}

// --- command line and output -------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "kvbench: %s\nusage: kvbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (end == value.c_str() || *end != '\0' || args.seconds < 1 ||
          args.seconds > 120) {
        usage("--seconds must be 1..120");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == nullptr || !have_seed || args.seconds == 0 ||
      !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

void print_result(const Args& args, const RunResult& r) {
  std::fprintf(stderr, "kvbench %s seed=%llu seconds=%d trace=%d\n",
               args.workload->name,
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0);
  for (const Metric& m : r.metrics) {
    std::fprintf(stderr, "  %-38s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }
  std::fprintf(stderr, "  attempted %llu failed %llu correct %s\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed),
               r.correct ? "true" : "false");
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace kvbench

int main(int argc, char** argv) {
  const std::uint64_t process_start_ns = kvbench::now_ns();
  const kvbench::Args args = kvbench::parse_args(argc, argv);

  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, kvbench::kWatchdog, [&] { return finished; })) {
      kvbench::die("watchdog: the run did not finish in time");
    }
  });

  const kvbench::RunResult result = kvbench::run(args, process_start_ns);
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_all();
  watchdog.join();
  kvbench::print_result(args, result);
  return result.correct ? 0 : 1;
}
