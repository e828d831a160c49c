// gdisim_perfbench — the repository benchmark driver (perfbench/README.md).
//
//   gdisim_perfbench --workload consolidated-day --seed 42 --seconds 30 --trace 0
//   gdisim_perfbench --describe
//
// Drives the library API (make_*_scenario, GdiSimulator) with the library's
// default SimulatorConfig engine, repeats one workload unit (a whole run, or
// a round of warm-start forks) for `--seconds` host seconds, checks every
// unit's result fingerprint, and prints one JSON result as the last stdout
// line: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//
// Every per-layer number is taken from outside the simulator: exact counts
// read from public state (SchedulerStats, RouteCache, OpStats), and timings
// of calls into public functions — a timing ExecutionEngine installed with
// SimulationLoop::set_engine, a pre-tick hook, and a collect callback that
// wraps Collector::collect. The traced unit is a separate run from the
// untraced one; their counts and fingerprints must agree exactly.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "background/indexbuild.h"
#include "background/synchrep.h"
#include "hardware/cpu.h"
#include "hardware/delay.h"
#include "hardware/link.h"
#include "hardware/network_switch.h"
#include "hardware/nic.h"
#include "hardware/raid.h"
#include "hardware/san.h"
#include "sim/fingerprint.h"
#include "sim/gdisim.h"
#include "software/client.h"

// ---------------------------------------------------------------------------
// Allocation counter: every global operator new in the process (the library
// links statically into this binary) bumps one relaxed counter.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// The replaced operator new allocates with malloc, so free is the matching
// release; GCC cannot see that pairing across the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace gdisim;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process image in MB (VmHWM). getrusage's
/// ru_maxrss is not used: it keeps the launching process's peak across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return 1;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Metric table: the single source of names, units and directions. The
// self-test checks it against BENCHMARK.json.

enum class Tier { kEndToEnd, kLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  Tier tier;
  bool exact;  ///< deterministic count: must match across runs and traced/untraced
};

constexpr MetricDef kMetrics[] = {
    {"sim_rate", "sim_s/s", "higher", Tier::kEndToEnd, false},
    {"cpu_s_per_sim_h", "s/sim_h", "lower", Tier::kEndToEnd, false},
    {"peak_rss_mb", "MB", "lower", Tier::kEndToEnd, false},
    {"setup_s", "s", "lower", Tier::kEndToEnd, false},
    {"paper_err_pp", "pp", "lower", Tier::kEndToEnd, false},

    {"core.iterations", "count", "lower", Tier::kLayer, true},
    {"core.agent_runs", "count", "lower", Tier::kLayer, true},
    {"core.active_mean", "agents", "lower", Tier::kLayer, true},
    {"core.barriers", "count", "lower", Tier::kLayer, true},
    {"core.serial_s", "s", "lower", Tier::kLayer, false},
    {"core.iter_ns_p50", "ns", "lower", Tier::kLayer, false},
    {"core.iter_ns_p99", "ns", "lower", Tier::kLayer, false},
    {"core.tick_phase_s", "s", "lower", Tier::kLayer, false},
    {"core.interaction_phase_s", "s", "lower", Tier::kLayer, false},
    {"core.ns_per_agent_run", "ns", "lower", Tier::kLayer, false},
    {"queueing.fcfs_ticks", "count", "lower", Tier::kLayer, true},
    {"queueing.ps_ticks", "count", "lower", Tier::kLayer, true},
    {"queueing.forkjoin_ticks", "count", "lower", Tier::kLayer, true},
    {"queueing.delay_ticks", "count", "lower", Tier::kLayer, true},
    {"hardware.cpu_runs", "count", "lower", Tier::kLayer, true},
    {"hardware.nic_runs", "count", "lower", Tier::kLayer, true},
    {"hardware.switch_runs", "count", "lower", Tier::kLayer, true},
    {"hardware.link_runs", "count", "lower", Tier::kLayer, true},
    {"hardware.raid_runs", "count", "lower", Tier::kLayer, true},
    {"hardware.san_runs", "count", "lower", Tier::kLayer, true},
    {"hardware.delay_runs", "count", "lower", Tier::kLayer, true},
    {"software.route_hits", "count", "higher", Tier::kLayer, true},
    {"software.route_misses", "count", "lower", Tier::kLayer, true},
    {"software.route_hit_ratio", "ratio", "higher", Tier::kLayer, true},
    {"software.population_runs", "count", "lower", Tier::kLayer, true},
    {"software.launcher_runs", "count", "lower", Tier::kLayer, true},
    {"software.ops_completed", "count", "higher", Tier::kLayer, true},
    {"background.daemon_runs", "count", "lower", Tier::kLayer, true},
    {"background.synchrep_runs", "count", "lower", Tier::kLayer, true},
    {"background.indexbuild_runs", "count", "lower", Tier::kLayer, true},
    {"sim.load_s", "s", "lower", Tier::kLayer, false},
    {"sim.save_s", "s", "lower", Tier::kLayer, false},
    {"sim.snapshot_mb", "MB", "lower", Tier::kLayer, true},
    {"config.build_s", "s", "lower", Tier::kLayer, false},
    {"sim.construct_s", "s", "lower", Tier::kLayer, false},
    {"metrics.collect_calls", "count", "lower", Tier::kLayer, true},
    {"metrics.collect_s", "s", "lower", Tier::kLayer, false},
    {"sim.allocs_per_sim_h", "1/sim_h", "lower", Tier::kLayer, true},
    {"trace.overhead_pct", "%", "lower", Tier::kLayer, false},
};

using Values = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as Chrome trace-event JSON at exit
// (viewable in Perfetto / chrome://tracing).

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  int open(std::string name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), now_us(), -1.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
  }
  bool write(const std::string& path, const std::string& stamp_json) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"otherData\":" << stamp_json << ",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double end = s.end_us < 0 ? s.start_us : s.end_us;
      out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << json_str(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json_num(s.start_us)
          << ",\"dur\":" << json_num(end - s.start_us) << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
  };
  static double now_us() { return 1e6 * secs(g_start, Clock::now()); }

  bool enabled_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Traced-run probe: a benchmark-owned engine (two for_each calls per
// iteration: tick, then interaction), a pre-tick hook timestamping each
// iteration, and a timed wrapper around Collector::collect.

class PhaseProbe final : public ExecutionEngine {
 public:
  explicit PhaseProbe(SpanLog& log) : log_(log) {}
  // The loop keeps this engine's address and the hooks capture `this`.
  PhaseProbe(const PhaseProbe&) = delete;
  PhaseProbe& operator=(const PhaseProbe&) = delete;

  void attach(GdiSimulator& sim, std::size_t expected_iterations) {
    iter_ns_.reserve(expected_iterations);
    SimulationLoop& loop = sim.loop();
    loop.set_engine(*this);
    loop.add_pre_tick_hook([this](Tick) { begin_iteration(); });
    Collector* collector = &sim.collector();
    loop.set_collect_callback([this, collector](Tick now) {
      const int span = log_.open("collect", parent_);
      const auto t0 = Clock::now();
      collector->collect(now);
      collect_s_ += secs(t0, Clock::now());
      ++collect_calls_;
      log_.close(span);
    });
  }

  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) override {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < count; ++i) fn(i);
    phase_s_[phase_ & 1] += secs(t0, Clock::now());
    ++phase_;
    ++barriers_;
  }
  std::string_view name() const override { return "perfbench-timed-inline"; }

  /// Parent span for collect spans (the current run slice).
  void set_parent(int span) { parent_ = span; }
  /// Closes the iteration still open when a run call returns.
  void end_slice() {
    if (in_iteration_) record_iteration(Clock::now());
    in_iteration_ = false;
  }

  void add_to(Values& v) {
    std::sort(iter_ns_.begin(), iter_ns_.end());
    auto pct = [this](double q) {
      if (iter_ns_.empty()) return 0.0;
      const double pos = q * static_cast<double>(iter_ns_.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, iter_ns_.size() - 1);
      const double frac = pos - static_cast<double>(lo);
      return (1.0 - frac) * iter_ns_[lo] + frac * iter_ns_[hi];
    };
    v["core.barriers"] = static_cast<double>(barriers_);
    v["core.tick_phase_s"] = phase_s_[0];
    v["core.interaction_phase_s"] = phase_s_[1];
    v["core.serial_s"] = iter_total_s_ - phase_s_[0] - phase_s_[1];
    v["core.iter_ns_p50"] = pct(0.50);
    v["core.iter_ns_p99"] = pct(0.99);
    v["metrics.collect_calls"] = static_cast<double>(collect_calls_);
    v["metrics.collect_s"] = collect_s_;
  }

 private:
  void begin_iteration() {
    const auto now = Clock::now();
    if (in_iteration_) record_iteration(now);
    iteration_start_ = now;
    in_iteration_ = true;
    phase_ = 0;
  }
  void record_iteration(Clock::time_point now) {
    const double s = secs(iteration_start_, now);
    iter_total_s_ += s;
    iter_ns_.push_back(static_cast<float>(s * 1e9));
  }

  SpanLog& log_;
  int parent_ = -1;
  unsigned phase_ = 0;
  double phase_s_[2] = {0.0, 0.0};
  std::uint64_t barriers_ = 0;
  std::uint64_t collect_calls_ = 0;
  double collect_s_ = 0.0;
  bool in_iteration_ = false;
  Clock::time_point iteration_start_{};
  double iter_total_s_ = 0.0;
  std::vector<float> iter_ns_;
};

// ---------------------------------------------------------------------------
// Exact per-layer counts from public state. Agents are grouped by their
// dynamic class; station disciplines follow the station class (CPU, NIC and
// switch are FCFS; WAN/LAN links are PS; RAID and SAN pipelines end in a
// fork-join; delay stations are infinite-server).

enum Kind { kCpu, kNic, kSwitch, kLink, kRaid, kSan, kDelay, kPopulation, kLauncher,
            kSynchRep, kIndexBuild, kOther, kKindCount };

Kind classify(Agent* a) {
  if (dynamic_cast<CpuComponent*>(a) != nullptr) return kCpu;
  if (dynamic_cast<NicComponent*>(a) != nullptr) return kNic;
  if (dynamic_cast<SwitchComponent*>(a) != nullptr) return kSwitch;
  if (dynamic_cast<LinkComponent*>(a) != nullptr) return kLink;
  if (dynamic_cast<RaidComponent*>(a) != nullptr) return kRaid;
  if (dynamic_cast<SanComponent*>(a) != nullptr) return kSan;
  if (dynamic_cast<DelayComponent*>(a) != nullptr) return kDelay;
  if (dynamic_cast<ClientPopulation*>(a) != nullptr) return kPopulation;
  if (dynamic_cast<SeriesLauncher*>(a) != nullptr) return kLauncher;
  if (dynamic_cast<SynchRepDaemon*>(a) != nullptr) return kSynchRep;
  if (dynamic_cast<IndexBuildDaemon*>(a) != nullptr) return kIndexBuild;
  return kOther;
}

/// Route-cache counters, or zeros when the scenario has no route cache.
template <typename S>
std::pair<std::uint64_t, std::uint64_t> route_counts(const S& scenario) {
  if constexpr (requires { scenario.route_cache->hits(); scenario.route_cache->misses(); }) {
    if (scenario.route_cache) return {scenario.route_cache->hits(), scenario.route_cache->misses()};
  }
  return {0, 0};
}

struct Counters {
  std::uint64_t iterations = 0;
  std::uint64_t agent_runs = 0;
  std::vector<std::uint64_t> per_agent;
  std::uint64_t route_hits = 0;
  std::uint64_t route_misses = 0;
  std::uint64_t ops = 0;
};

Counters read_counters(GdiSimulator& sim) {
  Counters c;
  const SchedulerStats& s = sim.loop().scheduler_stats();
  c.iterations = s.iterations;
  c.agent_runs = s.agent_phase_runs;
  c.per_agent = s.per_agent_runs;
  std::tie(c.route_hits, c.route_misses) = route_counts(sim.scenario());
  for (const auto& p : sim.scenario().populations) c.ops += p->completed_operations();
  for (const auto& l : sim.scenario().launchers) {
    for (const auto& [op, stats] : l->stats()) c.ops += stats.count;
  }
  return c;
}

/// Count metrics for the work done between two counter readings.
Values layer_counts(GdiSimulator& sim, const Counters& before, const Counters& after) {
  double kind_runs[kKindCount] = {};
  for (std::size_t id = 0; id < after.per_agent.size(); ++id) {
    const std::uint64_t prior = id < before.per_agent.size() ? before.per_agent[id] : 0;
    kind_runs[classify(sim.loop().agent(static_cast<AgentId>(id)))] +=
        static_cast<double>(after.per_agent[id] - prior);
  }
  Values v;
  v["core.iterations"] = static_cast<double>(after.iterations - before.iterations);
  v["core.agent_runs"] = static_cast<double>(after.agent_runs - before.agent_runs);
  v["hardware.cpu_runs"] = kind_runs[kCpu];
  v["hardware.nic_runs"] = kind_runs[kNic];
  v["hardware.switch_runs"] = kind_runs[kSwitch];
  v["hardware.link_runs"] = kind_runs[kLink];
  v["hardware.raid_runs"] = kind_runs[kRaid];
  v["hardware.san_runs"] = kind_runs[kSan];
  v["hardware.delay_runs"] = kind_runs[kDelay];
  v["queueing.fcfs_ticks"] = kind_runs[kCpu] + kind_runs[kNic] + kind_runs[kSwitch];
  v["queueing.ps_ticks"] = kind_runs[kLink];
  v["queueing.forkjoin_ticks"] = kind_runs[kRaid] + kind_runs[kSan];
  v["queueing.delay_ticks"] = kind_runs[kDelay];
  v["software.route_hits"] = static_cast<double>(after.route_hits - before.route_hits);
  v["software.route_misses"] = static_cast<double>(after.route_misses - before.route_misses);
  v["software.population_runs"] = kind_runs[kPopulation];
  v["software.launcher_runs"] = kind_runs[kLauncher];
  v["software.ops_completed"] = static_cast<double>(after.ops - before.ops);
  v["background.synchrep_runs"] = kind_runs[kSynchRep];
  v["background.indexbuild_runs"] = kind_runs[kIndexBuild];
  v["background.daemon_runs"] = kind_runs[kSynchRep] + kind_runs[kIndexBuild];
  return v;
}

void add_values(Values& into, const Values& from) {
  for (const auto& [k, x] : from) into[k] += x;
}

/// Ratios derived from (possibly summed) counts.
void add_ratios(Values& v) {
  const double iterations = v["core.iterations"];
  const double hits = v["software.route_hits"];
  const double lookups = hits + v["software.route_misses"];
  v["core.active_mean"] = iterations > 0 ? v["core.agent_runs"] / iterations : 0.0;
  v["software.route_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
}

// ---------------------------------------------------------------------------
// Accuracy against the paper, in percentage points (mean absolute error).

double series_mean(GdiSimulator& sim, const char* label, double t0, double t1) {
  const TimeSeries* s = sim.collector().find(label);
  if (s == nullptr) throw std::runtime_error(std::string("missing series ") + label);
  return 100.0 * s->mean_between(t0, t1);
}

/// Highest hourly mean of a series over [0, end_s).
double hourly_peak(GdiSimulator& sim, const char* label, double end_s) {
  double peak = 0.0;
  for (double h = 0.0; h < end_s; h += 3600.0) {
    peak = std::max(peak, series_mean(sim, label, h, std::min(h + 3600.0, end_s)));
  }
  return peak;
}

struct PaperRow {
  const char* label;
  double paper_pct;
};

double mean_abs_err(const std::vector<std::pair<double, double>>& rows) {
  double sum = 0.0;
  for (const auto& [sim, paper] : rows) sum += std::abs(sim - paper);
  return rows.empty() ? 0.0 : sum / static_cast<double>(rows.size());
}

/// Ch. 5 Exp-3 tier CPU means vs Table 5.2 (steady state: 4 min after the
/// start to 4 min before the end).
double validation_err(GdiSimulator& sim, double end_s) {
  const PaperRow rows[] = {{"cpu/NA/app", 81.81}, {"cpu/NA/db", 57.20},
                           {"cpu/NA/fs", 56.68}, {"cpu/NA/idx", 36.99}};
  std::vector<std::pair<double, double>> v;
  for (const PaperRow& r : rows) {
    v.emplace_back(series_mean(sim, r.label, 240.0, end_s - 240.0), r.paper_pct);
  }
  return mean_abs_err(v);
}

/// Ch. 6: Table 6.1 WAN rows (12:00-16:00 GMT means) plus the D_NA tier
/// peaks of Fig 6-12 (highest hourly mean).
double consolidated_err(GdiSimulator& sim, double end_s) {
  const PaperRow wan[] = {{"net/NA->SA", 48},   {"net/NA->EU", 43},  {"net/NA->AS1", 59},
                          {"net/EU->AFR", 0},   {"net/EU->AS1", 0},  {"net/AS1->AFR", 53},
                          {"net/AS1->AS2", 47}, {"net/AS1->AUS", 54}};
  const PaperRow peaks[] = {{"cpu/NA/app", 73}, {"cpu/NA/db", 32}, {"cpu/NA/idx", 30},
                            {"cpu/NA/fs", 31}};
  std::vector<std::pair<double, double>> v;
  const double t0 = 12.0 * 3600.0, t1 = std::min(16.0 * 3600.0, end_s);
  for (const PaperRow& r : wan) v.emplace_back(series_mean(sim, r.label, t0, t1), r.paper_pct);
  for (const PaperRow& r : peaks) v.emplace_back(hourly_peak(sim, r.label, end_s), r.paper_pct);
  return mean_abs_err(v);
}

/// Ch. 7: the Sec. 7.4.1 tier peaks (highest hourly mean) and Table 7.3's
/// NA->AS1 row over the part of 12:00-16:00 GMT simulated.
double multimaster_err(GdiSimulator& sim, double end_s) {
  const PaperRow peaks[] = {{"cpu/NA/app", 78}, {"cpu/NA/db", 39}, {"cpu/EU/app", 57},
                            {"cpu/EU/db", 48}};
  std::vector<std::pair<double, double>> v;
  for (const PaperRow& r : peaks) v.emplace_back(hourly_peak(sim, r.label, end_s), r.paper_pct);
  const double t0 = std::min(12.0 * 3600.0, 0.5 * end_s);
  v.emplace_back(series_mean(sim, "net/NA->AS1", t0, end_s), 76.0);
  return mean_abs_err(v);
}

// ---------------------------------------------------------------------------
// Workloads.

constexpr std::uint64_t kDefaultSeed = 42;

struct Variant {
  const char* name;
  double think_time_mean_s;
  double synchrep_interval_s;
  std::uint64_t pin;  ///< default-seed fingerprint at the full horizon
};

struct Workload {
  const char* name;
  const char* scenario;  ///< gdisim_run --scenario
  int experiment;        ///< gdisim_run --experiment (validation only)
  double collect_every_s;
  double hours;        ///< whole run: horizon; forks: warm prefix + suffix
  double warm_hours;   ///< forks only: warm prefix
  double short_hours;  ///< self-test horizon
  double short_warm_hours;
  std::vector<Variant> variants;  ///< one entry for whole-run workloads
  double (*paper_err)(GdiSimulator&, double);
  bool forks() const { return warm_hours > 0.0; }
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"consolidated-day", "consolidated", 0, 30.0, 16.0, 0.0, 1.0, 0.0,
       {{"baseline", 14.0, 900.0, 0x42df53153520aaacULL}}, consolidated_err},
      {"validation-series", "validation", 3, 6.0, 12.0, 0.0, 0.25, 0.0,
       {{"exp3", 0.0, 0.0, 0x7332ea6001d11d6fULL}}, validation_err},
      {"multimaster-whatif", "multimaster", 0, 30.0, 14.5, 14.0, 0.8, 0.5,
       {{"baseline", 14.0, 900.0, 0xc2eaf6be0fbd6ffcULL},
        {"think-12s", 12.0, 900.0, 0x56267e2c61eacea9ULL},
        {"think-17s", 17.0, 900.0, 0x46d9613179e73abaULL},
        {"synchrep-10min", 14.0, 600.0, 0x1ef2257b5767a10aULL}},
       multimaster_err},
  };
  return all;
}

Scenario build_scenario(const Workload& w, const Variant& v, std::uint64_t seed, double hours) {
  if (std::string_view(w.scenario) == "validation") {
    ValidationOptions o;
    o.experiment = w.experiment;
    o.seed = seed;
    // gdisim_run's rule: series launch until three minutes before the end.
    o.stop_launch_s = hours * 3600.0 - 3.0 * 60.0;
    return make_validation_scenario(o);
  }
  GlobalOptions o;
  o.scale = 0.10;
  o.seed = seed;
  o.think_time_mean_s = v.think_time_mean_s;
  o.synchrep_interval_s = v.synchrep_interval_s;
  return std::string_view(w.scenario) == "multimaster" ? make_multimaster_scenario(o)
                                                       : make_consolidated_scenario(o);
}

/// The library's default config with the workload's collection period;
/// worker threads are capped at the host's core count.
template <typename Config = SimulatorConfig>
Config sim_config(const Workload& w, std::size_t cores) {
  Config cfg;
  cfg.collect_every_s = w.collect_every_s;
  if constexpr (requires { cfg.threads; }) cfg.threads = std::min<std::size_t>(cfg.threads, cores);
  return cfg;
}

template <typename Config = SimulatorConfig>
std::size_t config_threads(const Config& cfg) {
  if constexpr (requires { cfg.threads; }) {
    return cfg.threads;
  } else {
    return 0;
  }
}

// ---------------------------------------------------------------------------
// One measured unit: a whole run, or a round of one fork per variant.

/// Host wall and CPU seconds of consecutive pieces of a unit: 15-minute
/// run slices of a whole run, or whole forks of a fork round.
struct Slices {
  std::vector<double> wall, cpu;

  void add(double wall_s, double cpu_s) {
    wall.push_back(wall_s);
    cpu.push_back(cpu_s);
  }
  double wall_sum() const { return std::accumulate(wall.begin(), wall.end(), 0.0); }
  double cpu_sum() const { return std::accumulate(cpu.begin(), cpu.end(), 0.0); }
};

/// The fastest repeat of each slice, summed. Interference from other
/// processes on the host only ever adds time, so per-slice minima over
/// repeats of identical work estimate the program's own cost.
Slices best_of(const std::vector<const Slices*>& repeats) {
  Slices best;
  if (repeats.empty()) return best;
  best = *repeats.front();
  for (const Slices* r : repeats) {
    if (r->wall.size() != best.wall.size()) throw std::logic_error("slice count differs");
    for (std::size_t i = 0; i < best.wall.size(); ++i) {
      best.wall[i] = std::min(best.wall[i], r->wall[i]);
      best.cpu[i] = std::min(best.cpu[i], r->cpu[i]);
    }
  }
  return best;
}

constexpr double kSliceSeconds = 15.0 * 60.0;

struct Unit {
  bool traced = false;
  bool completed = false;  ///< ran to the end without throwing (checks may still fail)
  int failures = 0;
  int attempts = 0;
  Slices slices;        ///< timed phase: the run, or each fork's build..suffix
  double sim_s = 0.0;   ///< simulated seconds covered by the timed phase
  std::uint64_t allocs = 0;
  std::vector<double> load_s;
  double save_s = -1.0, snapshot_mb = -1.0;  ///< whole-run snapshot probe
  double paper_err = 0.0;
  Values counts;  ///< exact, from public state
  Values timing;  ///< traced-only probe values
};

struct Bench {
  const Workload& w;
  std::uint64_t seed;
  bool full;  ///< default horizon (pins apply only there, at the default seed)
  double hours;
  double warm_hours;
  std::size_t cores;
  SpanLog& log;
  std::vector<std::uint8_t> warm_payload{};
  std::vector<std::uint64_t> first_fp{};  ///< per variant, first unit's fingerprint

  void fail(Unit& u, const std::string& why) {
    ++u.failures;
    std::cerr << "perfbench: FAIL " << w.name << ": " << why << "\n";
  }

  /// Checks one fingerprint: against the pin (default seed, full horizon),
  /// against earlier units of this process, and — for perturbed forks —
  /// that it diverges from the baseline variant.
  void check_fp(Unit& u, std::size_t vi, std::uint64_t fp) {
    const Variant& v = w.variants[vi];
    if (full && seed == kDefaultSeed && fp != v.pin) {
      fail(u, std::string(v.name) + ": fingerprint " + hex64(fp) + " misses pin " + hex64(v.pin));
    }
    if (first_fp.size() <= vi) first_fp.resize(vi + 1, 0);
    if (first_fp[vi] == 0) {
      first_fp[vi] = fp;
    } else if (first_fp[vi] != fp) {
      fail(u, std::string(v.name) + ": fingerprint " + hex64(fp) + " differs from earlier unit " +
                  hex64(first_fp[vi]));
    }
    if (vi > 0 && !first_fp.empty() && fp == first_fp[0]) {
      fail(u, std::string(v.name) + ": perturbed fork did not diverge from baseline");
    }
  }

  /// Runs `sim` to `end_s` in slices ending on the 15-minute grid and
  /// records each slice's wall and CPU seconds.
  Slices run_slices(GdiSimulator& sim, double end_s, PhaseProbe* probe, int parent) {
    Slices out;
    while (sim.now_seconds() < end_s - 1e-9) {
      const double next = std::min(
          end_s, (std::floor(sim.now_seconds() / kSliceSeconds + 1e-9) + 1.0) * kSliceSeconds);
      int span = -1;
      if (probe != nullptr) {
        char name[32];
        std::snprintf(name, sizeof(name), "run_until %.2fh", next / 3600.0);
        span = log.open(name, parent);
        probe->set_parent(span);
      }
      const auto t0 = Clock::now();
      const double c0 = process_cpu_s();
      sim.run_until_seconds(next);
      out.add(secs(t0, Clock::now()), process_cpu_s() - c0);
      if (probe != nullptr) probe->end_slice();
      log.close(span);
    }
    return out;
  }

  Unit whole_run(bool traced, bool snapshot_probe, int parent) {
    Unit u;
    u.traced = traced;
    u.attempts = 1;
    const Variant& v = w.variants[0];
    const int span = log.open(traced ? "run (traced)" : "run", parent);
    try {
      PhaseProbe probe(log);
      const int b = log.open("build", span);
      Scenario scenario = build_scenario(w, v, seed, hours);
      log.close(b);
      const int c = log.open("construct", span);
      GdiSimulator sim(std::move(scenario), sim_config(w, cores));
      log.close(c);
      const double end_s = hours * 3600.0;
      if (traced) probe.attach(sim, static_cast<std::size_t>(end_s / sim.loop().clock().tick_seconds()) + 8);

      const Counters before = read_counters(sim);
      const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
      u.slices = run_slices(sim, end_s, traced ? &probe : nullptr, span);
      u.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
      u.sim_s = end_s;
      u.counts = layer_counts(sim, before, read_counters(sim));
      add_ratios(u.counts);
      const std::uint64_t fp = result_fingerprint(sim);
      check_fp(u, 0, fp);
      u.paper_err = w.paper_err(sim, end_s);
      if (traced) probe.add_to(u.timing);

      if (snapshot_probe) {
        // Snapshot round trip of the final state: times save/load and checks
        // that the restored simulator reports the same results.
        const int s = log.open("save", span);
        const auto s0 = Clock::now();
        const std::vector<std::uint8_t> payload = sim.save_state();
        const auto s1 = Clock::now();
        log.close(s);
        const int l = log.open("load", span);
        sim.load_state(payload);
        const auto s2 = Clock::now();
        log.close(l);
        u.save_s = secs(s0, s1);
        u.load_s.push_back(secs(s1, s2));
        u.snapshot_mb = static_cast<double>(payload.size()) / 1e6;
        if (result_fingerprint(sim) != fp) fail(u, "fingerprint changed across save/load");
      }
      u.completed = true;
    } catch (const std::exception& e) {
      fail(u, std::string("run threw: ") + e.what());
    }
    log.close(span);
    return u;
  }

  /// Set-up of the fork sweep: warms a baseline run into the peak and
  /// saves it. Runs once before the forks and once after them, so the
  /// prefix time is a per-slice best of two runs half a minute apart; both
  /// runs must save the same state.
  void warm_prefix(int parent) {
    const int span = log.open("warm prefix", parent);
    GdiSimulator sim(build_scenario(w, w.variants[0], seed, hours), sim_config(w, cores));
    warm_slices.push_back(run_slices(sim, warm_hours * 3600.0, nullptr, span));
    log.close(span);
    const int s = log.open("save", parent);
    const auto t0 = Clock::now();
    std::vector<std::uint8_t> payload = sim.save_state();
    warm_save_s.push_back(secs(t0, Clock::now()));
    log.close(s);
    if (!warm_payload.empty() && payload != warm_payload) {
      ++setup_failures;
      std::cerr << "perfbench: FAIL " << w.name << ": two warm prefixes saved different state\n";
    }
    warm_payload = std::move(payload);
  }
  /// Seconds of one warm prefix plus its save, as a per-slice best.
  double warm_seconds() const {
    std::vector<const Slices*> runs;
    for (const Slices& s : warm_slices) runs.push_back(&s);
    return best_of(runs).wall_sum() + *std::min_element(warm_save_s.begin(), warm_save_s.end());
  }
  std::vector<Slices> warm_slices{};
  std::vector<double> warm_save_s{};
  int setup_failures = 0;

  Unit fork_round(bool traced, int parent) {
    Unit u;
    u.traced = traced;
    const int round_span = log.open(traced ? "fork round (traced)" : "fork round", parent);
    const double end_s = hours * 3600.0;
    u.completed = true;
    for (std::size_t vi = 0; vi < w.variants.size(); ++vi) {
      const Variant& v = w.variants[vi];
      ++u.attempts;
      const int span = log.open(std::string("fork ") + v.name, round_span);
      try {
        PhaseProbe probe(log);
        const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
        const double c0 = process_cpu_s();
        const auto t0 = Clock::now();
        const int b = log.open("build", span);
        Scenario scenario = build_scenario(w, v, seed, hours);
        log.close(b);
        const int c = log.open("construct", span);
        GdiSimulator sim(std::move(scenario), sim_config(w, cores));
        log.close(c);
        const auto t2 = Clock::now();
        if (traced) {
          probe.attach(sim, static_cast<std::size_t>((end_s - warm_hours * 3600.0) /
                                                     sim.loop().clock().tick_seconds()) + 8);
        }
        const int l = log.open("load", span);
        sim.load_state(warm_payload);
        log.close(l);
        const auto t3 = Clock::now();
        const Counters before = read_counters(sim);
        const double sim_start = sim.now_seconds();
        run_slices(sim, end_s, traced ? &probe : nullptr, span);
        u.slices.add(secs(t0, Clock::now()), process_cpu_s() - c0);
        u.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
        u.sim_s += end_s - sim_start;
        u.load_s.push_back(secs(t2, t3));
        add_values(u.counts, layer_counts(sim, before, read_counters(sim)));
        const std::uint64_t fp = result_fingerprint(sim);
        check_fp(u, vi, fp);
        if (vi == 0) u.paper_err = w.paper_err(sim, end_s);
        if (traced) {
          Values t;
          probe.add_to(t);
          add_values(u.timing, t);
        }
      } catch (const std::exception& e) {
        u.completed = false;
        fail(u, std::string(v.name) + ": fork threw: " + e.what());
      }
      log.close(span);
    }
    // Timing values summed over the round's forks; percentiles averaged.
    if (traced && !w.variants.empty()) {
      u.timing["core.iter_ns_p50"] /= static_cast<double>(w.variants.size());
      u.timing["core.iter_ns_p99"] /= static_cast<double>(w.variants.size());
    }
    add_ratios(u.counts);
    log.close(round_span);
    return u;
  }
};

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  bool short_run = false;
  bool describe = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "gdisim_perfbench: " << why
            << "\nusage: gdisim_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "         [--short] [--trace-out PATH] [--commit ID] [--source-digest HEX]\n"
               "       gdisim_perfbench --describe\n";
  std::exit(2);
}

double parse_number(const char* s, const char* flag) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) usage((std::string("bad value for ") + flag).c_str());
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = next();
    } else if (arg == "--seed") {
      const char* s = next();
      char* end = nullptr;
      errno = 0;
      o.seed = std::strtoull(s, &end, 10);
      if (*s < '0' || *s > '9' || *end != '\0' || errno != 0) usage("--seed must be a whole number >= 0");
    } else if (arg == "--seconds") {
      o.seconds = parse_number(next(), "--seconds");
      if (o.seconds <= 0) usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      const std::string t = next();
      if (t != "0" && t != "1") usage("--trace must be 0 or 1");
      o.trace = t == "1";
    } else if (arg == "--short") {
      o.short_run = true;
    } else if (arg == "--describe") {
      o.describe = true;
    } else if (arg == "--trace-out") {
      o.trace_out = next();
    } else if (arg == "--commit") {
      o.commit = next();
    } else if (arg == "--source-digest") {
      o.source_digest = next();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  return o;
}

constexpr std::string_view kBuildType = PERFBENCH_BUILD_TYPE;

bool optimized_build() {
#ifdef __OPTIMIZE__
  return kBuildType == "Release" || kBuildType == "RelWithDebInfo" || kBuildType == "MinSizeRel";
#else
  return false;
#endif
}

/// Metric table, pins and gdisim_run equivalents, for the self-test.
void describe() {
  std::cout << "{\"metrics\":[";
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    std::cout << (first ? "" : ",") << "{\"name\":" << json_str(m.name)
              << ",\"unit\":" << json_str(m.unit) << ",\"better\":" << json_str(m.better)
              << ",\"tier\":" << json_str(m.tier == Tier::kEndToEnd ? "end_to_end" : "per_layer")
              << ",\"exact\":" << (m.exact ? "true" : "false") << "}";
    first = false;
  }
  std::cout << "],\"default_seed\":" << kDefaultSeed << ",\"workloads\":[";
  first = true;
  for (const Workload& w : workloads()) {
    std::cout << (first ? "" : ",") << "{\"name\":" << json_str(w.name)
              << ",\"scenario\":" << json_str(w.scenario) << ",\"experiment\":" << w.experiment
              << ",\"hours\":" << json_num(w.hours) << ",\"short_hours\":" << json_num(w.short_hours)
              << ",\"forks\":" << (w.forks() ? "true" : "false") << ",\"pins\":{";
    for (std::size_t i = 0; i < w.variants.size(); ++i) {
      std::cout << (i == 0 ? "" : ",") << json_str(w.variants[i].name) << ":"
                << json_str(hex64(w.variants[i].pin));
    }
    std::cout << "}}";
    first = false;
  }
  std::cout << "]}\n";
}

std::string values_json(const Values& v) {
  std::string out = "{";
  for (const auto& [k, x] : v) out += (out.size() > 1 ? "," : "") + json_str(k) + ":" + json_num(x);
  return out + "}";
}

int run(const Options& opt) {
  const Workload* found = nullptr;
  for (const Workload& w : workloads()) {
    if (opt.workload == w.name) found = &w;
  }
  if (found == nullptr) usage(("unknown workload '" + opt.workload + "'").c_str());
  const Workload& w = *found;
  const std::size_t cores = nproc();
  const SimulatorConfig probe_cfg = sim_config(w, cores);

  SpanLog log(opt.trace);
  Bench bench{w, opt.seed, !opt.short_run,
              opt.short_run ? w.short_hours : w.hours,
              opt.short_run ? w.short_warm_hours : w.warm_hours,
              cores, log};
  const int root = log.open(std::string("workload ") + w.name, -1);

  // Set-up: scenario build + simulator construction. Host speed drifts over
  // seconds, so the repeats are spread over the whole run — a few before the
  // timed phase and a few after each step — and setup_s takes their median.
  // The fork sweep adds its warm prefix and save_state.
  std::vector<double> setup_samples, build_samples, construct_samples;
  std::string engine_name;
  auto setup_repeats = [&](int n, int parent) {
    const int span = log.open("setup", parent);
    for (int i = 0; i < n; ++i) {
      const int b = log.open("build", span);
      const auto t0 = Clock::now();
      Scenario scenario = build_scenario(w, w.variants[0], opt.seed, bench.hours);
      const auto t1 = Clock::now();
      log.close(b);
      const int c = log.open("construct", span);
      GdiSimulator sim(std::move(scenario), probe_cfg);
      const auto t2 = Clock::now();
      log.close(c);
      engine_name = std::string(sim.loop().engine().name());
      build_samples.push_back(secs(t0, t1));
      construct_samples.push_back(secs(t1, t2));
      setup_samples.push_back(secs(t0, t2));
    }
    log.close(span);
  };
  constexpr int kSetupRepeatsPerStep = 7;
  setup_repeats(3, root);
  if (w.forks()) bench.warm_prefix(root);

  // Timed phase: repeat whole units until the budget is spent. A traced
  // pass alternates untraced and traced units in pairs (order flipped each
  // pair) so the tracing overhead is measured on equal work.
  std::vector<Unit> units;
  const auto t_begin = Clock::now();
  std::vector<double> step_s;
  for (int k = 0;; ++k) {
    const double elapsed = secs(t_begin, Clock::now());
    const double est = median(step_s);
    if (k > 0 && elapsed + est > opt.seconds + 0.5 * est) break;
    const auto s0 = Clock::now();
    std::vector<bool> kinds = {false};
    if (opt.trace) kinds = k % 2 == 0 ? std::vector<bool>{false, true} : std::vector<bool>{true, false};
    for (bool traced : kinds) {
      const bool snapshot_probe = traced && !w.forks() && units.size() < 2;
      units.push_back(w.forks() ? bench.fork_round(traced, root)
                                : bench.whole_run(traced, snapshot_probe, root));
      const Unit& u = units.back();
      std::fprintf(stderr, "perfbench: %s unit %zu%s: %.3f s wall, %.1f sim_s/s, %.3f cpu_s/sim_h\n",
                   w.name, units.size(), traced ? " (traced)" : "", u.slices.wall_sum(),
                   u.sim_s / u.slices.wall_sum(), u.slices.cpu_sum() / (u.sim_s / 3600.0));
    }
    setup_repeats(kSetupRepeatsPerStep, root);
    step_s.push_back(secs(s0, Clock::now()));
  }
  if (w.forks()) bench.warm_prefix(root);
  const double setup_s = median(setup_samples) + (w.forks() ? bench.warm_seconds() : 0.0);
  log.close(root);

  int attempted = w.forks() ? 2 : 0;  // the two warm prefixes
  int failed = bench.setup_failures;
  for (const Unit& u : units) {
    attempted += u.attempts;
    failed += u.failures;
  }
  // Counts must agree exactly between every unit, traced or not.
  const Unit* ref = nullptr;
  for (const Unit& u : units) {
    if (!u.completed) continue;
    if (ref == nullptr) {
      ref = &u;
    } else if (u.counts != ref->counts || u.paper_err != ref->paper_err) {
      ++failed;
      std::cerr << "perfbench: FAIL " << w.name << ": counts differ between units\n";
    }
  }
  if (ref == nullptr) {
    std::cerr << "perfbench: no unit of " << w.name << " completed\n";
    return 1;
  }

  auto collect = [&](bool traced, auto&& f) {
    std::vector<double> v;
    for (const Unit& u : units) {
      if (u.traced == traced && u.completed) v.push_back(f(u));
    }
    return v;
  };
  // Per-slice best over the completed units of one kind.
  auto best = [&](bool traced) {
    std::vector<const Slices*> repeats;
    for (const Unit& u : units) {
      if (u.traced == traced && u.completed) repeats.push_back(&u.slices);
    }
    return best_of(repeats);
  };
  const double sim_h = ref->sim_s / 3600.0;
  Values out;
  if (!opt.trace) {
    const Slices fastest = best(false);
    out["sim_rate"] = ref->sim_s / fastest.wall_sum();
    out["cpu_s_per_sim_h"] = fastest.cpu_sum() / sim_h;
    out["peak_rss_mb"] = peak_rss_mb();
    out["setup_s"] = setup_s;
    out["paper_err_pp"] = ref->paper_err;
  } else {
    Values counts_u, counts_t;
    for (const Unit& u : units) {
      if (u.completed) (u.traced ? counts_t : counts_u) = u.counts;
    }
    std::cout << "counts-untraced " << values_json(counts_u) << "\n";
    std::cout << "counts-traced " << values_json(counts_t) << "\n";
    out = ref->counts;
    for (const MetricDef& m : kMetrics) {
      if (m.tier != Tier::kLayer || out.count(m.name) > 0) continue;
      const std::vector<double> v = collect(true, [&m](const Unit& u) {
        const auto it = u.timing.find(m.name);
        return it == u.timing.end() ? 0.0 : it->second;
      });
      if (!v.empty()) out[m.name] = median(v);
    }
    out["core.ns_per_agent_run"] =
        out["core.agent_runs"] > 0
            ? 1e9 * (out["core.tick_phase_s"] + out["core.interaction_phase_s"]) / out["core.agent_runs"]
            : 0.0;
    std::vector<double> loads, saves, mbs;
    for (const Unit& u : units) {
      loads.insert(loads.end(), u.load_s.begin(), u.load_s.end());
      if (u.save_s >= 0) saves.push_back(u.save_s);
      if (u.snapshot_mb >= 0) mbs.push_back(u.snapshot_mb);
    }
    if (w.forks()) {
      saves.insert(saves.end(), bench.warm_save_s.begin(), bench.warm_save_s.end());
      mbs.push_back(static_cast<double>(bench.warm_payload.size()) / 1e6);
    }
    out["sim.load_s"] = median(loads);
    out["sim.save_s"] = median(saves);
    out["sim.snapshot_mb"] = median(mbs);
    out["config.build_s"] = median(build_samples);
    out["sim.construct_s"] = median(construct_samples);
    const std::vector<double> alloc_rates =
        collect(false, [](const Unit& u) { return static_cast<double>(u.allocs) / (u.sim_s / 3600.0); });
    out["sim.allocs_per_sim_h"] = median(alloc_rates);
    out["trace.overhead_pct"] = 100.0 * (1.0 - best(false).wall_sum() / best(true).wall_sum());
  }

  for (std::size_t vi = 0; vi < bench.first_fp.size(); ++vi) {
    std::cout << "fingerprint " << w.name << " " << w.variants[vi].name << " "
              << hex64(bench.first_fp[vi]) << "\n";
  }
  std::ostringstream stamp;
  stamp << "{\"workload\":" << json_str(w.name) << ",\"seed\":" << opt.seed
        << ",\"trace\":" << (opt.trace ? 1 : 0) << ",\"seconds\":" << json_num(opt.seconds)
        << ",\"hours\":" << json_num(bench.hours) << ",\"units\":" << units.size()
        << ",\"nproc\":" << cores << ",\"compiler\":" << json_str("gcc " __VERSION__)
        << ",\"build_type\":" << json_str(kBuildType) << ",\"commit\":" << json_str(opt.commit)
        << ",\"source_digest\":" << json_str(opt.source_digest)
        << ",\"engine\":" << json_str(engine_name) << ",\"threads\":" << config_threads(probe_cfg)
        << "}";
  std::cout << "stamp " << stamp.str() << "\n";
  if (!opt.trace_out.empty() && opt.trace) {
    if (!log.write(opt.trace_out, stamp.str())) {
      std::cerr << "perfbench: cannot write " << opt.trace_out << "\n";
      return 1;
    }
  }

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    if ((m.tier == Tier::kEndToEnd) != !opt.trace) continue;
    const auto it = out.find(m.name);
    std::cout << (first ? "" : ", ") << json_str(m.name) << ": {\"value\": "
              << json_num(it == out.end() ? 0.0 : it->second) << ", \"unit\": " << json_str(m.unit)
              << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.describe) {
    describe();
    return 0;
  }
  if (!optimized_build()) {
    std::cerr << "gdisim_perfbench: refusing to measure an unoptimised build (build type '"
              << kBuildType << "'); configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (opt.workload.empty()) usage("--workload is required");
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "gdisim_perfbench: " << e.what() << "\n";
    return 1;
  }
}
