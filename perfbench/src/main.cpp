// ftbar_perfbench: runs one benchmark workload and prints its metrics.
//
//   ftbar_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (README.md gives the reasons and the layer map):
//   mb_clean       core::FaultTolerantBarrier, 4 threads, fault-free links
//   hwbar_central  hwbar::CentralHwBarrier, 3 threads, fault-free
//   check_rb14     check::Checker on RB, ring N=14, 8 phases, to verdict
//
// Barrier workloads are closed loops: a thread arrives only after its
// previous release plus seeded phase work. Every layer is timed from
// outside, around calls into its public functions. --trace 0 measures the
// untraced run; --trace 1 repeats it untraced and then traced (a
// CountingSink on the barrier), for the per-layer numbers and the tracing
// overhead. Stdout is a table, then one JSON line with every metric.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis.hpp"
#include "check/checker.hpp"
#include "check/programs.hpp"
#include "core/ft_barrier.hpp"
#include "hwbar/central.hpp"
#include "selftest.hpp"
#include "sink.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

namespace {

using namespace ftbar;
namespace pb = perfbench;

constexpr std::uint64_t kNotYet = ~std::uint64_t{0};
constexpr double kEpisodeDeadlineUs = 1e6;  ///< slower episodes count as failed
constexpr int kLifecycles = 41;     ///< short lifecycles per run, for teardown_s
constexpr int kSetupRounds = 201;   ///< timed set-up rounds per run
constexpr int kSetupBatch = 32;     ///< barriers built per timed set-up round
constexpr int kNumPhases = 64;      ///< phase counter modulus of every barrier
constexpr double kWarmupS = 0.5;    ///< untimed start of every windowed run

double now_us() { return trace::mono_us(); }

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// VmHWM of /proc/self/status. Not getrusage's ru_maxrss: that one keeps the
/// parent's peak across execve, so under a Python launcher it reads Python.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  return cpus;
}

void bind_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

/// Pins the calling thread to the slot-th allowed CPU, so participants
/// never share a CPU or migrate between runs.
void pin_to_cpu(int slot) {
  const auto cpus = allowed_cpus();
  if (!cpus.empty()) bind_to_cpu(cpus[static_cast<std::size_t>(slot) % cpus.size()]);
}

/// One SCHED_IDLE spinner per CPU for the object's lifetime. A CPU that
/// would otherwise halt while its participant sleeps keeps running the
/// spinner, which yields to any woken thread at once; on a VM this keeps
/// hypervisor vCPU wake-up latency out of the barrier's numbers.
class IdleSpinners {
 public:
  IdleSpinners() {
    for (const int c : allowed_cpus()) {
      threads_.emplace_back([this, c] {
        bind_to_cpu(c);
        sched_param none{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &none);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

double median(std::vector<double> v) { return pb::summarize(std::move(v)).p50; }

// ---------------------------------------------------------------------------
// Report: a table for people, one JSON line for the runner.
// ---------------------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0, const std::string& note = "") {
    rows_.push_back({name, value, unit, samples, note});
  }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    for (const auto& r : rows_) {
      std::printf("  %-32s %14.6g %-6s", r.name.c_str(), r.value, r.unit.c_str());
      if (r.samples > 0) std::printf("  n=%zu", r.samples);
      if (!r.note.empty()) std::printf("  %s", r.note.c_str());
      std::printf("\n");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  rows_[i].name.c_str(), rows_[i].value, rows_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
    std::string note;
  };
  std::vector<Row> rows_;
};

/// Adds a latency summary as NAME_p50 and NAME_p99 (the tail rule of
/// analysis.hpp; the note says when the tail had to fall below p99).
void add_latency(Report& rep, const std::string& prefix, const std::string& suffix,
                 const std::vector<double>& samples) {
  const auto s = pb::summarize(samples);
  rep.add(prefix + "_p50" + suffix, s.p50, "us", s.n);
  char note[64] = "";
  if (s.has_tail && s.tail_pct != 99.0) {
    std::snprintf(note, sizeof note, "tail is p%.3f (too few samples for p99)", s.tail_pct);
  }
  if (!s.has_tail) std::snprintf(note, sizeof note, "no tail: under 11 samples");
  rep.add(prefix + "_p99" + suffix, s.tail, "us", s.n, note);
}

// ---------------------------------------------------------------------------
// Closed-loop barrier driver.
// ---------------------------------------------------------------------------

struct Step {
  int phase = 0;
  bool repeated = false;
  bool failed = false;  ///< hwbar death or eviction
  std::uint64_t episode = kNotYet;  ///< hwbar's own episode count, if any
};

struct LoopSpec {
  int threads = 4;
  std::uint64_t seed = 1;
  std::uint64_t stride = 1;  ///< timestamp every stride-th call (no repeats then)
  double work_lo_us = 0, work_hi_us = 0;  ///< timed phase work
  int spin_hi = 0;                        ///< untimed phase work, in spins
  double window_s = 0;  ///< 0: stop after fixed_commits instead
  std::uint64_t fixed_commits = 32;
  std::size_t capacity = 1;  ///< Call records per thread, allocated up front
};

struct LoopRun {
  double teardown_s = 0;  ///< end of the window to every thread joined
  std::vector<std::vector<pb::Call>> calls;
  std::uint64_t c_start = 0, c_end = 0;  ///< window = commits (c_start, c_end]
  double t_ws = 0, t_we = 0;             ///< window edges (thread 0's releases)
  std::uint64_t failures = 0;            ///< death/eviction tickets
  pb::Episodes episodes;
  std::uint64_t window_calls = 0;  ///< arrive_and_wait calls in the window

  [[nodiscard]] double episodes_per_s() const {
    return static_cast<double>(c_end - c_start) / ((t_we - t_ws) * 1e-6);
  }
  [[nodiscard]] std::vector<double> waits() const {
    std::vector<double> out;
    for (const auto& t : calls) {
      for (const auto& c : t) {
        if (c.commit > c_start && c.commit <= c_end) out.push_back(c.release_us - c.arrive_us);
      }
    }
    return out;
  }
  [[nodiscard]] std::uint64_t late_episodes() const {
    return static_cast<std::uint64_t>(
        std::count_if(episodes.latency_us.begin(), episodes.latency_us.end(),
                      [](double l) { return l > kEpisodeDeadlineUs; }));
  }
};

void phase_work(const LoopSpec& spec, util::Rng& rng) {
  if (spec.work_hi_us > 0) {
    const double until =
        now_us() + spec.work_lo_us + (spec.work_hi_us - spec.work_lo_us) * rng.uniform01();
    while (now_us() < until) {
    }
  }
  if (spec.spin_hi > 0) {
    const auto spins = rng.uniform(static_cast<std::uint64_t>(spec.spin_hi));
    for (std::uint64_t i = 0; i < spins; ++i) std::atomic_signal_fence(std::memory_order_seq_cst);
  }
}

/// Builds a barrier with `make`, runs spec.threads closed-loop participants
/// on it and joins them. `on_edge(bar, stage)` runs on thread 0 at the start
/// and end of the timed window. The barrier is returned alive, for stats.
template <class Bar>
std::pair<LoopRun, std::unique_ptr<Bar>> run_loop(
    const LoopSpec& spec, const std::function<std::unique_ptr<Bar>()>& make,
    const std::function<void(Bar&, pb::Stage)>& on_edge) {
  LoopRun run;
  const auto n = static_cast<std::size_t>(spec.threads);
  run.calls.resize(n);
  for (auto& rec : run.calls) rec.resize(spec.capacity);  // touched now, not mid-run
  std::vector<std::size_t> used(n, 0);
  std::vector<double> ready(n, 0);
  std::atomic<std::uint64_t> target{spec.window_s > 0 ? kNotYet : spec.fixed_commits};
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> failures{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t done = 0;
  double t_last = 0;  // thread 0's last release

  auto bar = make();
  auto body = [&](int tid) {
    const auto ut = static_cast<std::size_t>(tid);
    pin_to_cpu(tid);
    ready[ut] = now_us();
    std::uint64_t sm = spec.seed ^ (0x9e37ULL * static_cast<std::uint64_t>(tid + 1));
    util::Rng rng(util::splitmix64(sm));
    auto& rec = run.calls[ut];
    std::uint64_t calls = 0, commits = 0;
    pb::Stage stage = pb::kWarmup;
    while (commits < target.load(std::memory_order_acquire) &&
           !abort.load(std::memory_order_relaxed)) {
      phase_work(spec, rng);
      const bool sample = calls % spec.stride == 0;
      const double ta = sample ? now_us() : 0;
      const Step s = bar->arrive(tid);
      const double tr = sample ? now_us() : 0;
      ++calls;
      if (s.failed) {
        failures.fetch_add(1);
        abort.store(true);
        break;
      }
      if (!s.repeated) ++commits;
      if (s.episode != kNotYet && s.episode != commits) {
        failures.fetch_add(1);  // hwbar episode count and ours disagree
      }
      if (sample && used[ut] < rec.size()) {
        rec[used[ut]++] = pb::Call{ta, tr, commits, s.phase, s.repeated};
      }
      if (tid != 0 || !sample || s.repeated) continue;
      t_last = tr;
      if (stage == pb::kWarmup && spec.window_s > 0 &&
          tr >= ready[0] + kWarmupS * 1e6) {
        stage = pb::kWindow;
        run.c_start = commits;
        run.t_ws = tr;
        on_edge(*bar, pb::kWindow);
      } else if (stage == pb::kWindow && tr >= run.t_ws + spec.window_s * 1e6) {
        stage = pb::kDrain;
        run.c_end = commits;
        run.t_we = tr;
        on_edge(*bar, pb::kDrain);
        // Every peer is at most one commit ahead of thread 0, so all of
        // them see this target before reaching it.
        target.store(commits + 2, std::memory_order_release);
      }
    }
    bar->leave(tid);
    const std::lock_guard<std::mutex> lock(done_mutex);
    ++done;
    done_cv.notify_one();
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < spec.threads; ++t) threads.emplace_back(body, t);
  {
    // A barrier that stops committing would block forever: give up loudly
    // well inside the runner's time limit instead.
    std::unique_lock<std::mutex> lock(done_mutex);
    const auto limit = std::chrono::steady_clock::now() +
                       std::chrono::duration<double>(kWarmupS + spec.window_s + 60);
    if (!done_cv.wait_until(lock, limit, [&] { return done == n; })) {
      std::fprintf(stderr, "error: barrier run did not finish (no commit progress)\n");
      std::fflush(stdout);
      std::_Exit(3);
    }
  }
  for (auto& t : threads) t.join();
  const double t_joined = now_us();

  if (spec.window_s <= 0) {
    run.c_end = spec.fixed_commits;
    run.t_we = t_last;
  }
  run.teardown_s = (t_joined - run.t_we) * 1e-6;
  run.failures = failures.load();
  for (std::size_t t = 0; t < n; ++t) run.calls[t].resize(used[t]);
  run.episodes = pb::derive_episodes(run.calls, kNumPhases, run.c_start + 1, run.c_end + 1);
  for (const auto& t : run.calls) {
    for (const auto& c : t) run.window_calls += c.commit > run.c_start && c.commit <= run.c_end;
  }
  return {std::move(run), std::move(bar)};
}

struct MbBar {
  explicit MbBar(int n, const core::BarrierOptions& o) : bar(n, o) {}
  Step arrive(int tid) {
    const auto t = bar.arrive_and_wait(tid);
    return {t.phase, t.repeated, false, kNotYet};
  }
  void leave(int tid) { bar.finalize(tid); }
  core::FaultTolerantBarrier bar;
};

struct HwBar {
  explicit HwBar(int n, const hwbar::Options& o) : bar(n, o) {}
  Step arrive(int tid) {
    const auto t = bar.arrive_and_wait(tid);
    return {t.phase, false, t.status != hwbar::ArriveStatus::kReleased, t.episode};
  }
  void leave(int /*tid*/) {}
  hwbar::CentralHwBarrier bar;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Counts a run's episodes and its failures: late or misphased episodes,
/// death/eviction tickets, and a window that committed nothing.
void tally(Outcome& out, const LoopRun& run) {
  out.attempted += run.episodes.latency_us.size();
  out.failed += run.late_episodes() + run.episodes.phase_errors + run.failures;
  if (run.episodes.latency_us.empty()) ++out.failed;
}

/// Short lifecycles (build, start, 32 commits, leave, join): the median of
/// their teardown_s.
template <class Bar>
double lifecycles(Outcome& out, LoopSpec spec,
                  const std::function<std::unique_ptr<Bar>(std::uint64_t)>& make) {
  std::vector<double> teardown;
  spec.window_s = 0;
  spec.fixed_commits = 32;
  spec.stride = 1;
  spec.capacity = 256;
  for (int r = 0; r < kLifecycles; ++r) {
    const std::uint64_t seed = spec.seed + 1000 + static_cast<std::uint64_t>(r);
    auto [run, bar] = run_loop<Bar>(spec, [&] { return make(seed); }, [](Bar&, pb::Stage) {});
    teardown.push_back(run.teardown_s);
    tally(out, run);
  }
  return median(teardown);
}

/// Time to construct one barrier: the median over kSetupRounds rounds, each
/// building kSetupBatch barriers back to back (destroyed untimed after).
template <class Bar>
double construction_s(std::uint64_t seed,
                      const std::function<std::unique_ptr<Bar>(std::uint64_t)>& make) {
  std::vector<double> per_barrier;
  std::vector<std::unique_ptr<Bar>> bars(kSetupBatch);
  for (int r = 0; r < kSetupRounds; ++r) {
    const double t0 = now_us();
    for (auto& b : bars) b = make(seed + static_cast<std::uint64_t>(r));
    per_barrier.push_back((now_us() - t0) * 1e-6 / kSetupBatch);
    for (auto& b : bars) b.reset();
  }
  return median(per_barrier);
}

/// Set-up, the short lifecycles' teardown, and the peak resident memory they
/// reach. Run before the timed window, whose timestamp buffers would
/// otherwise make up most of the peak.
template <class Bar>
void add_lifecycle(Report& rep, Outcome& out, const LoopSpec& spec,
                   const std::function<std::unique_ptr<Bar>(std::uint64_t)>& make) {
  rep.add("setup_s", construction_s<Bar>(spec.seed, make), "s", kSetupRounds,
          "barrier construction, median of rounds");
  rep.add("teardown_s", lifecycles<Bar>(out, spec, make), "s", kLifecycles,
          "median of short lifecycles");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB", 0, "after the short lifecycles");
}

void add_episode_metrics(Report& rep, const LoopRun& run) {
  const auto lat = pb::summarize(run.episodes.latency_us);
  rep.add("latency_p50_us", lat.p50, "us", lat.n, "= episode_p50_us");
  add_latency(rep, "episode", "_us", run.episodes.latency_us);
  rep.add("episodes_per_s", run.episodes_per_s(), "1/s", run.c_end - run.c_start);
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

void run_mb(const Args& a, Report& rep, Outcome& out) {
  // MB participants sleep in timed condvar waits between hops; without the
  // spinners, hypervisor vCPU wake-ups doubled the median episode latency
  // during busy periods of the host.
  const IdleSpinners spinners;
  LoopSpec spec;
  spec.threads = 4;
  spec.seed = a.seed;
  spec.work_lo_us = 2;
  spec.work_hi_us = 20;
  spec.capacity = static_cast<std::size_t>((a.seconds + 2) * 25000);
  auto make = [&](std::uint64_t seed) {
    core::BarrierOptions o;
    o.num_phases = kNumPhases;
    o.seed = seed;
    return std::make_unique<MbBar>(spec.threads, o);
  };

  struct Snap {
    runtime::Network::Stats start, end;
  };
  auto timed = [&](double window_s, std::uint64_t seed, pb::CountingSink* sink, Snap& snap) {
    LoopSpec s = spec;
    s.window_s = window_s;
    s.seed = seed;
    return run_loop<MbBar>(
        s,
        [&] {
          auto bar = make(seed);
          if (sink != nullptr) bar->bar.set_trace_sink(sink);
          return bar;
        },
        [&](MbBar& bar, pb::Stage stage) {
          (stage == pb::kWindow ? snap.start : snap.end) = bar.bar.network_stats();
          if (sink != nullptr) sink->set_stage(stage);
        });
  };

  if (a.trace == 0) {
    add_lifecycle<MbBar>(rep, out, spec, make);
    Snap snap;
    auto [run, bar] = timed(a.seconds, a.seed, nullptr, snap);
    const auto final_stats = bar->bar.network_stats();
    add_episode_metrics(rep, run);
    rep.add("teardown_window_s", run.teardown_s, "s", 1, "after the timed window");
    rep.add("runtime.drain_sends", static_cast<double>(final_stats.sent - snap.end.sent),
            "count");
    tally(out, run);
    return;
  }

  // Untraced half: the layer timings and the windowed Network counters.
  Snap snap;
  auto [run, bar] = timed(a.seconds / 2, a.seed, nullptr, snap);
  const auto final_stats = bar->bar.network_stats();
  bar.reset();
  tally(out, run);
  const double episodes = static_cast<double>(run.c_end - run.c_start);
  rep.add("core.episodes_per_s", run.episodes_per_s(), "1/s", run.c_end - run.c_start);
  add_latency(rep, "core.wait_us", "", run.waits());
  rep.add("core.commit_ratio", episodes * spec.threads / static_cast<double>(run.window_calls),
          "ratio", run.window_calls);
  rep.add("core.arrival_skew_us_p50", median(run.episodes.skew_us), "us",
          run.episodes.skew_us.size(), "control: set by phase work");
  rep.add("core.episode_us_p99", pb::summarize(run.episodes.latency_us).tail, "us",
          run.episodes.latency_us.size());
  rep.add("runtime.sends_per_episode", static_cast<double>(snap.end.sent - snap.start.sent) / episodes,
          "count", run.c_end - run.c_start, "windowed stats()");
  rep.add("runtime.drain_sends", static_cast<double>(final_stats.sent - snap.end.sent), "count");
  rep.add("core.finalize_s", lifecycles<MbBar>(out, spec, make), "s", kLifecycles,
          "median teardown of short lifecycles: finalize drain + join");

  // Traced half: message events through set_trace_sink.
  pb::CountingSink sink(spec.threads);
  Snap tsnap;
  auto [trun, tbar] = timed(a.seconds / 2, a.seed, &sink, tsnap);
  tbar.reset();
  tally(out, trun);
  const auto counts = sink.counts();
  const double teps = static_cast<double>(trun.c_end - trun.c_start);
  std::size_t unmatched = 0;
  const auto waits = sink.links().waits(trun.t_ws, trun.t_we, &unmatched);
  rep.add("runtime.recvs_per_episode",
          static_cast<double>(counts.of(trace::Kind::kMsgRecv, pb::kWindow)) / teps, "count",
          trun.c_end - trun.c_start, "traced kMsgRecv");
  add_latency(rep, "runtime.inbox_wait_us", "", waits);
  rep.add("runtime.unmatched_recvs", static_cast<double>(unmatched), "count");
  out.failed += unmatched;  // the FIFO matching rule does not hold
  rep.add("runtime.injected_drops_per_episode",
          static_cast<double>(counts.drop[pb::kWindow][0]) / teps, "count");
  std::uint64_t full = 0;
  for (const auto& d : counts.drop) full += d[1];
  rep.add("runtime.inbox_full_drops", static_cast<double>(full), "count", 0,
          "whole traced run, drain included");
  std::uint64_t window_events = 0;
  for (const auto k : counts.kind[pb::kWindow]) window_events += k;
  rep.add("trace.events_per_episode", static_cast<double>(window_events) / teps, "count");
  rep.add("trace.overhead_frac", 1.0 - trun.episodes_per_s() / run.episodes_per_s(), "ratio",
          0, "1 - traced/untraced episodes_per_s");
}

void run_hwbar(const Args& a, Report& rep, Outcome& out) {
  LoopSpec spec;
  spec.threads = 3;
  spec.seed = a.seed;
  spec.spin_hi = 64;
  spec.stride = 32;
  spec.capacity = static_cast<std::size_t>((a.seconds + 2) * 2'000'000 / 32);
  auto make = [&](trace::Sink* sink) {
    hwbar::Options o;
    o.num_phases = kNumPhases;
    // Far above any scheduling stall: a false suspicion would switch the
    // run to degraded scan commits (and is counted as a failure).
    o.suspect_after = std::chrono::seconds(30);
    o.sink = sink;
    return std::make_unique<HwBar>(spec.threads, o);
  };
  auto timed = [&](double window_s, std::uint64_t seed, trace::Sink* sink) {
    LoopSpec s = spec;
    s.window_s = window_s;
    s.seed = seed;
    return run_loop<HwBar>(
        s, [&] { return make(sink); }, [](HwBar&, pb::Stage) {});
  };
  auto stats_failures = [&](const hwbar::Stats& st) { return st.deaths + st.evictions; };

  if (a.trace == 0) {
    add_lifecycle<HwBar>(rep, out, spec,
                         [&](std::uint64_t) { return make(nullptr); });
    auto [run, bar] = timed(a.seconds, a.seed, nullptr);
    out.failed += stats_failures(bar->bar.stats());
    add_episode_metrics(rep, run);
    rep.add("teardown_window_s", run.teardown_s, "s", 1, "after the timed window");
    tally(out, run);
    return;
  }

  auto [run, bar] = timed(a.seconds / 2, a.seed, nullptr);
  const auto st = bar->bar.stats();
  out.failed += stats_failures(st);
  tally(out, run);
  rep.add("hwbar.episodes_per_s", run.episodes_per_s(), "1/s", run.c_end - run.c_start);
  add_latency(rep, "hwbar.wait_us", "", run.waits());
  rep.add("hwbar.scan_commit_frac",
          static_cast<double>(st.scan_commits) /
              static_cast<double>(st.scan_commits + st.wave_commits),
          "ratio");
  rep.add("hwbar.deaths", static_cast<double>(st.deaths), "count");
  rep.add("hwbar.evictions", static_cast<double>(st.evictions), "count");
  rep.add("hwbar.episode_us_p99", pb::summarize(run.episodes.latency_us).tail, "us",
          run.episodes.latency_us.size());

  pb::CountingSink sink(spec.threads);
  auto [trun, tbar] = timed(a.seconds / 2, a.seed, &sink);
  out.failed += stats_failures(tbar->bar.stats());
  tally(out, trun);
  std::uint64_t events = 0;
  for (const auto& stage : sink.counts().kind) {
    for (const auto k : stage) events += k;
  }
  const double all_commits = static_cast<double>(tbar->bar.episode());
  rep.add("trace.events_per_episode", static_cast<double>(events) / all_commits, "count");
  rep.add("trace.overhead_frac", 1.0 - trun.episodes_per_s() / run.episodes_per_s(), "ratio",
          0, "1 - traced/untraced episodes_per_s");
}

struct CheckRep {
  double bundle_s = 0, setup_s = 0, explore_s = 0, legit_s = 0, converge_s = 0;
  double teardown_s = 0, worker_util = 0;
  check::CheckCounters counters;
  std::size_t states = 0;
  bool ok = false;

  [[nodiscard]] double verify_s() const { return explore_s + legit_s + converge_s; }
};

constexpr std::size_t kCheckStates = 778'777;
constexpr std::size_t kCheckThreads = 4;

CheckRep check_rep() {
  using Clock = std::chrono::steady_clock;
  const auto secs = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  CheckRep r;
  const auto t0 = Clock::now();
  auto bundle = std::make_unique<check::ProgramBundle<core::RbProc>>(
      check::make_rb_bundle(14, 8));
  const auto t1 = Clock::now();
  check::CheckOptions opt;
  opt.semantics = sim::Semantics::kInterleaving;
  opt.threads = kCheckThreads;
  opt.schedule = check::Schedule::kWorkStealing;
  opt.record_edges = true;
  auto checker = std::make_unique<check::Checker<core::RbProc>>(
      bundle->actions, bundle->procs, opt, bundle->symmetry);
  const auto t2 = Clock::now();
  const double cpu0 = cpu_seconds();
  const auto result = checker->run(bundle->roots(check::FaultClass::kUndetectable),
                                   [](const std::vector<core::RbProc>&) { return true; });
  const auto t3 = Clock::now();
  const double cpu1 = cpu_seconds();
  const bool possible = checker->legit_reachable_from_all(bundle->legit);
  const auto t4 = Clock::now();
  const bool guaranteed = checker->converges_outside(bundle->legit);
  const auto t5 = Clock::now();
  checker.reset();
  bundle.reset();
  const auto t6 = Clock::now();

  r.bundle_s = secs(t0, t1);
  r.setup_s = secs(t0, t2);
  r.explore_s = secs(t2, t3);
  r.legit_s = secs(t3, t4);
  r.converge_s = secs(t4, t5);
  r.teardown_s = secs(t5, t6);
  r.worker_util = (cpu1 - cpu0) / (r.explore_s * static_cast<double>(kCheckThreads));
  r.counters = result.counters;
  r.states = result.states_visited;
  r.ok = result.ok() && r.states == kCheckStates && possible && guaranteed;
  return r;
}

void run_check(const Args& a, Report& rep, Outcome& out) {
  // The input is fixed (exhaustive exploration); the seed changes nothing.
  std::vector<CheckRep> reps;
  const auto start = std::chrono::steady_clock::now();
  while (reps.size() < 3 ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() <
             a.seconds) {
    reps.push_back(check_rep());
    const auto& r = reps.back();
    ++out.attempted;
    if (!r.ok) ++out.failed;
    std::printf("  rep %zu: verify_s=%.4f explore_s=%.4f worker_util=%.3f steals=%llu "
                "states=%zu %s\n",
                reps.size(), r.verify_s(), r.explore_s, r.worker_util,
                static_cast<unsigned long long>(r.counters.steals), r.states,
                r.ok ? "ok" : "WRONG");
  }
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& r : reps) v.push_back(field(r));
    return median(std::move(v));
  };
  const std::size_t n = reps.size();
  const double verify = med([](const CheckRep& r) { return r.verify_s(); });
  if (a.trace == 0) {
    rep.add("latency_p50_us", verify * 1e6, "us", n, "= verify_s");
    rep.add("verify_s", verify, "s", n, "median over repetitions");
    rep.add("setup_s", med([](const CheckRep& r) { return r.setup_s; }), "s", n);
    rep.add("teardown_s", med([](const CheckRep& r) { return r.teardown_s; }), "s", n);
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  const auto c = [&](auto field) {
    return med([&](const CheckRep& r) { return static_cast<double>(field(r.counters)); });
  };
  rep.add("check.bundle_s", med([](const CheckRep& r) { return r.bundle_s; }), "s", n);
  rep.add("check.explore_s", med([](const CheckRep& r) { return r.explore_s; }), "s", n);
  rep.add("check.legit_s", med([](const CheckRep& r) { return r.legit_s; }), "s", n);
  rep.add("check.converge_s", med([](const CheckRep& r) { return r.converge_s; }), "s", n);
  rep.add("check.worker_util", med([](const CheckRep& r) { return r.worker_util; }), "ratio", n);
  rep.add("check.steals", c([](const check::CheckCounters& k) { return k.steals; }), "count", n);
  rep.add("check.avg_chunk_fill", c([](const check::CheckCounters& k) { return k.avg_chunk_fill(); }),
          "count", n);
  rep.add("check.avg_group_size", c([](const check::CheckCounters& k) { return k.avg_group_size(); }),
          "count", n);
  rep.add("check.dedup_hit_rate", c([](const check::CheckCounters& k) { return k.dedup_hit_rate(); }),
          "ratio", n);
  rep.add("check.reexpansions", c([](const check::CheckCounters& k) { return k.reexpansions; }),
          "count", n);
  rep.add("check.guard_evals_per_state",
          c([](const check::CheckCounters& k) {
            return static_cast<double>(k.guard_evals) / static_cast<double>(k.expanded);
          }),
          "count", n);
  rep.add("check.states", med([](const CheckRep& r) { return static_cast<double>(r.states); }),
          "count", n);
  rep.add("check.transitions", c([](const check::CheckCounters& k) { return k.transitions; }),
          "count", n);
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: ftbar_perfbench --workload mb_clean|hwbar_central|check_rb14 "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  if (const int bad = perfbench::run_selftests(); bad != 0) {
    std::fprintf(stderr, "error: %d benchmark self-test(s) failed\n", bad);
    return 4;
  }
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  Report rep;
  Outcome out;
  if (a.workload == "mb_clean") {
    run_mb(a, rep, out);
  } else if (a.workload == "hwbar_central") {
    run_hwbar(a, rep, out);
  } else if (a.workload == "check_rb14") {
    run_check(a, rep, out);
  } else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  rep.add("failed_frac",
          out.attempted == 0 ? 1.0
                             : static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio", out.attempted);
  rep.print(correct, out.attempted, out.failed);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
