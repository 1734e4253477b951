// Throughput of the check/ subsystem vs the seed sim::Explorer.
//
// Two workloads, both exhausting the undetectable-fault neighbourhood of
// RB on the ring:
//
//   rb_n4      — N = 4, ~1.3k states. Historical comparison family (the
//                PR 3/PR 4 records were taken on it); per-state costs
//                dominate and the whole space fits in L1, so it CANNOT
//                show parallel speedup — it exists for the seed/pr3
//                single-thread comparisons and the chunk ablation.
//   rb_n8_ph8  — N = 8, num_phases = 8, ~73k states (exhausts since
//                PR 4). THE ACCEPTANCE FAMILY: the scaling criterion is
//                Checker/rb_n8_ph8/interleaving/ws/threads:8 beating
//                .../threads:1 (parallel speedup > 1), which
//                check_scale_guard.cpp enforces in ctest on any machine
//                with >= 4 hardware threads. bench-check-json records it
//                with chunk_size and the recording machine's CPU count in
//                the JSON context.
//
// Thread counts above the machine's hardware_concurrency are SKIPPED via
// SkipWithError rather than silently recorded: an oversubscribed row
// measures scheduler thrash, not scaling, but looks exactly like scaling
// data once the JSON leaves the machine it was taken on. Skipped rows stay
// in the JSON (error_occurred: true) so the record says what was not
// measured and why.
//
// Every Checker entry carries:
//   states           — reachable states interned per run
//   speedup_vs_seed  — this entry's states/sec divided by the seed
//                      Explorer's states/sec on the same workload (digest
//                      hash, measured once at startup)
//   speedup_vs_pr3   — same against the PR 3-era algorithm (full guard
//                      rescans, mutex-only dedup, per-state handoff:
//                      incremental/dedup_fast_path off, chunk = 1) at one
//                      thread, so the per-state + batching win is readable
//                      from one JSON regardless of what machine or build
//                      type older records were taken on.
//
// The `chunk` family ablates the batch granularity (chunk = 1 is per-state
// handoff, the PR 4 behaviour); the visited set is identical at every
// setting, only the rate moves.
//
// The `verdict` rows time what ftbar_check does on undetectable faults:
// run() with the transition graph recorded, then both convergence queries.
// Their counters: states, graph_edges (exact distinct edges) and
// post_pass_s (mean wall time of the two queries alone).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "check/programs.hpp"
#include "core/rb.hpp"
#include "sim/model_check.hpp"
#include "trace/replay.hpp"

namespace {

using ftbar::core::RbProc;
using ftbar::core::RbState;

// The digest the checker shards on — byte-serial FNV over the whole state.
struct DigestHash {
  std::size_t operator()(const RbState& s) const {
    return static_cast<std::size_t>(ftbar::trace::state_digest(s));
  }
};

// The per-field mix the repo's tests historically handed the seed Explorer
// (tests/core_rb_test.cpp) — benchmarked so the seed baseline is the seed
// as actually used, not a strawman.
struct FieldHash {
  std::size_t operator()(const RbState& s) const {
    std::size_t h = 1469598103934665603ULL;
    for (const auto& p : s) {
      h ^= (static_cast<std::size_t>(p.sn + 3) * 131u) ^
           (static_cast<std::size_t>(p.cp) * 31u) ^ static_cast<std::size_t>(p.ph);
      h *= 1099511628211ULL;
    }
    return h;
  }
};

/// One benchmark workload: the bundle plus a state budget sized to it (the
/// store allocates its fast-path table and spine reservation from
/// max_states, so the default 2M budget would turn each run() into an
/// allocation benchmark rather than an exploration one).
struct Workload {
  const ftbar::check::ProgramBundle<RbProc>& (*bundle)();
  std::size_t max_states;
  // Memoized reference rates (states/sec), filled on first use.
  double seed_rate = 0;
  double pr3_rate = 0;
};

const ftbar::check::ProgramBundle<RbProc>& rb_n4_bundle() {
  static const auto bundle = ftbar::check::make_rb_bundle(4);
  return bundle;
}
const ftbar::check::ProgramBundle<RbProc>& rb_n8_ph8_bundle() {
  static const auto bundle = ftbar::check::make_rb_bundle(8, 8);
  return bundle;
}

Workload& rb_n4() {
  static Workload wl{&rb_n4_bundle, std::size_t{1} << 14};
  return wl;
}
Workload& rb_n8_ph8() {
  static Workload wl{&rb_n8_ph8_bundle, std::size_t{1} << 17};
  return wl;
}

bool always_true(const std::vector<RbProc>&) { return true; }

/// Skip thread counts the machine cannot actually run in parallel. Exact —
/// no floor: a 2-core box measuring threads:8 would record thrash as data.
/// Returns true when the row was skipped (it stays in the JSON as skipped).
bool skip_if_oversubscribed(benchmark::State& state, std::size_t threads) {
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc != 0 && threads > hc) {
    state.SkipWithError(("skipped: " + std::to_string(threads) +
                         " threads exceed hardware_concurrency=" +
                         std::to_string(hc))
                            .c_str());
    return true;
  }
  return false;
}

struct CheckerConfig {
  ftbar::sim::Semantics semantics = ftbar::sim::Semantics::kInterleaving;
  ftbar::check::Schedule schedule = ftbar::check::Schedule::kBfs;
  bool incremental = true;
  bool dedup_fast_path = true;
  bool symmetry = false;
  std::size_t chunk = 64;  ///< scheduler handoff granularity (states)
};

ftbar::check::CheckOptions to_options(const CheckerConfig& cfg,
                                      const Workload& wl, std::size_t threads) {
  ftbar::check::CheckOptions opt;
  opt.semantics = cfg.semantics;
  opt.threads = threads;
  opt.schedule = cfg.schedule;
  opt.incremental = cfg.incremental;
  opt.dedup_fast_path = cfg.dedup_fast_path;
  opt.symmetry = cfg.symmetry;
  opt.chunk = cfg.chunk;
  opt.max_states = wl.max_states;
  return opt;
}

// Seed states/sec on `wl`, measured once: the denominator of every
// speedup_vs_seed counter of that workload's entries.
double seed_states_per_sec(Workload& wl) {
  if (wl.seed_rate == 0) {
    const auto& b = wl.bundle();
    ftbar::sim::Explorer<RbProc, DigestHash> warm(b.actions, DigestHash{});
    warm.explore(b.perturbed_roots, always_true);
    const auto t0 = std::chrono::steady_clock::now();
    constexpr int kReps = 5;
    std::size_t states = 0;
    for (int i = 0; i < kReps; ++i) {
      ftbar::sim::Explorer<RbProc, DigestHash> seed(b.actions, DigestHash{});
      states += seed.explore(b.perturbed_roots, always_true).states_visited;
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    wl.seed_rate = static_cast<double>(states) / dt.count();
  }
  return wl.seed_rate;
}

// PR 3-equivalent single-thread states/sec on `wl` (full guard rescans,
// mutex-only dedup, per-state handoff), measured once: the denominator of
// every speedup_vs_pr3 counter of that workload's entries.
double pr3_states_per_sec(Workload& wl) {
  if (wl.pr3_rate == 0) {
    const auto& b = wl.bundle();
    CheckerConfig cfg;
    cfg.incremental = false;
    cfg.dedup_fast_path = false;
    cfg.chunk = 1;
    {  // warm-up
      ftbar::check::Checker<RbProc> warm(b.actions, b.procs,
                                         to_options(cfg, wl, 1));
      warm.run(b.perturbed_roots, always_true);
    }
    const auto t0 = std::chrono::steady_clock::now();
    constexpr int kReps = 5;
    std::size_t states = 0;
    for (int i = 0; i < kReps; ++i) {
      ftbar::check::Checker<RbProc> pr3(b.actions, b.procs,
                                        to_options(cfg, wl, 1));
      states += pr3.run(b.perturbed_roots, always_true).states_visited;
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    wl.pr3_rate = static_cast<double>(states) / dt.count();
  }
  return wl.pr3_rate;
}

void BM_SeedExplorer(benchmark::State& state, Workload* wl) {
  const auto& b = wl->bundle();
  std::size_t states = 0;
  for (auto _ : state) {
    ftbar::sim::Explorer<RbProc, DigestHash> seed(b.actions, DigestHash{});
    const auto res = seed.explore(b.perturbed_roots, always_true);
    states = res.states_visited;
    benchmark::DoNotOptimize(res.states_visited);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["states"] = static_cast<double>(states);
}

void BM_SeedExplorerFieldHash(benchmark::State& state, Workload* wl) {
  const auto& b = wl->bundle();
  std::size_t states = 0;
  for (auto _ : state) {
    ftbar::sim::Explorer<RbProc, FieldHash> seed(b.actions, FieldHash{});
    const auto res = seed.explore(b.perturbed_roots, always_true);
    states = res.states_visited;
    benchmark::DoNotOptimize(res.states_visited);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["states"] = static_cast<double>(states);
}

void BM_Checker(benchmark::State& state, CheckerConfig cfg, Workload* wl) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  if (skip_if_oversubscribed(state, threads)) return;
  const auto& b = wl->bundle();
  const auto opt = to_options(cfg, *wl, threads);
  std::size_t states = 0;
  for (auto _ : state) {
    ftbar::check::Checker<RbProc> checker(b.actions, b.procs, opt, b.symmetry);
    const auto res = checker.run(b.perturbed_roots, always_true);
    states = res.states_visited;
    benchmark::DoNotOptimize(res.states_visited);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["states"] = static_cast<double>(states);
  // kIsRate divides by elapsed time, so the reported value is
  // (states/sec of this entry) / (states/sec of the reference run).
  state.counters["speedup_vs_seed"] = benchmark::Counter(
      static_cast<double>(states) * static_cast<double>(state.iterations()) /
          seed_states_per_sec(*wl),
      benchmark::Counter::kIsRate);
  state.counters["speedup_vs_pr3"] = benchmark::Counter(
      static_cast<double>(states) * static_cast<double>(state.iterations()) /
          pr3_states_per_sec(*wl),
      benchmark::Counter::kIsRate);
}

/// Chunk-granularity ablation: range(0) = chunk size, range(1) = threads.
void BM_CheckerChunk(benchmark::State& state, CheckerConfig cfg, Workload* wl) {
  cfg.chunk = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  if (skip_if_oversubscribed(state, threads)) return;
  const auto& b = wl->bundle();
  const auto opt = to_options(cfg, *wl, threads);
  std::size_t states = 0;
  for (auto _ : state) {
    ftbar::check::Checker<RbProc> checker(b.actions, b.procs, opt, b.symmetry);
    const auto res = checker.run(b.perturbed_roots, always_true);
    states = res.states_visited;
    benchmark::DoNotOptimize(res.states_visited);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["states"] = static_cast<double>(states);
  state.counters["speedup_vs_pr3"] = benchmark::Counter(
      static_cast<double>(states) * static_cast<double>(state.iterations()) /
          pr3_states_per_sec(*wl),
      benchmark::Counter::kIsRate);
}

/// Time to verdict: run() with record_edges, then legit_reachable_from_all
/// and converges_outside. A wrong verdict fails the row.
void BM_CheckerVerdict(benchmark::State& state, CheckerConfig cfg,
                       Workload* wl) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  if (skip_if_oversubscribed(state, threads)) return;
  const auto& b = wl->bundle();
  auto opt = to_options(cfg, *wl, threads);
  opt.record_edges = true;
  std::size_t states = 0;
  std::size_t edges = 0;
  double post_pass_s = 0;
  for (auto _ : state) {
    ftbar::check::Checker<RbProc> checker(b.actions, b.procs, opt, b.symmetry);
    const auto res = checker.run(b.perturbed_roots, always_true);
    const auto t0 = std::chrono::steady_clock::now();
    const bool converges = res.ok() &&
                           checker.legit_reachable_from_all(b.legit) &&
                           checker.converges_outside(b.legit);
    post_pass_s += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    if (!converges) {
      state.SkipWithError("wrong verdict: RB must converge");
      return;
    }
    states = res.states_visited;
    edges = checker.graph_edges();
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["graph_edges"] = static_cast<double>(edges);
  state.counters["post_pass_s"] =
      post_pass_s / static_cast<double>(state.iterations());
}

constexpr CheckerConfig kInterleaving{};
constexpr CheckerConfig kMaxpar{ftbar::sim::Semantics::kMaxParallel};
constexpr CheckerConfig kPr3Baseline{ftbar::sim::Semantics::kInterleaving,
                                     ftbar::check::Schedule::kBfs,
                                     /*incremental=*/false,
                                     /*dedup_fast_path=*/false,
                                     /*symmetry=*/false,
                                     /*chunk=*/1};
constexpr CheckerConfig kWorkStealing{ftbar::sim::Semantics::kInterleaving,
                                      ftbar::check::Schedule::kWorkStealing};
constexpr CheckerConfig kSymmetry{ftbar::sim::Semantics::kInterleaving,
                                  ftbar::check::Schedule::kBfs,
                                  /*incremental=*/true,
                                  /*dedup_fast_path=*/true,
                                  /*symmetry=*/true};

// UseRealTime throughout: the checker runs its own worker pool, so CPU-time
// of the calling thread (the default clock) would misreport its rate.

// ---------------------------------------------------------------------------
// rb_n4 — historical comparison family
// ---------------------------------------------------------------------------
BENCHMARK_CAPTURE(BM_SeedExplorerFieldHash, field_hash, &rb_n4())
    ->Name("SeedExplorer/rb_n4/field_hash")
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_SeedExplorer, digest_hash, &rb_n4())
    ->Name("SeedExplorer/rb_n4/digest_hash")
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Checker, interleaving, kInterleaving, &rb_n4())
    ->Name("Checker/rb_n4/interleaving")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Checker, maxpar, kMaxpar, &rb_n4())
    ->Name("Checker/rb_n4/maxpar")
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Checker, pr3_baseline, kPr3Baseline, &rb_n4())
    ->Name("Checker/rb_n4/interleaving/pr3_baseline")
    ->Arg(1)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Checker, ws, kWorkStealing, &rb_n4())
    ->Name("Checker/rb_n4/interleaving/ws")
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime();
// Symmetry on the undetectable workload mostly measures canonicalization
// overhead: corruption roots pin the recovery transients to one phase, so
// only the legitimate cycling region collapses (the `states` counter shows
// the quotient size; check_perf_guard pins the full group-order reduction
// on the phase-closed fault-free space).
BENCHMARK_CAPTURE(BM_Checker, symmetry, kSymmetry, &rb_n4())
    ->Name("Checker/rb_n4/interleaving/symmetry")
    ->Arg(1)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// rb_n8_ph8 — the acceptance family (73k states; the scaling criterion)
// ---------------------------------------------------------------------------
BENCHMARK_CAPTURE(BM_SeedExplorer, digest_hash, &rb_n8_ph8())
    ->Name("SeedExplorer/rb_n8_ph8/digest_hash")
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Checker, interleaving, kInterleaving, &rb_n8_ph8())
    ->Name("Checker/rb_n8_ph8/interleaving")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Checker, ws, kWorkStealing, &rb_n8_ph8())
    ->Name("Checker/rb_n8_ph8/interleaving/ws")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Checker, pr3_baseline, kPr3Baseline, &rb_n8_ph8())
    ->Name("Checker/rb_n8_ph8/interleaving/pr3_baseline")
    ->Arg(1)
    ->UseRealTime();
// Batch-granularity ablation: chunk = 1 is per-state handoff (the PR 4
// scheduler); 64 is the default; 256 the chunk capacity. Args = {chunk,
// threads}. The threads:8 rows are the ones that show why chunking exists.
BENCHMARK_CAPTURE(BM_CheckerChunk, chunk, kWorkStealing, &rb_n8_ph8())
    ->Name("Checker/rb_n8_ph8/interleaving/ws/chunk")
    ->Args({1, 1})
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({1, 8})
    ->Args({64, 8})
    ->Args({256, 8})
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_CheckerVerdict, verdict, kWorkStealing, &rb_n8_ph8())
    ->Name("Checker/rb_n8_ph8/interleaving/ws/verdict")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
