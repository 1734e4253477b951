// check-scale-guard — regression tripwire for the checker's parallel
// scaling (ctest label: bench-smoke).
//
// Workload: the acceptance family from bench_check.cpp — RB on the ring,
// N = 8, num_phases = 8, undetectable-fault roots, interleaving semantics,
// work-stealing schedule at the default chunk size. The invariant is
// always true, as in ftbar_check: an undetectable-fault root violates the
// bundle's `safe` at once, which would stop both runs after a few hundred
// states and time nothing. The guard times the same exploration at 1
// thread and at min(8, hardware) threads (best of two runs each, after a
// warm-up) and requires
//
//     parallel wall time < single-thread wall time   (speedup > 1.0)
//
// — i.e. threads must actually PAY on a workload big enough to matter, the
// property the chunked scheduler + bulk store insertion exist to deliver.
// Before batching, per-state deque handoff and per-state shard locking made
// ws@8 ~1.5x SLOWER than ws@1 here; a regression back to that shape fails
// this guard on any multi-core machine, long before a human reads a
// benchmark JSON.
//
// Each run must also visit exactly kExpectedStates states without a
// violation, and the two must agree on the visited set (sorted digests) —
// a scheduler that got faster by dropping states is not faster.
//
// On machines with fewer than 4 hardware threads the comparison is
// meaningless (there is no parallelism to measure), so the guard exits 77
// (ctest SKIP_RETURN_CODE) with a message instead of recording a fake
// verdict. check_perf_guard.cpp is the companion guard for the symmetry
// reduction; this one owns scaling.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "check/programs.hpp"
#include "core/rb.hpp"

using namespace ftbar;
using core::RbProc;

namespace {

constexpr int kN = 8;
constexpr int kPhases = 8;
constexpr std::size_t kExpectedStates = 73'165;  ///< the whole neighbourhood
constexpr unsigned kMinHardwareThreads = 4;
constexpr int kSkipExitCode = 77;  ///< ctest SKIP_RETURN_CODE
constexpr double kWallClockCeilingSec = 120.0;

struct RunResult {
  std::size_t states = 0;
  bool truncated = false;
  bool violation = false;
  double secs = 0;
  std::vector<std::uint64_t> digests;
};

RunResult explore(const check::ProgramBundle<RbProc>& bundle,
                  std::size_t threads) {
  check::CheckOptions opt;
  opt.semantics = sim::Semantics::kInterleaving;
  opt.schedule = check::Schedule::kWorkStealing;
  opt.threads = threads;
  opt.max_states = 1 << 17;
  check::Checker<RbProc> checker(bundle.actions, bundle.procs, opt,
                                 bundle.symmetry);
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = checker.run(bundle.roots(check::FaultClass::kUndetectable),
                               [](const std::vector<RbProc>&) { return true; });
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return {res.states_visited, res.truncated, res.violation.has_value(), secs,
          checker.sorted_digests()};
}

/// Best-of-`reps` wall time (the minimum is the least noisy estimator for a
/// deterministic workload); the returned result carries that minimum.
RunResult best_of(const check::ProgramBundle<RbProc>& bundle,
                  std::size_t threads, int reps) {
  RunResult best = explore(bundle, threads);
  for (int i = 1; i < reps; ++i) {
    RunResult r = explore(bundle, threads);
    if (r.secs < best.secs) best = std::move(r);
  }
  return best;
}

}  // namespace

int main() {
  const unsigned hc = std::thread::hardware_concurrency();
  if (hc != 0 && hc < kMinHardwareThreads) {
    std::printf(
        "check-scale-guard: SKIP — hardware_concurrency=%u < %u; parallel "
        "speedup is not measurable on this machine\n",
        hc, kMinHardwareThreads);
    return kSkipExitCode;
  }
  const std::size_t par_threads = std::min<std::size_t>(8, hc == 0 ? 8 : hc);

  const auto t0 = std::chrono::steady_clock::now();
  const auto bundle = check::make_rb_bundle(kN, kPhases);
  int failures = 0;

  // Warm-up run: first-touch page faults and the lazy bundle construction
  // would otherwise land in the single-thread measurement.
  (void)explore(bundle, 1);

  const auto serial = best_of(bundle, 1, 2);
  const auto parallel = best_of(bundle, par_threads, 2);
  const double speedup = serial.secs / parallel.secs;

  std::printf(
      "rb_n8_ph8 ws: threads=1 %.3fs  threads=%zu %.3fs  speedup=%.2fx "
      "(states=%zu)\n",
      serial.secs, par_threads, parallel.secs, speedup, serial.states);

  if (serial.truncated || parallel.truncated) {
    std::printf("FAIL: exploration truncated (max_states too small?)\n");
    ++failures;
  }
  for (const auto* r : {&serial, &parallel}) {
    if (r->violation || r->states != kExpectedStates) {
      std::printf("FAIL: a run visited %zu states%s; the whole neighbourhood "
                  "is %zu states\n",
                  r->states, r->violation ? " and stopped at a violation" : "",
                  kExpectedStates);
      ++failures;
    }
  }
  if (parallel.states != serial.states ||
      parallel.digests != serial.digests) {
    std::printf(
        "FAIL: visited sets differ across thread counts (1 thread: %zu "
        "states, %zu threads: %zu states)\n",
        serial.states, par_threads, parallel.states);
    ++failures;
  }
  if (speedup <= 1.0) {
    std::printf(
        "FAIL: parallelism does not pay: ws@%zu is not faster than ws@1 "
        "(speedup %.2fx <= 1.0)\n",
        par_threads, speedup);
    ++failures;
  }

  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("wall clock: %.2fs (ceiling %.0fs)\n", secs,
              kWallClockCeilingSec);
  if (secs > kWallClockCeilingSec) {
    std::printf("FAIL: guard exceeded the wall-clock ceiling\n");
    ++failures;
  }
  if (failures == 0) std::printf("check-scale-guard: OK\n");
  return failures == 0 ? 0 : 1;
}
