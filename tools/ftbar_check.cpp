// ftbar_check — explicit-state model-checking driver for the paper's
// programs (the verification counterpart of ftbar_sim).
//
//   ftbar_check --program cb|rb|rbp|mb --n N [options]
//
// Exhaust mode (default) runs the parallel checker of src/check/ over the
// chosen root set and semantics; swarm mode runs budgeted random walks
// through the live engine instead. Exit codes: 0 = all checks passed,
// 1 = a property failed (violation found, or convergence query false),
// 2 = usage / I/O error, 3 = state budget exhausted (verdict unknown).
//
// Options (defaults in parentheses):
//   --program cb|rb|rbp|mb   rbp = RB on the two intersecting rings (Fig 2b)
//   --n N (4)                processes (ring size for mb)
//   --num-phases n (2)       phase ring modulus
//   --semantics interleaving|maxpar|both (both)
//   --fault-class none|undetectable (undetectable)
//       none:         explore fault-free runs from the start state and
//                     check the program's closure invariant on every state
//       undetectable: explore from every single-process corruption of the
//                     start state and require convergence — a legitimate
//                     state reachable from every visited state AND no
//                     cycle/deadlock outside the legitimate set
//   --mode exhaust|swarm (exhaust)
//   --schedule bfs|ws (bfs)  exhaust exploration order: level-synchronized
//                            BFS or work-stealing deques (same visited set
//                            and diameter; ws scales better across threads)
//   --symmetry               canonicalize states under the program's declared
//                            symmetry group (phase rotation) — explores the
//                            quotient space, one state per orbit. Verdicts
//                            are unchanged (the invariants are group-
//                            invariant); state counts shrink by roughly the
//                            group order. Incompatible with --oracle, whose
//                            differential state-count comparison only holds
//                            in the unreduced space.
//   --stats                  periodic exploration progress on stderr and a
//                            final counters line after each run (including
//                            chunk occupancy, steals and bulk-insert group
//                            sizes — the batching health signals); with
//                            undetectable faults also a graph line: the
//                            exact distinct-edge count and the wall time
//                            of the two convergence queries
//   --threads T (1)          checker worker threads / swarm pool size
//   --chunk C (64)           states per scheduler handoff unit (1-256);
//                            1 restores per-state handoff. The visited set
//                            and single-threaded counterexamples are
//                            identical at every setting
//   --max-states M (2000000)
//   --walks W (256) --depth D (256) --seed S (1)      swarm budget
//   --seq-modulus L (0)      mb only; 0 = default 2N (L=2N+2 in paper terms)
//   --oracle                 cross-check states visited + digest fingerprint
//                            against the seed sim::Explorer (interleaving)
//   --weaken                 deliberately falsify the invariant ("the root
//                            never reaches cp=success") to exercise the
//                            counterexample path: find, ddmin-shrink,
//                            digest-verify via trace::replay_schedule
//   --cx-out FILE            write the (weakened or real) counterexample as
//                            a replayable jsonl trace for `ftbar_sim replay`
//   --csv                    machine-readable one-line-per-run output
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifndef NDEBUG
#include "audit/debug_hook.hpp"
#endif
#include "check/checker.hpp"
#include "check/counterexample.hpp"
#include "check/programs.hpp"
#include "check/swarm.hpp"
#include "sim/model_check.hpp"
#include "trace/export.hpp"
#include "trace/replay.hpp"

namespace {

using namespace ftbar;

struct Args {
  std::string program;
  int n = 4;
  int num_phases = 2;
  std::string semantics = "both";
  std::string fault_class = "undetectable";
  std::string mode = "exhaust";
  std::string schedule = "bfs";
  bool symmetry = false;
  bool stats = false;
  std::size_t threads = 1;
  std::size_t chunk = 64;
  std::size_t max_states = 2'000'000;
  std::size_t walks = 256;
  std::size_t depth = 256;
  std::uint64_t seed = 1;
  int seq_modulus = 0;
  bool oracle = false;
  bool weaken = false;
  std::string cx_out;
  bool csv = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --program cb|rb|rbp|mb [--n N] [--num-phases n]\n"
               "  [--semantics interleaving|maxpar|both] "
               "[--fault-class none|undetectable]\n"
               "  [--mode exhaust|swarm] [--schedule bfs|ws] [--symmetry]\n"
               "  [--stats] [--threads T] [--chunk C] [--max-states M]\n"
               "  [--walks W] [--depth D] [--seed S] [--seq-modulus L]\n"
               "  [--oracle] [--weaken] [--cx-out FILE] [--csv]\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--program") {
      args.program = value();
    } else if (flag == "--n") {
      args.n = std::atoi(value());
    } else if (flag == "--num-phases") {
      args.num_phases = std::atoi(value());
    } else if (flag == "--semantics") {
      args.semantics = value();
    } else if (flag == "--fault-class") {
      args.fault_class = value();
    } else if (flag == "--mode") {
      args.mode = value();
    } else if (flag == "--schedule") {
      args.schedule = value();
    } else if (flag == "--symmetry") {
      args.symmetry = true;
    } else if (flag == "--stats") {
      args.stats = true;
    } else if (flag == "--threads") {
      args.threads = static_cast<std::size_t>(std::atoll(value()));
    } else if (flag == "--chunk") {
      args.chunk = static_cast<std::size_t>(std::atoll(value()));
    } else if (flag == "--max-states") {
      args.max_states = static_cast<std::size_t>(std::atoll(value()));
    } else if (flag == "--walks") {
      args.walks = static_cast<std::size_t>(std::atoll(value()));
    } else if (flag == "--depth") {
      args.depth = static_cast<std::size_t>(std::atoll(value()));
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(std::atoll(value()));
    } else if (flag == "--seq-modulus") {
      args.seq_modulus = std::atoi(value());
    } else if (flag == "--oracle") {
      args.oracle = true;
    } else if (flag == "--weaken") {
      args.weaken = true;
    } else if (flag == "--cx-out") {
      args.cx_out = value();
    } else if (flag == "--csv") {
      args.csv = true;
    } else {
      usage(argv[0]);
    }
  }
  if (args.program.empty()) usage(argv[0]);
  if (args.semantics != "interleaving" && args.semantics != "maxpar" &&
      args.semantics != "both") {
    usage(argv[0]);
  }
  if (args.fault_class != "none" && args.fault_class != "undetectable") {
    usage(argv[0]);
  }
  if (args.mode != "exhaust" && args.mode != "swarm") usage(argv[0]);
  if (args.schedule != "bfs" && args.schedule != "ws") usage(argv[0]);
  if (args.symmetry && args.oracle) {
    std::fprintf(stderr,
                 "error: --oracle compares unreduced state counts against the "
                 "seed Explorer and cannot run with --symmetry\n");
    std::exit(2);
  }
  return args;
}

const char* semantics_name(sim::Semantics s) {
  return s == sim::Semantics::kMaxParallel ? "maxpar" : "interleaving";
}

/// Hash functor adapting the digest to the seed Explorer's interface.
template <class P>
struct DigestHash {
  std::size_t operator()(const std::vector<P>& s) const noexcept {
    return static_cast<std::size_t>(trace::state_digest(s));
  }
};

/// The ftbar_sim-compatible meta line for counterexample trace files.
template <class P>
std::string meta_line(const Args& args, const check::ProgramBundle<P>& bundle,
                      sim::Semantics semantics) {
  return std::string("{\"meta\":1,\"program\":\"") + bundle.meta_program +
         "\",\"procs\":" + std::to_string(bundle.procs) +
         ",\"num_phases\":" + std::to_string(bundle.num_phases) +
         ",\"topology\":\"" + bundle.meta_topology +
         "\",\"arity\":" + std::to_string(bundle.arity) + ",\"semantics\":\"" +
         semantics_name(semantics) + "\",\"seed\":" + std::to_string(args.seed) +
         "}";
}

template <class P>
bool write_counterexample(const Args& args, const check::ProgramBundle<P>& bundle,
                          sim::Semantics semantics,
                          const trace::ScheduleRecording<P>& rec) {
  std::ofstream os(args.cx_out);
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", args.cx_out.c_str());
    return false;
  }
  os << meta_line(args, bundle, semantics) << "\n";
  for (const auto& line : trace::schedule_lines(rec)) {
    os << "{\"sched\":\"" << trace::json_escape(line) << "\"}\n";
  }
  if (!bundle.replayable_by_sim) {
    std::fprintf(stderr,
                 "warning: %s uses a non-default sequence modulus; "
                 "`ftbar_sim replay` rebuilds defaults and will diverge\n",
                 args.cx_out.c_str());
  }
  return os.good();
}

struct RunOutcome {
  int exit_code = 0;
  std::size_t interleaving_states = 0;  ///< for the oracle cross-check
};

void report(const Args& args, sim::Semantics sem, const char* verdict,
            std::size_t states, std::size_t levels, double seconds,
            const std::string& extra) {
  const double rate = seconds > 0 ? static_cast<double>(states) / seconds : 0.0;
  if (args.csv) {
    std::printf("%s,%s,%s,%s,%s,%zu,%zu,%.3f,%.0f%s%s\n", args.program.c_str(),
                semantics_name(sem), args.fault_class.c_str(), args.mode.c_str(),
                verdict, states, levels, seconds, rate, extra.empty() ? "" : ",",
                extra.c_str());
  } else {
    std::printf("%-4s %-12s fault=%-12s %-8s states=%-9zu levels=%-4zu "
                "%6.3fs %10.0f states/s  %s%s\n",
                args.program.c_str(), semantics_name(sem),
                args.fault_class.c_str(), verdict, states, levels, seconds, rate,
                extra.c_str(), extra.empty() ? "" : " ");
  }
}

/// Exhaustive run under one semantics. Returns 0/1/3 per the exit contract.
template <class P>
int run_exhaust(const Args& args, const check::ProgramBundle<P>& bundle,
                sim::Semantics semantics, RunOutcome& outcome) {
  const auto fc = args.fault_class == "none" ? check::FaultClass::kNone
                                             : check::FaultClass::kUndetectable;
  check::CheckOptions copt;
  copt.semantics = semantics;
  copt.max_states = args.max_states;
  copt.threads = args.threads;
  copt.schedule = args.schedule == "ws" ? check::Schedule::kWorkStealing
                                        : check::Schedule::kBfs;
  copt.symmetry = args.symmetry;
  copt.chunk = args.chunk;
  // Convergence queries need the transition graph; plain invariant checking
  // (fault-free closure, weakened-invariant hunts) does not.
  copt.record_edges = fc == check::FaultClass::kUndetectable && !args.weaken;

  std::unique_ptr<check::CheckStats> live;
  if (args.stats) {
    live = std::make_unique<check::CheckStats>();
    copt.live_stats = live.get();
  }

  typename check::Checker<P>::Invariant invariant;
  if (args.weaken) {
    // Deliberately false: fault-free runs complete phases, so the root does
    // reach cp=success — this exists to exercise the counterexample path.
    invariant = [](const std::vector<P>& s) {
      return s.front().cp != core::Cp::kSuccess;
    };
  } else if (fc == check::FaultClass::kNone) {
    invariant = bundle.safe;
  } else {
    invariant = [](const std::vector<P>&) { return true; };
  }
  const auto& roots =
      args.weaken ? bundle.roots(check::FaultClass::kNone) : bundle.roots(fc);

  check::Checker<P> checker(bundle.actions, bundle.procs, copt, bundle.symmetry);

  // Progress reporter: a stderr line every ~2s while exploration runs,
  // fed by the checker's lock-free live counters. Short runs print nothing.
  std::atomic<bool> run_done{false};
  std::thread progress;
  if (args.stats) {
    progress = std::thread([&] {
      const auto start = std::chrono::steady_clock::now();
      int ticks = 0;
      while (!run_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (++ticks % 20 != 0) continue;
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
        const auto expanded = live->expanded.load(std::memory_order_relaxed);
        const auto transitions = live->transitions.load(std::memory_order_relaxed);
        const auto dups = live->dup_fast.load(std::memory_order_relaxed) +
                          live->dup_slow.load(std::memory_order_relaxed);
        std::fprintf(stderr,
                     "[check] %s/%s: states=%llu expanded=%llu (%.0f/s) "
                     "frontier=%llu steals=%llu dedup=%.1f%%\n",
                     args.program.c_str(), semantics_name(semantics),
                     static_cast<unsigned long long>(
                         live->states.load(std::memory_order_relaxed)),
                     static_cast<unsigned long long>(expanded),
                     secs > 0 ? static_cast<double>(expanded) / secs : 0.0,
                     static_cast<unsigned long long>(
                         live->frontier.load(std::memory_order_relaxed)),
                     static_cast<unsigned long long>(
                         live->steals.load(std::memory_order_relaxed)),
                     transitions > 0 ? 100.0 * static_cast<double>(dups) /
                                           static_cast<double>(transitions)
                                     : 0.0);
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = checker.run(roots, invariant);
  const auto t1 = std::chrono::steady_clock::now();
  run_done.store(true, std::memory_order_relaxed);
  if (progress.joinable()) progress.join();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();

  if (args.stats) {
    const auto& c = result.counters;
    std::fprintf(args.csv ? stderr : stdout,
                 "  counters: expanded=%llu transitions=%llu interned=%llu "
                 "dup_fast=%llu dup_slow=%llu steals=%llu reexpansions=%llu "
                 "guard_evals=%llu dedup_hit=%.1f%% rate=%.0f states/s\n"
                 "  batching: chunks=%llu occupancy=%.1f/%zu flushes=%llu "
                 "shard_groups=%llu avg_group=%.1f\n",
                 static_cast<unsigned long long>(c.expanded),
                 static_cast<unsigned long long>(c.transitions),
                 static_cast<unsigned long long>(c.interned),
                 static_cast<unsigned long long>(c.dup_fast),
                 static_cast<unsigned long long>(c.dup_slow),
                 static_cast<unsigned long long>(c.steals),
                 static_cast<unsigned long long>(c.reexpansions),
                 static_cast<unsigned long long>(c.guard_evals),
                 100.0 * c.dedup_hit_rate(), c.states_per_sec(),
                 static_cast<unsigned long long>(c.chunks), c.avg_chunk_fill(),
                 args.chunk, static_cast<unsigned long long>(c.flushes),
                 static_cast<unsigned long long>(c.bulk_groups),
                 c.avg_group_size());
  }

  if (semantics == sim::Semantics::kInterleaving) {
    outcome.interleaving_states = result.states_visited;
  }

  if (result.truncated) {
    report(args, semantics, "TRUNCATED", result.states_visited, result.levels,
           seconds, "state budget exhausted; verdict unknown");
    return 3;
  }

  if (args.weaken) {
    if (!result.violation) {
      report(args, semantics, "FAIL", result.states_visited, result.levels,
             seconds, "weakened invariant produced no violation");
      return 1;
    }
    auto cx = check::shrink_counterexample(*result.violation, bundle.actions,
                                           invariant);
    const auto rec = check::counterexample_schedule(cx);
    const auto replay = trace::replay_schedule(rec, bundle.actions);
    if (!replay.ok) {
      report(args, semantics, "FAIL", result.states_visited, result.levels,
             seconds, "counterexample failed digest replay: " + replay.message);
      return 1;
    }
    if (!args.cx_out.empty() &&
        !write_counterexample(args, bundle, semantics, rec)) {
      return 2;
    }
    report(args, semantics, "CX-OK", result.states_visited, result.levels,
           seconds,
           "violated '" + cx.violated_by + "' in " +
               std::to_string(cx.length()) + " steps (shrunk from " +
               std::to_string(result.violation->length()) + "); replay verified");
    return 0;
  }

  if (result.violation) {
    const auto rec = check::counterexample_schedule(*result.violation);
    if (!args.cx_out.empty() &&
        !write_counterexample(args, bundle, semantics, rec)) {
      return 2;
    }
    report(args, semantics, "FAIL", result.states_visited, result.levels,
           seconds,
           "invariant violated by '" + result.violation->violated_by + "' at depth " +
               std::to_string(result.violation->length()));
    return 1;
  }

  std::string extra;
  int code = 0;
  if (fc == check::FaultClass::kUndetectable) {
    // Guaranteed convergence (no cycle/deadlock outside the legitimate set,
    // i.e. under ANY scheduler) is strictly stronger than the paper's
    // weakly-fair claim; all four programs satisfy it at their shipped
    // parameters, so failing it is the tighter regression tripwire.
    const auto q0 = std::chrono::steady_clock::now();
    const bool possible = checker.legit_reachable_from_all(bundle.legit);
    const bool guaranteed = possible && checker.converges_outside(bundle.legit);
    if (args.stats) {
      std::fprintf(args.csv ? stderr : stdout,
                   "  graph: edges=%zu post_pass=%.3fs\n", checker.graph_edges(),
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - q0)
                       .count());
    }
    if (guaranteed) {
      extra = "convergence guaranteed from every state";
    } else if (possible) {
      extra = "convergence possible but NOT guaranteed "
              "(cycle outside the legitimate set)";
      code = 1;
    } else {
      extra = "some state cannot reach a legitimate state";
      code = 1;
    }
  } else {
    extra = "closure invariant holds on all reachable states";
  }

  if (args.oracle && semantics == sim::Semantics::kInterleaving) {
    sim::Explorer<P, DigestHash<P>> seed(bundle.actions, DigestHash<P>{},
                                         args.max_states);
    const auto seed_result = seed.explore(roots, invariant);
    bool match = !seed_result.truncated && !seed_result.violation &&
                 seed_result.states_visited == result.states_visited;
    if (match) {
      std::vector<std::uint64_t> seed_digests;
      seed_digests.reserve(seed.states().size());
      for (const auto& s : seed.states()) {
        seed_digests.push_back(trace::state_digest(s));
      }
      std::sort(seed_digests.begin(), seed_digests.end());
      match = seed_digests == checker.sorted_digests();
    }
    extra += match ? "; oracle match (" + std::to_string(result.states_visited) +
                         " states, identical digest sets)"
                   : "; ORACLE MISMATCH vs seed Explorer";
    if (!match) code = 1;
  }

  report(args, semantics, code == 0 ? "PASS" : "FAIL", result.states_visited,
         result.levels, seconds, extra);
  return code;
}

template <class P>
int run_swarm(const Args& args, const check::ProgramBundle<P>& bundle,
              sim::Semantics semantics) {
  const auto fc = args.fault_class == "none" ? check::FaultClass::kNone
                                             : check::FaultClass::kUndetectable;
  check::SwarmOptions sopt;
  sopt.semantics = semantics;
  sopt.walks = args.walks;
  sopt.depth = args.depth;
  sopt.seed = args.seed;
  sopt.threads = static_cast<int>(args.threads);

  // Each walk starts from a root drawn from the fault class's root set —
  // for kUndetectable that is a random single-process corruption.
  const auto& roots = bundle.roots(fc);
  auto make_root = [&roots](util::Rng& rng) {
    return roots[rng.uniform(roots.size())];
  };
  // Fault-free walks must stay inside the closure invariant; perturbed
  // walks are coverage/fuzz runs (invariant checking would trip on the
  // perturbation itself), unless --weaken hunts the planted violation.
  std::function<bool(const std::vector<P>&)> invariant;
  if (args.weaken) {
    invariant = [](const std::vector<P>& s) {
      return s.front().cp != core::Cp::kSuccess;
    };
  } else if (fc == check::FaultClass::kNone) {
    invariant = bundle.safe;
  } else {
    invariant = [](const std::vector<P>&) { return true; };
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = check::swarm_check<P>(bundle.actions, make_root, invariant, sopt);
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();

  std::string extra = std::to_string(result.walks_run) + " walks, " +
                      std::to_string(result.total_steps) + " steps, coverage " +
                      std::to_string(result.distinct_states) + " distinct states";
  int code = 0;
  if (!result.ok()) {
    extra += "; " + std::to_string(result.violating_walks) +
             " violating walks, first at walk " +
             std::to_string(result.violating_walk) + " via '" +
             result.violated_by + "'";
    if (!args.cx_out.empty() &&
        !write_counterexample(args, bundle, semantics, *result.violation)) {
      return 2;
    }
    code = args.weaken ? 0 : 1;  // --weaken EXPECTS the planted violation
  } else if (args.weaken) {
    extra += "; weakened invariant produced no violation";
    code = 1;
  }
  report(args, semantics, code == 0 ? (result.ok() ? "PASS" : "CX-OK") : "FAIL",
         result.distinct_states, 0, seconds, extra);
  return code;
}

template <class P>
int run_bundle(const Args& args, const check::ProgramBundle<P>& bundle) {
#ifndef NDEBUG
  // Opt-in declared-contract validation before any exploration (debug
  // builds with FTBAR_AUDIT_DEBUG=1): an unsound read-set or foreign write
  // would make every verdict below meaningless. Aborts on a violation.
  if (audit::debug_audit_enabled() && !bundle.start_roots.empty()) {
    audit::debug_enforce(bundle.actions, bundle.procs,
                         bundle.start_roots.front(), "ftbar_check");
  }
#endif
  std::vector<sim::Semantics> semantics;
  if (args.semantics != "maxpar") semantics.push_back(sim::Semantics::kInterleaving);
  if (args.semantics != "interleaving") {
    semantics.push_back(sim::Semantics::kMaxParallel);
  }
  int worst = 0;
  RunOutcome outcome;
  for (const auto sem : semantics) {
    const int code = args.mode == "swarm" ? run_swarm(args, bundle, sem)
                                          : run_exhaust(args, bundle, sem, outcome);
    worst = std::max(worst, code);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.program == "cb") {
    return run_bundle(args, check::make_cb_bundle(args.n, args.num_phases));
  }
  if (args.program == "rb") {
    return run_bundle(args, check::make_rb_bundle(args.n, args.num_phases));
  }
  if (args.program == "rbp") {
    return run_bundle(args, check::make_rbp_bundle(args.n, args.num_phases));
  }
  if (args.program == "mb") {
    return run_bundle(args,
                      check::make_mb_bundle(args.n, args.num_phases, args.seq_modulus));
  }
  std::fprintf(stderr, "unknown program '%s'\n", args.program.c_str());
  return 2;
}
