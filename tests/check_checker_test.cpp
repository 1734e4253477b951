// Unit tests for the check/ subsystem: interned state storage, successor
// enumeration under both semantics, the parallel checker itself, and the
// counterexample bridge into trace replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/programs.hpp"
#include "check/semantics.hpp"
#include "check/state_store.hpp"
#include "check/swarm.hpp"
#include "core/rb.hpp"
#include "sim/step_engine.hpp"
#include "trace/replay.hpp"

namespace ftbar::check {
namespace {

using core::RbProc;
using core::RbState;

// The two-bit toy system of the seed Explorer tests.
struct Bit {
  int v = 0;
  friend auto operator<=>(const Bit&, const Bit&) = default;
};
using BitState = std::vector<Bit>;

sim::Action<Bit> set_bit(int j) {
  const auto uj = static_cast<std::size_t>(j);
  return sim::make_action<Bit>(
      "set@" + std::to_string(j), j,
      [uj](const BitState& s) { return s[uj].v == 0; },
      [uj](BitState& s) { s[uj].v = 1; });
}

sim::Action<Bit> add_bit(int j, int amount) {
  const auto uj = static_cast<std::size_t>(j);
  return sim::make_action<Bit>(
      "add" + std::to_string(amount) + "@" + std::to_string(j), j,
      [uj](const BitState& s) { return s[uj].v == 0; },
      [uj, amount](BitState& s) { s[uj].v += amount; });
}

// ---------------------------------------------------------------------------
// StateStore
// ---------------------------------------------------------------------------

TEST(StateStore, InternsDedupsAndKeepsDiscoveryMetadata) {
  StateStore<Bit> store(/*procs=*/2, /*max_states=*/100);
  const BitState a{Bit{0}, Bit{0}};
  const BitState b{Bit{1}, Bit{0}};
  const std::uint32_t fired_b[] = {7};

  const auto ra = store.intern(a.data(), store.digest(a.data()),
                               StateStore<Bit>::kNoId, {});
  ASSERT_TRUE(ra.inserted);
  const auto rb = store.intern(b.data(), store.digest(b.data()), ra.id, fired_b);
  ASSERT_TRUE(rb.inserted);
  EXPECT_EQ(store.size(), 2u);

  // Re-interning is a dedup hit that keeps the FIRST discovery edge.
  const std::uint32_t other_fired[] = {3, 4};
  const auto again = store.intern(b.data(), store.digest(b.data()), rb.id, other_fired);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.id, rb.id);
  EXPECT_EQ(store.size(), 2u);

  const auto span = store.state(rb.id);
  EXPECT_TRUE(std::equal(span.begin(), span.end(), b.begin(), b.end()));
  EXPECT_EQ(store.parent(rb.id), ra.id);
  EXPECT_EQ(store.parent(ra.id), StateStore<Bit>::kNoId);
  ASSERT_EQ(store.fired(rb.id).size(), 1u);
  EXPECT_EQ(store.fired(rb.id)[0], 7u);
  EXPECT_EQ(store.digest_of(rb.id), store.digest(b.data()));

  auto digests = store.sorted_digests();
  EXPECT_EQ(digests.size(), 2u);
  EXPECT_TRUE(std::is_sorted(digests.begin(), digests.end()));

  // The dense numbering is a bijection onto [0, size()), and
  // for_each_state visits the states in that order.
  const auto dense = store.dense_ids();
  const std::set<std::uint32_t> numbers{dense(ra.id), dense(rb.id)};
  EXPECT_EQ(numbers, (std::set<std::uint32_t>{0, 1}));
  std::vector<BitState> visited;
  store.for_each_state([&](std::span<const Bit> s) {
    visited.emplace_back(s.begin(), s.end());
  });
  ASSERT_EQ(visited.size(), 2u);
  EXPECT_EQ(visited[dense(ra.id)], a);
  EXPECT_EQ(visited[dense(rb.id)], b);
}

TEST(StateStore, InternBatchMatchesSingleInternSemantics) {
  using Store = StateStore<Bit>;
  Store store(/*procs=*/2, /*max_states=*/100, /*concurrent=*/true,
              /*fast_path=*/true, /*workers=*/1);
  const BitState root{Bit{0}, Bit{0}};
  const auto r0 =
      store.intern(root.data(), store.digest(root.data()), Store::kNoId, {});
  ASSERT_TRUE(r0.inserted);

  // Stage a batch the way the checker lays it out: three parallel arrays
  // (items / flat state bytes / flat fired lists).
  std::vector<Bit> states;
  const std::vector<std::uint32_t> fired{0, 1, 7, 7, 2};
  std::vector<Store::BulkItem> items;
  const auto stage = [&](const BitState& s, std::uint32_t ofs,
                         std::uint32_t len) {
    Store::BulkItem it;
    it.digest = store.digest(s.data());
    it.state_index = static_cast<std::uint32_t>(items.size());
    it.parent = r0.id;
    it.fired_ofs = ofs;
    it.fired_len = len;
    it.depth = 1;
    states.insert(states.end(), s.begin(), s.end());
    items.push_back(it);
  };
  stage(BitState{Bit{1}, Bit{0}}, 0, 1);  // fresh
  stage(BitState{Bit{0}, Bit{1}}, 1, 1);  // fresh
  stage(BitState{Bit{1}, Bit{0}}, 2, 2);  // in-batch duplicate of item 0
  stage(root, 4, 1);                      // duplicate of the pre-interned root

  std::vector<Store::InternResult> results(items.size());
  Store::BulkScratch scratch;
  const auto stats = store.intern_batch(items, states.data(), fired.data(),
                                        store.arena(0), scratch, results.data());

  EXPECT_TRUE(results[0].inserted);
  EXPECT_TRUE(results[1].inserted);
  EXPECT_FALSE(results[2].inserted);
  EXPECT_EQ(results[2].id, results[0].id);  // in-batch dup resolves to item 0
  EXPECT_FALSE(results[3].inserted);
  EXPECT_EQ(results[3].id, r0.id);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_GE(stats.groups, 1u);
  EXPECT_GE(stats.grouped_items, 2u);  // at least the two fresh insertions

  // First-discovery metadata of a fresh state matches its staged edge, and
  // the interned bytes round-trip out of the arena blob.
  EXPECT_EQ(store.parent(results[0].id), r0.id);
  ASSERT_EQ(store.fired(results[0].id).size(), 1u);
  EXPECT_EQ(store.fired(results[0].id)[0], 0u);
  EXPECT_EQ(store.depth(results[0].id), 1u);
  ASSERT_EQ(store.fired(results[2].id).size(), 1u);  // first edge kept on dup
  const auto span = store.state(results[1].id);
  const BitState b01{Bit{0}, Bit{1}};
  EXPECT_TRUE(std::equal(span.begin(), span.end(), b01.begin(), b01.end()));
  EXPECT_EQ(store.digest_of(results[1].id), store.digest(b01.data()));

  // Re-submitting the same batch is pure duplicates: size and ids stable.
  std::vector<Store::InternResult> again(items.size());
  store.intern_batch(items, states.data(), fired.data(), store.arena(0),
                     scratch, again.data());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_FALSE(again[i].inserted) << "item " << i;
    EXPECT_EQ(again[i].id, results[i].id) << "item " << i;
  }
  EXPECT_EQ(store.size(), 3u);
}

// ---------------------------------------------------------------------------
// SuccessorGen
// ---------------------------------------------------------------------------

TEST(SuccessorGen, InterleavingEmitsOneSuccessorPerEnabledAction) {
  // SuccessorGen holds a reference: the action vector must outlive it.
  const std::vector<sim::Action<Bit>> actions{set_bit(0), set_bit(1)};
  SuccessorGen<Bit> gen(actions, 2);
  std::vector<BitState> nexts;
  std::vector<std::vector<std::uint32_t>> fireds;
  gen.for_each_successor(BitState{Bit{0}, Bit{0}}, sim::Semantics::kInterleaving,
                         [&](const BitState& n, std::span<const std::uint32_t> f,
                             std::uint64_t digest) {
                           EXPECT_EQ(digest, trace::state_digest(n));
                           nexts.push_back(n);
                           fireds.emplace_back(f.begin(), f.end());
                         });
  ASSERT_EQ(nexts.size(), 2u);
  EXPECT_EQ(nexts[0], (BitState{Bit{1}, Bit{0}}));
  EXPECT_EQ(nexts[1], (BitState{Bit{0}, Bit{1}}));
  EXPECT_EQ(fireds[0], (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(fireds[1], (std::vector<std::uint32_t>{1}));
}

TEST(SuccessorGen, MaxParallelEnumeratesChoiceProduct) {
  // Process 0 has two enabled choices, process 1 has one: the product has
  // two combinations, each firing BOTH processes (ascending process order).
  const std::vector<sim::Action<Bit>> actions{add_bit(0, 1), add_bit(0, 2),
                                              add_bit(1, 5)};
  SuccessorGen<Bit> gen(actions, 2);
  std::vector<BitState> nexts;
  std::vector<std::vector<std::uint32_t>> fireds;
  gen.for_each_successor(BitState{Bit{0}, Bit{0}}, sim::Semantics::kMaxParallel,
                         [&](const BitState& n, std::span<const std::uint32_t> f,
                             std::uint64_t digest) {
                           EXPECT_EQ(digest, trace::state_digest(n));
                           nexts.push_back(n);
                           fireds.emplace_back(f.begin(), f.end());
                         });
  ASSERT_EQ(nexts.size(), 2u);
  EXPECT_EQ(nexts[0], (BitState{Bit{1}, Bit{5}}));
  EXPECT_EQ(nexts[1], (BitState{Bit{2}, Bit{5}}));
  EXPECT_EQ(fireds[0], (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(fireds[1], (std::vector<std::uint32_t>{1, 2}));
}

TEST(SuccessorGen, QuiescentStateHasNoSuccessors) {
  const std::vector<sim::Action<Bit>> actions{set_bit(0)};
  SuccessorGen<Bit> gen(actions, 1);
  int calls = 0;
  for (const auto sem :
       {sim::Semantics::kInterleaving, sim::Semantics::kMaxParallel}) {
    gen.for_each_successor(
        BitState{Bit{1}}, sem,
        [&](const BitState&, std::span<const std::uint32_t>, std::uint64_t) {
          ++calls;
        });
  }
  EXPECT_EQ(calls, 0);
}

TEST(SuccessorGen, MaxParallelAgreesWithStepEngine) {
  // Every maximal-parallel step the LIVE engine can take from a perturbed RB
  // state must be one of the enumerated successors.
  const auto b = make_rb_bundle(3);
  const RbState from = b.perturbed_roots[b.perturbed_roots.size() / 2];
  std::set<RbState> successors;
  SuccessorGen<RbProc> gen(b.actions, b.procs);
  gen.for_each_successor(
      from, sim::Semantics::kMaxParallel,
      [&](const RbState& n, std::span<const std::uint32_t>, std::uint64_t) {
        successors.insert(n);
      });
  ASSERT_FALSE(successors.empty());
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::StepEngine<RbProc> eng(from, b.actions, util::Rng(seed),
                                sim::Semantics::kMaxParallel);
    ASSERT_GT(eng.step(), 0u);
    EXPECT_TRUE(successors.contains(eng.state()))
        << "engine step with seed " << seed << " not enumerated";
  }
}

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

TEST(Checker, CountsReachableStatesLikeTheSeedExplorer) {
  Checker<Bit> ck({set_bit(0), set_bit(1)}, 2);
  const auto res = ck.run({BitState{Bit{0}, Bit{0}}},
                          [](const BitState&) { return true; });
  EXPECT_EQ(res.states_visited, 4u);  // (0,0) -> (1,0),(0,1) -> (1,1)
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.levels, 3u);  // two expansions plus the empty-frontier level
}

TEST(Checker, ViolatingRootIsReportedAsInitial) {
  Checker<Bit> ck({set_bit(0)}, 1);
  const auto res =
      ck.run({BitState{Bit{1}}}, [](const BitState& s) { return s[0].v == 0; });
  ASSERT_TRUE(res.violation.has_value());
  EXPECT_EQ(res.violation->violated_by, "<initial>");
  EXPECT_EQ(res.violation->length(), 0u);
}

TEST(Checker, TruncatesAtMaxStates) {
  auto inc = sim::make_action<Bit>(
      "inc", 0, [](const BitState& s) { return s[0].v < 1'000'000; },
      [](BitState& s) { ++s[0].v; });
  CheckOptions opt;
  opt.max_states = 50;
  Checker<Bit> ck({inc}, 1, opt);
  const auto res = ck.run({BitState{Bit{0}}}, [](const BitState&) { return true; });
  EXPECT_TRUE(res.truncated);
  EXPECT_FALSE(res.ok());
}

TEST(Checker, ThreadCountDoesNotChangeTheVisitedSet) {
  const auto b = make_rb_bundle(4);
  std::size_t baseline_states = 0;
  std::vector<std::uint64_t> baseline_digests;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    CheckOptions opt;
    opt.threads = threads;
    Checker<RbProc> ck(b.actions, b.procs, opt);
    const auto res =
        ck.run(b.perturbed_roots, [](const RbState&) { return true; });
    ASSERT_TRUE(res.ok());
    if (threads == 1) {
      baseline_states = res.states_visited;
      baseline_digests = ck.sorted_digests();
      continue;
    }
    EXPECT_EQ(res.states_visited, baseline_states) << threads << " threads";
    EXPECT_EQ(ck.sorted_digests(), baseline_digests) << threads << " threads";
  }
}

TEST(Checker, CounterexamplePathReplaysStepByStep) {
  const auto b = make_rb_bundle(3);
  // Weakened invariant: pretend the root process may never reach success.
  const auto no_success = [](const RbState& s) {
    return s.front().cp != core::Cp::kSuccess;
  };
  Checker<RbProc> ck(b.actions, b.procs);
  const auto res = ck.run(b.start_roots, no_success);
  ASSERT_TRUE(res.violation.has_value());
  const auto& cx = *res.violation;
  ASSERT_GT(cx.length(), 0u);
  EXPECT_EQ(cx.path.front(), b.start_roots.front());
  EXPECT_FALSE(no_success(cx.path.back()));
  EXPECT_FALSE(cx.violated_by.empty());

  // Each fired list transitions path[i] into path[i+1]...
  RbState state = cx.path.front();
  for (std::size_t i = 0; i < cx.fired.size(); ++i) {
    ASSERT_TRUE(apply_fired(state, cx.fired[i], b.actions, cx.semantics));
    EXPECT_EQ(state, cx.path[i + 1]) << "step " << i;
  }
  // ...and the schedule bridge replays digest-pinned through trace replay.
  const auto report = trace::replay_schedule(counterexample_schedule(cx), b.actions);
  EXPECT_TRUE(report.ok) << report.message;
  EXPECT_EQ(report.steps_replayed, cx.length());
}

// ---------------------------------------------------------------------------
// Work-stealing schedule
// ---------------------------------------------------------------------------

TEST(WorkStealing, MatchesBfsStateCountDiameterAndDigestsAcrossThreadCounts) {
  const auto b = make_rb_bundle(4);
  const auto always = [](const RbState&) { return true; };

  Checker<RbProc> bfs(b.actions, b.procs);
  const auto bfs_res = bfs.run(b.perturbed_roots, always);
  ASSERT_TRUE(bfs_res.ok());
  const auto bfs_digests = bfs.sorted_digests();

  for (const std::size_t threads : {1u, 2u, 8u}) {
    CheckOptions opt;
    opt.schedule = Schedule::kWorkStealing;
    opt.threads = threads;
    Checker<RbProc> ws(b.actions, b.procs, opt);
    const auto res = ws.run(b.perturbed_roots, always);
    ASSERT_TRUE(res.ok()) << threads << " threads";
    EXPECT_EQ(res.states_visited, bfs_res.states_visited)
        << threads << " threads";
    EXPECT_EQ(res.levels, bfs_res.levels) << threads << " threads";
    EXPECT_EQ(ws.sorted_digests(), bfs_digests) << threads << " threads";
  }
}

TEST(WorkStealing, FindsTheViolationWheneverBfsDoesAndItReplays) {
  const auto b = make_rb_bundle(3);
  const std::function<bool(const RbState&)> no_success =
      [](const RbState& s) { return s.front().cp != core::Cp::kSuccess; };

  Checker<RbProc> bfs(b.actions, b.procs);
  const bool bfs_violates =
      bfs.run(b.start_roots, no_success).violation.has_value();
  ASSERT_TRUE(bfs_violates);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    CheckOptions opt;
    opt.schedule = Schedule::kWorkStealing;
    opt.threads = threads;
    Checker<RbProc> ws(b.actions, b.procs, opt);
    const auto res = ws.run(b.start_roots, no_success);
    ASSERT_EQ(res.violation.has_value(), bfs_violates) << threads << " threads";

    // A work-stealing-discovered counterexample shrinks and replays exactly
    // like a BFS one (which violation is found may differ run to run with
    // threads > 1, so only the pipeline is pinned, not the specific path).
    const auto small = shrink_counterexample(*res.violation, b.actions,
                                             no_success);
    ASSERT_GT(small.path.size(), 0u);
    EXPECT_FALSE(no_success(small.path.back()));
    const auto report =
        trace::replay_schedule(counterexample_schedule(small), b.actions);
    EXPECT_TRUE(report.ok) << report.message;
    EXPECT_EQ(report.steps_replayed, small.length());
  }
}

// ---------------------------------------------------------------------------
// Convergence graph
// ---------------------------------------------------------------------------

TEST(ConvergenceGraph, EdgeCountAndVerdictsIdenticalAcrossThreadsAndSchedules) {
  // RB N=8, 8 phases, undetectable roots: 73,165 states. Work stealing at
  // several threads re-expands states whose depth improved, which records
  // their edges again; the graph must dedupe them to the one-thread count.
  const auto b = make_rb_bundle(8, 8);
  const auto always = [](const RbState&) { return true; };
  std::optional<std::size_t> baseline_edges;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const auto sched : {Schedule::kBfs, Schedule::kWorkStealing}) {
      CheckOptions opt;
      opt.threads = threads;
      opt.schedule = sched;
      opt.record_edges = true;
      Checker<RbProc> ck(b.actions, b.procs, opt);
      const auto res = ck.run(b.roots(FaultClass::kUndetectable), always);
      const auto tag = std::to_string(threads) + " threads" +
                       (sched == Schedule::kBfs ? " bfs" : " ws");
      ASSERT_TRUE(res.ok()) << tag;
      EXPECT_EQ(res.states_visited, 73'165u) << tag;
      EXPECT_TRUE(ck.legit_reachable_from_all(b.legit)) << tag;
      EXPECT_TRUE(ck.converges_outside(b.legit)) << tag;
      if (!baseline_edges) baseline_edges = ck.graph_edges();
      EXPECT_EQ(ck.graph_edges(), *baseline_edges) << tag;
      // On a clean run every enumerated successor is a recorded edge, so
      // the counter exceeds the distinct count exactly when states were
      // re-expanded (or two actions share a successor, which RB has not).
      EXPECT_EQ(res.counters.transitions > ck.graph_edges(),
                res.counters.reexpansions > 0)
          << tag;
    }
  }
}

// ---------------------------------------------------------------------------
// Batching determinism
// ---------------------------------------------------------------------------

// The chunk size is scheduler plumbing: at ANY granularity, under either
// schedule, any thread count, either semantics, symmetry on or off, the
// clean-run result (state count, diameter, sorted digests) must be
// bit-identical to the default-option baseline. chunk = 1 is the PR 4
// per-state handoff; 3 exercises partial-chunk publication on every
// frontier; 256 is the chunk capacity.
template <class P>
void expect_batching_invariance(const ProgramBundle<P>& b, const char* name) {
  const auto always = [](const std::vector<P>&) { return true; };
  for (const auto semantics :
       {sim::Semantics::kInterleaving, sim::Semantics::kMaxParallel}) {
    for (const bool symmetry : {false, true}) {
      CheckOptions base;
      base.semantics = semantics;
      base.symmetry = symmetry;
      Checker<P> ref(b.actions, b.procs, base, b.symmetry);
      const auto ref_res = ref.run(b.perturbed_roots, always);
      ASSERT_TRUE(ref_res.ok()) << name;
      const auto ref_digests = ref.sorted_digests();
      for (const std::size_t chunk : {1u, 3u, 64u, 256u}) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
          for (const auto sched : {Schedule::kBfs, Schedule::kWorkStealing}) {
            CheckOptions opt = base;
            opt.chunk = chunk;
            opt.threads = threads;
            opt.schedule = sched;
            Checker<P> ck(b.actions, b.procs, opt, b.symmetry);
            const auto res = ck.run(b.perturbed_roots, always);
            const auto tag = [&] {
              return std::string(name) +
                     (semantics == sim::Semantics::kMaxParallel ? " maxpar"
                                                                : " interleaving") +
                     (symmetry ? " sym" : "") +
                     (sched == Schedule::kWorkStealing ? " ws" : " bfs") +
                     " chunk=" + std::to_string(chunk) +
                     " threads=" + std::to_string(threads);
            }();
            ASSERT_TRUE(res.ok()) << tag;
            EXPECT_EQ(res.states_visited, ref_res.states_visited) << tag;
            EXPECT_EQ(res.levels, ref_res.levels) << tag;
            EXPECT_EQ(ck.sorted_digests(), ref_digests) << tag;
          }
        }
      }
    }
  }
}

TEST(Batching, ChunkSizeNeverChangesTheResultOnAnyBundle) {
  expect_batching_invariance(make_cb_bundle(3), "cb");
  expect_batching_invariance(make_rb_bundle(3), "rb");
  expect_batching_invariance(make_rbp_bundle(3), "rbp");
  expect_batching_invariance(make_mb_bundle(3), "mb");
}

TEST(Batching, CounterexampleIdenticalAcrossChunkSizesAtOneThread) {
  // At one thread both schedules expand in a deterministic global order
  // regardless of batch granularity, so not just the verdict but the exact
  // counterexample (path, schedule, violating action) must be chunk-size
  // independent. (At threads > 1 which violation is found may race; only
  // the single-thread order is pinned.)
  const auto b = make_rb_bundle(3);
  const auto no_success = [](const RbState& s) {
    return s.front().cp != core::Cp::kSuccess;
  };
  for (const auto sched : {Schedule::kBfs, Schedule::kWorkStealing}) {
    std::optional<Counterexample<RbProc>> baseline;
    for (const std::size_t chunk : {1u, 3u, 64u, 256u}) {
      CheckOptions opt;
      opt.schedule = sched;
      opt.chunk = chunk;
      Checker<RbProc> ck(b.actions, b.procs, opt);
      const auto res = ck.run(b.start_roots, no_success);
      ASSERT_TRUE(res.violation.has_value()) << "chunk=" << chunk;
      if (!baseline) {
        baseline = *res.violation;
        continue;
      }
      EXPECT_EQ(res.violation->path, baseline->path) << "chunk=" << chunk;
      EXPECT_EQ(res.violation->fired, baseline->fired) << "chunk=" << chunk;
      EXPECT_EQ(res.violation->violated_by, baseline->violated_by)
          << "chunk=" << chunk;
    }
  }
}

// ---------------------------------------------------------------------------
// Counterexample shrinking
// ---------------------------------------------------------------------------

TEST(Shrink, DropsIrrelevantStepsAndRecomputesPath) {
  // Three independent bits; only bit 2 matters to the invariant. A walk that
  // sets all three must shrink to the single step setting bit 2.
  const std::vector<sim::Action<Bit>> actions{set_bit(0), set_bit(1), set_bit(2)};
  const std::function<bool(const BitState&)> invariant =
      [](const BitState& s) { return s[2].v == 0; };
  Counterexample<Bit> cx;
  cx.semantics = sim::Semantics::kInterleaving;
  cx.path.push_back(BitState{Bit{0}, Bit{0}, Bit{0}});
  for (const std::uint32_t ai : {0u, 1u, 2u}) {
    auto next = cx.path.back();
    actions[ai].apply(next);
    cx.path.push_back(next);
    cx.fired.push_back({ai});
  }
  cx.violated_by = actions[2].name;

  const auto small = shrink_counterexample(cx, actions, invariant);
  ASSERT_EQ(small.length(), 1u);
  EXPECT_EQ(small.fired[0], (std::vector<std::uint32_t>{2}));
  ASSERT_EQ(small.path.size(), 2u);
  EXPECT_EQ(small.path.front(), cx.path.front());
  EXPECT_FALSE(invariant(small.path.back()));
  EXPECT_EQ(small.violated_by, actions[2].name);
}

// ---------------------------------------------------------------------------
// Swarm mode
// ---------------------------------------------------------------------------

TEST(Swarm, FindsPlantedViolationDeterministicallyAcrossThreadCounts) {
  const auto b = make_rb_bundle(4);
  const auto no_success = [](const RbState& s) {
    return s.front().cp != core::Cp::kSuccess;
  };
  const std::function<RbState(util::Rng&)> make_root =
      [&](util::Rng&) { return b.start_roots.front(); };

  SwarmResult<RbProc> baseline;
  for (const int threads : {1, 3}) {
    SwarmOptions opt;
    opt.walks = 16;
    opt.depth = 128;
    opt.seed = 42;
    opt.threads = threads;
    const auto res = swarm_check<RbProc>(b.actions, make_root, no_success, opt);
    EXPECT_FALSE(res.ok());
    ASSERT_TRUE(res.violation.has_value());
    EXPECT_GT(res.distinct_states, 1u);
    if (threads == 1) {
      baseline = res;
      // The violating walk's recording replays and its end state violates.
      const auto report = trace::replay_schedule(*res.violation, b.actions);
      EXPECT_TRUE(report.ok) << report.message;
      RbState state = res.violation->initial;
      for (const auto& step : res.violation->steps) {
        ASSERT_TRUE(apply_fired(state, step.fired, b.actions,
                                res.violation->semantics));
      }
      EXPECT_FALSE(no_success(state));
      continue;
    }
    // util::Sweep's determinism contract: identical outcome at any pool size.
    EXPECT_EQ(res.violating_walk, baseline.violating_walk);
    EXPECT_EQ(res.violating_walks, baseline.violating_walks);
    EXPECT_EQ(res.total_steps, baseline.total_steps);
    EXPECT_EQ(res.distinct_states, baseline.distinct_states);
    EXPECT_EQ(res.violated_by, baseline.violated_by);
  }
}

TEST(Swarm, CleanProgramReportsCoverageOnly) {
  const auto b = make_rb_bundle(3);
  const std::function<RbState(util::Rng&)> make_root = [&](util::Rng& rng) {
    return b.perturbed_roots[rng.uniform(b.perturbed_roots.size())];
  };
  SwarmOptions opt;
  opt.walks = 32;
  opt.depth = 32;
  const auto res = swarm_check<RbProc>(
      b.actions, make_root, [](const RbState&) { return true; }, opt);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.walks_run, 32u);
  EXPECT_GT(res.total_steps, 0u);
  EXPECT_GT(res.distinct_states, 32u);  // walks visit more than their roots
}

}  // namespace
}  // namespace ftbar::check
