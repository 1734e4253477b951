#include "sim/model_check.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "check/checker.hpp"

namespace ftbar::sim {
namespace {

struct Bit {
  int v = 0;
  friend auto operator<=>(const Bit&, const Bit&) = default;
};
using State = std::vector<Bit>;

struct BitHash {
  std::size_t operator()(const State& s) const {
    std::size_t h = 1469598103934665603ULL;
    for (const auto& b : s) {
      h ^= static_cast<std::size_t>(b.v);
      h *= 1099511628211ULL;
    }
    return h;
  }
};

Action<Bit> set_bit(int j) {
  const auto uj = static_cast<std::size_t>(j);
  return make_action<Bit>(
      "set@" + std::to_string(j), j,
      [uj](const State& s) { return s[uj].v == 0; },
      [uj](State& s) { s[uj].v = 1; });
}

TEST(Explorer, CountsReachableStates) {
  Explorer<Bit, BitHash> ex({set_bit(0), set_bit(1)}, BitHash{});
  const auto result = ex.explore({State{Bit{0}, Bit{0}}},
                                 [](const State&) { return true; });
  // (0,0) -> (1,0),(0,1) -> (1,1): four states.
  EXPECT_EQ(result.states_visited, 4u);
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_FALSE(result.truncated);
}

TEST(Explorer, FindsInvariantViolation) {
  Explorer<Bit, BitHash> ex({set_bit(0), set_bit(1)}, BitHash{});
  const auto result =
      ex.explore({State{Bit{0}, Bit{0}}},
                 [](const State& s) { return s[0].v + s[1].v < 2; });
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ((*result.violation)[0].v + (*result.violation)[1].v, 2);
  EXPECT_FALSE(result.violated_by.empty());
}

TEST(Explorer, ViolatingInitialStateReported) {
  Explorer<Bit, BitHash> ex({set_bit(0)}, BitHash{});
  const auto result =
      ex.explore({State{Bit{1}}}, [](const State& s) { return s[0].v == 0; });
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violated_by, "<initial>");
}

TEST(Explorer, MultipleRootsAreMerged) {
  Explorer<Bit, BitHash> ex({set_bit(0)}, BitHash{});
  const auto result = ex.explore({State{Bit{0}}, State{Bit{1}}},
                                 [](const State&) { return true; });
  EXPECT_EQ(result.states_visited, 2u);
}

TEST(Explorer, TruncatesAtMaxStates) {
  // Mod-counter with a huge range; cap exploration.
  auto inc = make_action<Bit>(
      "inc", 0, [](const State& s) { return s[0].v < 1'000'000; },
      [](State& s) { ++s[0].v; });
  Explorer<Bit, BitHash> ex({inc}, BitHash{}, /*max_states=*/50);
  const auto result = ex.explore({State{Bit{0}}}, [](const State&) { return true; });
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.states_visited, 51u);
}

TEST(Explorer, LegitReachableFromAll) {
  // set_bit drives everything toward (1,1); let legit = all ones.
  Explorer<Bit, BitHash> ex({set_bit(0), set_bit(1)}, BitHash{});
  ex.explore({State{Bit{0}, Bit{0}}}, [](const State&) { return true; });
  EXPECT_TRUE(ex.legit_reachable_from_all(
      [](const State& s) { return s[0].v == 1 && s[1].v == 1; }));
  // An unreachable legit definition must fail.
  EXPECT_FALSE(ex.legit_reachable_from_all(
      [](const State& s) { return s[0].v == 7; }));
}

TEST(Explorer, ConvergesOutsideAcceptsAcyclicEscape) {
  // 0 -> 1 -> 2 (legit). Non-legit subgraph {0,1} is acyclic with no
  // deadlock, so convergence holds under any scheduling.
  auto inc = make_action<Bit>(
      "inc", 0, [](const State& s) { return s[0].v < 2; },
      [](State& s) { ++s[0].v; });
  Explorer<Bit, BitHash> ex({inc}, BitHash{});
  ex.explore({State{Bit{0}}}, [](const State&) { return true; });
  EXPECT_TRUE(ex.converges_outside([](const State& s) { return s[0].v == 2; }));
}

TEST(Explorer, ConvergesOutsideRejectsCycles) {
  // v flips between 0 and 1 forever; legit is unreachable v==2.
  auto flip = make_action<Bit>(
      "flip", 0, [](const State&) { return true; },
      [](State& s) { s[0].v = 1 - s[0].v; });
  Explorer<Bit, BitHash> ex({flip}, BitHash{});
  ex.explore({State{Bit{0}}}, [](const State&) { return true; });
  EXPECT_FALSE(ex.converges_outside([](const State& s) { return s[0].v == 2; }));
}

TEST(Explorer, ConvergesOutsideRejectsNonLegitDeadlock) {
  // A single state with no transitions that is not legit.
  auto never = make_action<Bit>(
      "never", 0, [](const State&) { return false; }, [](State&) {});
  Explorer<Bit, BitHash> ex({never}, BitHash{});
  ex.explore({State{Bit{0}}}, [](const State&) { return true; });
  EXPECT_FALSE(ex.converges_outside([](const State& s) { return s[0].v == 1; }));
  EXPECT_TRUE(ex.converges_outside([](const State& s) { return s[0].v == 0; }));
}

TEST(Explorer, ViolatingTransitionIsRecordedInTheGraph) {
  // Regression: the edge INTO a violating state used to be dropped by the
  // violation early-return, silently truncating the graph handed to the
  // convergence queries. With 0 -> 1 -> 2 and the invariant failing at 2,
  // state 1 reaches the violating state only through that final edge.
  auto inc = make_action<Bit>(
      "inc", 0, [](const State& s) { return s[0].v < 2; },
      [](State& s) { ++s[0].v; });
  Explorer<Bit, BitHash> ex({inc}, BitHash{});
  const auto result =
      ex.explore({State{Bit{0}}}, [](const State& s) { return s[0].v < 2; });
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_TRUE(ex.legit_reachable_from_all(
      [](const State& s) { return s[0].v == 2; }));
}

TEST(Explorer, AgreesWithTheCheckSubsystem) {
  // The seed Explorer stays on as the differential oracle for the check/
  // subsystem that supersedes it (tests/check_fuzz_test.cpp runs the full
  // 500-seed sweep; this pins the toy model both suites reason about).
  const std::vector<Action<Bit>> actions{set_bit(0), set_bit(1)};
  Explorer<Bit, BitHash> ex(actions, BitHash{});
  const auto seed =
      ex.explore({State{Bit{0}, Bit{0}}}, [](const State&) { return true; });
  check::Checker<Bit> ck(actions, 2);
  const auto res =
      ck.run({State{Bit{0}, Bit{0}}}, [](const State&) { return true; });
  EXPECT_EQ(res.states_visited, seed.states_visited);
  EXPECT_FALSE(res.violation.has_value());
}

// One toy graph for the convergence queries, with the verdicts and the
// distinct edge count both implementations must report.
struct ToyGraph {
  const char* name;
  std::vector<Action<Bit>> actions;
  State root;
  std::function<bool(const State&)> legit;
  bool possible;    ///< legit_reachable_from_all
  bool guaranteed;  ///< converges_outside
  std::size_t edges;
};

Action<Bit> step_to(const char* name, int from, int to) {
  return make_action<Bit>(
      name, 0, [from](const State& s) { return s[0].v == from; },
      [to](State& s) { s[0].v = to; });
}

std::vector<ToyGraph> toy_graphs() {
  const auto is = [](int v) {
    return std::function<bool(const State&)>(
        [v](const State& s) { return s[0].v == v; });
  };
  const auto all_ones = [](const State& s) {
    return s[0].v == 1 && s[1].v == 1;
  };
  const State zero{Bit{0}};
  const State two_bits{Bit{0}, Bit{0}};
  return {
      {"acyclic escape 0->1->2", {step_to("a", 0, 1), step_to("b", 1, 2)},
       zero, is(2), true, true, 2},
      {"2-cycle", {step_to("a", 0, 1), step_to("b", 1, 0)}, zero, is(2),
       false, false, 2},
      {"2-cycle with an escape",
       {step_to("a", 0, 1), step_to("b", 1, 0), step_to("c", 1, 2)}, zero,
       is(2), true, false, 3},
      {"non-legit deadlock", {step_to("never", 5, 6)}, zero, is(1), false,
       false, 0},
      {"legit deadlock", {step_to("never", 5, 6)}, zero, is(0), true, true, 0},
      {"unreachable legit", {set_bit(0), set_bit(1)}, two_bits, is(7), false,
       false, 4},
      {"reachable legit", {set_bit(0), set_bit(1)}, two_bits, all_ones, true,
       true, 4},
      {"self-loop outside legit", {step_to("stay", 0, 0), step_to("go", 0, 1)},
       zero, is(1), true, false, 2},
      {"two actions, one edge",
       {step_to("a", 0, 1), step_to("a'", 0, 1), step_to("b", 1, 2)}, zero,
       is(2), true, true, 2},
  };
}

TEST(Explorer, CheckerAnswersTheToyConvergenceGraphsLikeTheSeed) {
  const auto always = [](const State&) { return true; };
  for (const auto& g : toy_graphs()) {
    Explorer<Bit, BitHash> ex(g.actions, BitHash{});
    ex.explore({g.root}, always);
    EXPECT_EQ(ex.legit_reachable_from_all(g.legit), g.possible) << g.name;
    EXPECT_EQ(ex.converges_outside(g.legit), g.guaranteed) << g.name;
    for (const std::size_t threads : {1u, 4u}) {
      for (const auto sched :
           {check::Schedule::kBfs, check::Schedule::kWorkStealing}) {
        check::CheckOptions opt;
        opt.threads = threads;
        opt.schedule = sched;
        opt.record_edges = true;
        check::Checker<Bit> ck(g.actions, g.root.size(), opt);
        const auto tag = std::string(g.name) + " threads=" +
                         std::to_string(threads) +
                         (sched == check::Schedule::kBfs ? " bfs" : " ws");
        ASSERT_TRUE(ck.run({g.root}, always).ok()) << tag;
        EXPECT_EQ(ck.legit_reachable_from_all(g.legit), g.possible) << tag;
        EXPECT_EQ(ck.converges_outside(g.legit), g.guaranteed) << tag;
        EXPECT_EQ(ck.graph_edges(), g.edges) << tag;
      }
    }
  }
}

TEST(Explorer, StatesAccessorExposesAllStates) {
  Explorer<Bit, BitHash> ex({set_bit(0), set_bit(1)}, BitHash{});
  ex.explore({State{Bit{0}, Bit{0}}}, [](const State&) { return true; });
  EXPECT_EQ(ex.states().size(), 4u);
}

}  // namespace
}  // namespace ftbar::sim
