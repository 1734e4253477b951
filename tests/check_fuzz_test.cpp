// Differential fuzzing of the check/ subsystem against the seed
// sim::Explorer it supersedes: 500 seeded runs over randomly drawn root
// sets of all four programs. On the shared semantics (interleaving — the
// only one the seed implements) the two implementations must produce the
// SAME verdict, and on clean exhaustive runs the same visited-state set:
// bit-identical state counts and identical sorted digest fingerprints, plus
// agreement on both convergence queries over the recorded graphs.
//
// Each stream also draws a scheduler configuration — BFS or work-stealing,
// chunk size from {1, 3, 64, 256}, 1, 2 or 4 worker threads — so the
// batching plumbing is fuzzed against the seed under every handoff
// granularity, and the convergence graph is built from several workers'
// edge buffers, not just one.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "check/checker.hpp"
#include "check/programs.hpp"
#include "sim/model_check.hpp"
#include "trace/replay.hpp"
#include "util/sweep.hpp"

namespace ftbar::check {
namespace {

template <class P>
struct DigestHash {
  std::size_t operator()(const std::vector<P>& s) const {
    return static_cast<std::size_t>(trace::state_digest(s));
  }
};

constexpr std::uint64_t kFuzzSeed = 0xd1ffe2e27ull;
constexpr std::size_t kRuns = 500;

template <class P>
void differential_run(const ProgramBundle<P>& b, std::uint64_t stream) {
  util::Rng rng = util::stream_rng(kFuzzSeed, stream);

  // Roots: a random non-empty sample of the perturbation neighbourhood.
  std::vector<std::vector<P>> roots;
  const std::size_t picks = 1 + rng.uniform(4);
  for (std::size_t i = 0; i < picks; ++i) {
    roots.push_back(b.perturbed_roots[rng.uniform(b.perturbed_roots.size())]);
  }

  // Half the runs hunt safety violations (perturbed roots usually violate),
  // half collect the reachable set and compare the convergence queries too.
  const bool hunt = stream % 2 == 0;
  const std::function<bool(const std::vector<P>&)> invariant =
      hunt ? b.safe : [](const std::vector<P>&) { return true; };

  CheckOptions copt;
  copt.record_edges = !hunt;
  copt.schedule =
      rng.uniform(2) == 0 ? Schedule::kBfs : Schedule::kWorkStealing;
  constexpr std::size_t kChunks[] = {1, 3, 64, 256};
  copt.chunk = kChunks[rng.uniform(4)];
  constexpr std::size_t kThreads[] = {1, 2, 4};
  copt.threads = kThreads[rng.uniform(3)];
  Checker<P> checker(b.actions, b.procs, copt);
  const auto cres = checker.run(roots, invariant);

  sim::Explorer<P, DigestHash<P>> seed(b.actions, DigestHash<P>{});
  const auto sres = seed.explore(roots, invariant);

  ASSERT_FALSE(cres.truncated) << "stream " << stream;
  ASSERT_FALSE(sres.truncated) << "stream " << stream;
  EXPECT_EQ(cres.violation.has_value(), sres.violation.has_value())
      << "verdicts differ on stream " << stream;
  if (cres.violation.has_value() || sres.violation.has_value()) return;

  // Clean exhaustive runs: the reachable set is unique, so the count must be
  // bit-identical and the digest fingerprints equal element for element.
  EXPECT_EQ(cres.states_visited, sres.states_visited) << "stream " << stream;
  std::vector<std::uint64_t> seed_digests;
  seed_digests.reserve(seed.states().size());
  for (const auto& s : seed.states()) {
    seed_digests.push_back(trace::state_digest(s));
  }
  std::sort(seed_digests.begin(), seed_digests.end());
  EXPECT_EQ(checker.sorted_digests(), seed_digests) << "stream " << stream;

  // Both transition graphs must answer the convergence queries identically
  // (only the collect runs recorded edges; hunt runs have no graph).
  if (!hunt) {
    EXPECT_EQ(checker.legit_reachable_from_all(b.legit),
              seed.legit_reachable_from_all(b.legit))
        << "stream " << stream;
    EXPECT_EQ(checker.converges_outside(b.legit),
              seed.converges_outside(b.legit))
        << "stream " << stream;
  }
}

TEST(CheckFuzz, FiveHundredDifferentialRunsAgainstSeedExplorer) {
  for (std::uint64_t stream = 0; stream < kRuns; ++stream) {
    util::Rng pick = util::stream_rng(kFuzzSeed ^ 0xabcdULL, stream);
    switch (stream % 4) {
      case 0:
        differential_run(make_cb_bundle(2 + static_cast<int>(pick.uniform(3))),
                         stream);
        break;
      case 1:
        differential_run(make_rb_bundle(2 + static_cast<int>(pick.uniform(2))),
                         stream);
        break;
      case 2:
        differential_run(make_rbp_bundle(3 + static_cast<int>(pick.uniform(2))),
                         stream);
        break;
      default:
        differential_run(make_mb_bundle(2), stream);
        break;
    }
    if (HasFatalFailure()) break;
  }
}

}  // namespace
}  // namespace ftbar::check
