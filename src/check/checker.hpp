// Parallel explicit-state bounded model checker for guarded-command
// programs — the promotion of sim::Explorer into a subsystem.
//
// Differences from the seed Explorer it supersedes as the verification
// workhorse (the seed stays on as a differential oracle in the tests):
//
//  * states are interned compactly in a sharded concurrent StateStore
//    keyed by FNV state digests — state bytes live in per-worker bump
//    arenas, no per-state heap allocation — fronted by a lock-free
//    duplicate-hit fast path (the common case past the first few levels);
//  * THE HOT PATH IS BATCHED END TO END. Workers do not intern successors
//    one at a time: each worker STAGES a chunk's worth of enumerated
//    successors (bytes, fired lists, parent edges) in flat per-worker
//    buffers and flushes them through StateStore::intern_batch, which
//    groups by shard and takes each shard's lock once per group. Scheduler
//    handoff is batched the same way: the work-stealing unit is a
//    StateChunk of up to --chunk packed (id, depth) entries, so the
//    per-item Chase-Lev fence/CAS cost — which made 8 threads SLOWER than
//    1 on the paper's programs, whose per-state expansion work is tiny —
//    is amortized over the chunk (worklist.hpp);
//  * two schedulers: a level-synchronized parallel BFS (workers claim
//    chunk-sized frontier slices from an atomic cursor and join at a level
//    barrier), and a WORK-STEALING scheduler (per-worker Chase-Lev deques
//    trading in chunks, owner takes FIFO from its own top). Termination
//    detection COUNTS STATES, not chunks: pending_ holds the number of
//    states queued in published chunks plus states expanded whose
//    successors are still staged — a worker acknowledges an expansion only
//    at the flush that routes its successors onward, and every flush adds
//    its fresh states to pending_ before subtracting its acknowledgements,
//    so pending_ can never dip to zero while work is still in flight.
//    Work-stealing keeps depths exact anyway: every state's depth is
//    CAS-min'ed and a state rediscovered shallower is re-expanded, so the
//    reported diameter equals the BFS diameter on clean exhaustive runs;
//  * successor enumeration is INCREMENTAL (check/semantics.hpp): guards are
//    re-evaluated only where the expanded state differs from the previous
//    one (declared read-set index shared with the simulation engine), and
//    successor digests resume from slot-boundary FNV checkpoints instead of
//    re-hashing whole states. Each worker reuses ONE generator and ONE
//    canonicalization scratch across a whole drained chunk, and chunk
//    entries are near-siblings under FIFO draining, so the diffs stay
//    small;
//  * optional SYMMETRY REDUCTION (check/canon.hpp): states are
//    canonicalized under the program's declared cyclic automorphism group
//    before interning, shrinking the stored space by up to the group order;
//    per-state exponents lift any counterexample back to a concrete,
//    replayable schedule (sound only for group-invariant invariants — the
//    bundles' are);
//  * both execution semantics are checked — interleaving AND
//    maximal-parallel — closing the gap between what the simulator runs
//    and what the checker verifies;
//  * every interned state carries parent/fired back-pointers, so an
//    invariant violation yields a full Counterexample path from a root
//    (minimal-length under BFS order) ready for schedule replay;
//  * with record_edges, a clean run leaves its transition graph behind as
//    ONE compact reverse CSR over the store's dense state numbering (sorted,
//    deduplicated rows plus out-degrees), and both convergence queries
//    answer from it: a reverse BFS for possibility, a Kahn peel for
//    guarantee.
//
// Determinism: on a clean exhaustive run the visited-state set — and hence
// states_visited, levels and sorted_digests() — is independent of thread
// count, scheduler, scheduling AND chunk size (the reachable set is unique;
// depths are CAS-min-corrected). At threads = 1 the work-stealing scheduler
// expands states in exactly global BFS order at ANY chunk size: a single
// worker publishes chunks in discovery order and drains its own deque FIFO,
// and flushes process staged successors in discovery order — so the FIRST
// fresh violating state, and hence the counterexample, is identical across
// chunk sizes and equal to the BFS one. When a violation is found with
// threads > 1, WHICH violation is reported may vary run to run (and a few
// states staged alongside the violating one may land in the store), so use
// threads = 1 where a deterministic counterexample matters (the CLI and
// tests do). The transition graph is complete only for clean exhaustive
// runs, so run() builds it only then, and the graph queries abort on any
// other run rather than answer from a partial graph. Its dense numbering
// depends on the thread count; its edge count and both verdicts do not.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/canon.hpp"
#include "check/counterexample.hpp"
#include "check/semantics.hpp"
#include "check/state_store.hpp"
#include "check/worklist.hpp"
#include "sim/action.hpp"
#include "sim/read_index.hpp"
#include "sim/step_engine.hpp"

namespace ftbar::check {

enum class Schedule { kBfs, kWorkStealing };

/// Exploration counters, aggregated across workers at the end of run().
struct CheckCounters {
  std::uint64_t expanded = 0;     ///< states whose successors were enumerated
  /// Successor states enumerated, re-expansions included, so it varies
  /// with thread count under work stealing; Checker::graph_edges() is the
  /// exact distinct-edge count.
  std::uint64_t transitions = 0;
  std::uint64_t interned = 0;     ///< fresh states (== states_visited)
  std::uint64_t dup_fast = 0;     ///< duplicates resolved lock-free
  std::uint64_t dup_slow = 0;     ///< duplicates resolved under a shard mutex
  std::uint64_t steals = 0;       ///< successful chunk steals from another deque
  std::uint64_t reexpansions = 0;  ///< depth-improvement re-expansions (ws)
  std::uint64_t guard_evals = 0;  ///< guard closures invoked
  std::uint64_t chunks = 0;       ///< chunks drained (work-stealing only)
  std::uint64_t chunk_states = 0;  ///< states delivered via drained chunks
  std::uint64_t flushes = 0;       ///< intern_batch calls
  std::uint64_t bulk_groups = 0;   ///< shard locks taken across all flushes
  std::uint64_t bulk_grouped = 0;  ///< staged items that reached a locked group
  double seconds = 0;  ///< wall time of run(), graph build included

  [[nodiscard]] double dedup_hit_rate() const noexcept {
    return transitions == 0
               ? 0.0
               : static_cast<double>(dup_fast + dup_slow) /
                     static_cast<double>(transitions);
  }
  [[nodiscard]] double states_per_sec() const noexcept {
    return seconds > 0 ? static_cast<double>(expanded) / seconds : 0.0;
  }
  /// Mean states per drained chunk — chunk occupancy. Low occupancy at a
  /// large --chunk means the frontier is too thin to fill chunks (handoff
  /// overhead is back to per-state).
  [[nodiscard]] double avg_chunk_fill() const noexcept {
    return chunks == 0 ? 0.0
                       : static_cast<double>(chunk_states) /
                             static_cast<double>(chunks);
  }
  /// Mean staged items per shard lock acquisition — how well the bulk path
  /// amortizes the per-shard mutex (1.0 would be the unbatched cost).
  [[nodiscard]] double avg_group_size() const noexcept {
    return bulk_groups == 0 ? 0.0
                            : static_cast<double>(bulk_grouped) /
                                  static_cast<double>(bulk_groups);
  }
};

/// Live counters a monitor thread may poll while run() is in flight (the
/// CLI's --stats). Workers flush local deltas every few hundred states, so
/// values lag slightly but never require synchronization.
struct CheckStats {
  std::atomic<std::uint64_t> expanded{0};
  std::atomic<std::uint64_t> transitions{0};
  std::atomic<std::uint64_t> states{0};    ///< store size snapshot
  std::atomic<std::uint64_t> dup_fast{0};
  std::atomic<std::uint64_t> dup_slow{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> chunks{0};    ///< chunks drained so far (ws)
  std::atomic<std::uint64_t> frontier{0};  ///< queued, not yet expanded
};

struct CheckOptions {
  sim::Semantics semantics = sim::Semantics::kInterleaving;
  std::size_t max_states = 2'000'000;
  std::size_t threads = 1;
  /// Record the transition graph for legit_reachable_from_all() /
  /// converges_outside() / graph_edges(). Off by default: violation
  /// hunting and state-count oracles don't need edges.
  bool record_edges = false;
  Schedule schedule = Schedule::kBfs;
  /// Canonicalize states under the program's declared symmetry group
  /// before interning (see canon.hpp). Off by default: the quotient space
  /// has different digests, so differential comparisons against the seed
  /// Explorer require it off.
  bool symmetry = false;
  /// Incremental guard re-evaluation + digest checkpointing. Off = the
  /// PR 3 recompute-everything baseline (kept selectable for benchmarks).
  bool incremental = true;
  /// Lock-free duplicate fast path in the store. Off = PR 3 baseline.
  bool dedup_fast_path = true;
  /// States per scheduler handoff unit (work-stealing chunk / BFS cursor
  /// slice), clamped to [1, StateChunk::kCapacity]. 1 reproduces per-state
  /// handoff (the PR 4 granularity, kept selectable for benchmarks); the
  /// visited set, depths and single-threaded counterexamples are identical
  /// at every setting.
  std::size_t chunk = 64;
  CheckStats* live_stats = nullptr;  ///< optional --stats sink
};

template <class P>
struct CheckResult {
  std::size_t states_visited = 0;
  std::size_t levels = 0;  ///< BFS depth reached (diameter on clean runs)
  bool truncated = false;
  std::optional<Counterexample<P>> violation;
  CheckCounters counters;

  [[nodiscard]] bool ok() const noexcept { return !violation && !truncated; }
};

template <class P>
class Checker {
 public:
  using Id = typename StateStore<P>::Id;
  using State = std::vector<P>;
  using Invariant = std::function<bool(const State&)>;

  /// `symmetry` is the program's transition-automorphism group; it is only
  /// consulted when options.symmetry is set. The default (trivial) group
  /// makes canonicalization the identity.
  Checker(std::vector<sim::Action<P>> actions, std::size_t procs,
          CheckOptions options = {}, Symmetry<P> symmetry = {})
      : actions_(std::move(actions)),
        procs_(procs),
        options_(options),
        symmetry_(std::move(symmetry)) {}

  /// Explores everything reachable from `roots` under the configured
  /// semantics, stopping at the first state violating `invariant` (pass an
  /// always-true predicate to just collect the reachable set). With
  /// symmetry on, `invariant` (and any later graph-query predicate) must be
  /// invariant under the declared group — the bundles' are by construction.
  CheckResult<P> run(const std::vector<State>& roots, const Invariant& invariant) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t nthreads = options_.threads == 0 ? 1 : options_.threads;
    chunk_ = std::clamp<std::size_t>(options_.chunk, 1, StateChunk::kCapacity);
    store_.emplace(procs_, options_.max_states, nthreads > 1,
                   options_.dedup_fast_path, nthreads);
    graph_.reset();
    stop_.store(false, std::memory_order_relaxed);
    truncated_.store(false, std::memory_order_relaxed);
    pending_.store(0, std::memory_order_relaxed);
    violation_id_ = StateStore<P>::kNoId;
    use_symmetry_ = options_.symmetry && !symmetry_.trivial();
    if (options_.incremental) {
      read_index_ = sim::build_read_index(actions_, procs_);
    }

    std::vector<Worker> workers(nthreads);
    for (std::size_t i = 0; i < nthreads; ++i) {
      Worker& w = workers[i];
      w.index = i;
      w.gen = std::make_unique<SuccessorGen<P>>(
          actions_, procs_, options_.incremental ? &read_index_ : nullptr,
          options_.incremental);
      w.canon = std::make_unique<Canonicalizer<P>>(&symmetry_, procs_);
      w.canon_buf.resize(procs_);
    }

    CheckResult<P> result;
    std::vector<Id> frontier;
    {
      Canonicalizer<P> canon(&symmetry_, procs_);
      std::vector<P> buf(procs_);
      for (const auto& root : roots) {
        if (root.size() != procs_) std::abort();  // bundle/options mismatch
        std::uint32_t exp = 0;
        const P* data = root.data();
        if (use_symmetry_) {
          exp = canon.canonicalize(root.data(), buf.data());
          data = buf.data();
        }
        const auto digest = store_->digest(data);
        const auto res = store_->intern(data, digest, StateStore<P>::kNoId, {},
                                        /*depth=*/0, exp);
        if (!res.inserted) continue;  // duplicate root (or orbit-equivalent)
        if (!invariant(use_symmetry_ ? buf : root)) {
          result.violation = path_to(res.id);
          result.states_visited = store_->size();
          return result;
        }
        frontier.push_back(res.id);
      }
    }

    if (options_.schedule == Schedule::kWorkStealing) {
      run_work_stealing(frontier, invariant, workers, result);
    } else {
      run_bfs(frontier, invariant, workers, result);
    }

    result.states_visited = store_->size();
    result.truncated = truncated_.load(std::memory_order_relaxed);
    if (violation_id_ != StateStore<P>::kNoId) {
      result.violation = path_to(violation_id_);
    }
    for (auto& w : workers) {
      w.counters.guard_evals = w.gen->guard_evals();
      flush_stats(w);
      result.counters.expanded += w.counters.expanded;
      result.counters.transitions += w.counters.transitions;
      result.counters.interned += w.counters.interned;
      result.counters.dup_fast += w.counters.dup_fast;
      result.counters.dup_slow += w.counters.dup_slow;
      result.counters.steals += w.counters.steals;
      result.counters.reexpansions += w.counters.reexpansions;
      result.counters.guard_evals += w.counters.guard_evals;
      result.counters.chunks += w.counters.chunks;
      result.counters.chunk_states += w.counters.chunk_states;
      result.counters.flushes += w.counters.flushes;
      result.counters.bulk_groups += w.counters.bulk_groups;
      result.counters.bulk_grouped += w.counters.bulk_grouped;
    }
    // Only a clean exhaustive run has a complete graph; the queries abort
    // on any other rather than answer from a partial one.
    if (options_.record_edges && result.ok()) build_graph(workers);
    result.counters.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (options_.live_stats != nullptr) {
      options_.live_stats->states.store(store_->size(),
                                        std::memory_order_relaxed);
      options_.live_stats->frontier.store(0, std::memory_order_relaxed);
    }
    return result;
  }

  /// The state store of the last run() (valid until the next run()).
  [[nodiscard]] const StateStore<P>& store() const { return *store_; }

  /// Sorted digests of the visited set — the cross-run/cross-implementation
  /// fingerprint the differential tests compare. With symmetry on these are
  /// digests of canonical representatives.
  [[nodiscard]] std::vector<std::uint64_t> sorted_digests() const {
    return store_->sorted_digests();
  }

  /// True iff from every visited state some state satisfying `legit` is
  /// reachable (possibility of convergence). Requires record_edges and a
  /// clean exhaustive last run. With symmetry on, `legit` must be
  /// group-invariant (the quotient preserves reachability of invariant
  /// predicates).
  [[nodiscard]] bool legit_reachable_from_all(const Invariant& legit) const {
    const Graph& g = complete_graph();
    // Reverse BFS from the legit states; the queue doubles as the visited
    // count.
    auto reached = legit_flags(legit);
    std::vector<std::uint32_t> queue;
    queue.reserve(reached.size());
    for (std::uint32_t v = 0; v < reached.size(); ++v) {
      if (reached[v]) queue.push_back(v);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto v = queue[head];
      for (auto e = g.pred_ofs[v]; e < g.pred_ofs[v + 1]; ++e) {
        const auto u = g.preds[e];
        if (!reached[u]) {
          reached[u] = 1;
          queue.push_back(u);
        }
      }
    }
    return queue.size() == reached.size();
  }

  /// True iff the transition graph restricted to non-legit states is
  /// acyclic and no non-legit state is terminal — convergence under ANY
  /// (even unfair) scheduling. Requires record_edges and a clean exhaustive
  /// last run. Agrees with sim::Explorer::converges_outside so the two stay
  /// cross-checkable. (A quotient cycle lifts to a cycle through rotated
  /// copies in the full graph and vice versa, so the answer is unchanged
  /// by symmetry reduction for group-invariant `legit`.)
  [[nodiscard]] bool converges_outside(const Invariant& legit) const {
    const Graph& g = complete_graph();
    // Kahn peel over the reverse graph: legit states start out peeled, and
    // a non-legit state is peeled once all its successors are. A non-legit
    // state with no successor is a deadlock; one left unpeeled lies on, or
    // leads into, a cycle outside legit.
    const auto is_legit = legit_flags(legit);
    std::vector<std::uint32_t> unpeeled(g.out_deg);  // successors not yet peeled
    std::vector<std::uint32_t> queue;
    queue.reserve(is_legit.size());
    for (std::uint32_t v = 0; v < is_legit.size(); ++v) {
      if (is_legit[v]) {
        queue.push_back(v);
      } else if (g.out_deg[v] == 0) {
        return false;
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto v = queue[head];
      for (auto e = g.pred_ofs[v]; e < g.pred_ofs[v + 1]; ++e) {
        const auto u = g.preds[e];
        if (!is_legit[u] && --unpeeled[u] == 0) queue.push_back(u);
      }
    }
    return queue.size() == is_legit.size();
  }

  /// Distinct edges of the recorded transition graph: exact, and the same
  /// at every thread count and schedule (unlike CheckCounters::
  /// transitions). Requires record_edges and a clean exhaustive last run.
  [[nodiscard]] std::size_t graph_edges() const {
    return complete_graph().preds.size();
  }

 private:
  /// The transition graph a clean record_edges run leaves behind, over the
  /// store's dense state numbering: a reverse CSR (the predecessors of v
  /// are preds[pred_ofs[v] .. pred_ofs[v + 1]), sorted and unique) plus
  /// every state's out-degree. 8 bytes per state, 4 per distinct edge.
  struct Graph {
    std::vector<std::uint32_t> pred_ofs;
    std::vector<std::uint32_t> preds;
    std::vector<std::uint32_t> out_deg;
  };

  struct Worker {
    std::size_t index = 0;                   ///< arena / deque slot
    std::vector<Id> next;                    ///< BFS: next-level frontier
    std::vector<std::pair<Id, Id>> edges;    ///< recorded (from, to), whole run
    std::unique_ptr<SuccessorGen<P>> gen;
    std::unique_ptr<Canonicalizer<P>> canon;
    std::vector<P> canon_buf;
    State current;
    State eval_buf;  ///< invariant-evaluation scratch at flush time

    // Staged successors awaiting a bulk flush: three flat parallel buffers
    // (items / state bytes / fired indices), the layout intern_batch takes.
    std::vector<typename StateStore<P>::BulkItem> staged;
    std::vector<P> staged_states;
    std::vector<std::uint32_t> staged_fired;
    std::vector<typename StateStore<P>::InternResult> results;
    typename StateStore<P>::BulkScratch scratch;
    /// Expanded states whose pending_ decrement is deferred to the next
    /// flush (their successors are still in the staging buffers).
    std::uint64_t unacked = 0;

    // Work-stealing only: the worker's deque, chunk recycler, and the open
    // chunk accumulating fresh discoveries until it reaches chunk_ entries.
    WorkDeque* deque = nullptr;
    ChunkPool pool;
    StateChunk* open = nullptr;

    CheckCounters counters;       ///< cumulative locals
    CheckCounters flushed;        ///< portion already pushed to live_stats
    std::uint32_t since_flush = 0;
  };

  static constexpr std::uint32_t kFlushEvery = 256;

  [[nodiscard]] static std::uint64_t pack(Id id, std::uint32_t depth) noexcept {
    return (static_cast<std::uint64_t>(id) << 32) | depth;
  }
  [[nodiscard]] static std::uint64_t pack_chunk(StateChunk* c) noexcept {
    return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(c));
  }
  [[nodiscard]] static StateChunk* unpack_chunk(std::uint64_t e) noexcept {
    return reinterpret_cast<StateChunk*>(static_cast<std::uintptr_t>(e));
  }

  void run_bfs(std::vector<Id>& frontier, const Invariant& invariant,
               std::vector<Worker>& workers, CheckResult<P>& result) {
    std::uint32_t depth = 0;
    const std::size_t nthreads = workers.size();
    if (nthreads == 1) {
      while (!frontier.empty() && !stop_.load(std::memory_order_relaxed)) {
        ++result.levels;
        cursor_.store(0, std::memory_order_relaxed);
        workers[0].next.clear();
        expand_level(frontier, depth, invariant, workers[0]);
        merge_level(frontier, workers);
        ++depth;
      }
      return;
    }
    // Persistent worker pool, one spawn per run(): each BFS level is a
    // barrier round (spawning per level would cost more than the level
    // itself on small instances). The main thread owns the workers'
    // buffers and the frontier while they are parked at `sync`.
    std::barrier sync(static_cast<std::ptrdiff_t>(nthreads) + 1);
    std::atomic<bool> done{false};
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (auto& w : workers) {
      pool.emplace_back([&] {
        for (;;) {
          sync.arrive_and_wait();  // level start
          if (done.load(std::memory_order_acquire)) return;
          expand_level(frontier, depth, invariant, w);
          sync.arrive_and_wait();  // level end: interns now visible
        }
      });
    }
    while (!frontier.empty() && !stop_.load(std::memory_order_relaxed)) {
      ++result.levels;
      cursor_.store(0, std::memory_order_relaxed);
      for (auto& w : workers) w.next.clear();
      sync.arrive_and_wait();
      sync.arrive_and_wait();
      merge_level(frontier, workers);
      ++depth;
    }
    done.store(true, std::memory_order_release);
    sync.arrive_and_wait();
    for (auto& t : pool) t.join();
  }

  /// Merges the per-worker successor buffers, in worker order, into the
  /// next frontier. Runs after the level barrier, so every intern of the
  /// finished level is visible.
  void merge_level(std::vector<Id>& frontier, std::vector<Worker>& workers) {
    frontier.clear();
    for (auto& w : workers) {
      frontier.insert(frontier.end(), w.next.begin(), w.next.end());
    }
  }

  /// BFS level body: claim chunk-sized frontier slices until the level is
  /// exhausted, then flush the staged tail so every intern of this level is
  /// in the store before the level barrier.
  void expand_level(const std::vector<Id>& frontier, std::uint32_t depth,
                    const Invariant& invariant, Worker& w) {
    for (;;) {
      const std::size_t begin = cursor_.fetch_add(chunk_, std::memory_order_relaxed);
      if (begin >= frontier.size()) break;
      const std::size_t end = std::min(begin + chunk_, frontier.size());
      for (std::size_t fi = begin; fi < end; ++fi) {
        if (stop_.load(std::memory_order_relaxed)) break;
        expand_one(frontier[fi], depth, invariant, w);
      }
      if (stop_.load(std::memory_order_relaxed)) break;
    }
    flush_batch(invariant, w);
  }

  void run_work_stealing(std::vector<Id>& frontier, const Invariant& invariant,
                         std::vector<Worker>& workers, CheckResult<P>& result) {
    const std::size_t nthreads = workers.size();
    std::vector<std::unique_ptr<WorkDeque>> deques;
    deques.reserve(nthreads);
    for (std::size_t i = 0; i < nthreads; ++i) {
      deques.push_back(std::make_unique<WorkDeque>());
      workers[i].deque = deques[i].get();
      workers[i].open = workers[i].pool.get();
    }
    // Seed round-robin into chunks so workers start on disjoint regions;
    // pending_ counts STATES (chunks are just envelopes). The main thread
    // may touch the workers' pools/deques here: nothing runs yet, and
    // thread creation below orders these writes before the workers' reads.
    pending_.store(static_cast<std::int64_t>(frontier.size()),
                   std::memory_order_relaxed);
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      chunk_append(workers[i % nthreads], pack(frontier[i], 0));
    }
    for (auto& w : workers) publish_open(w);
    frontier.clear();
    auto worker_loop = [&](std::size_t wi) {
      Worker& w = workers[wi];
      std::size_t idle_spins = 0;
      for (;;) {
        if (stop_.load(std::memory_order_relaxed)) return;
        std::uint64_t e = 0;
        bool got = deques[wi]->steal(e);  // own top: FIFO, near-BFS order
        if (!got) {
          for (std::size_t k = 1; k < nthreads && !got; ++k) {
            if (deques[(wi + k) % nthreads]->steal(e)) {
              got = true;
              ++w.counters.steals;
            }
          }
        }
        if (got) {
          idle_spins = 0;
          StateChunk* c = unpack_chunk(e);
          const std::uint32_t n = c->drain_count();
          ++w.counters.chunks;
          w.counters.chunk_states += n;
          for (std::uint32_t k = 0; k < n; ++k) {
            if (stop_.load(std::memory_order_relaxed)) return;
            const std::uint64_t item = c->items[k];
            expand_one(static_cast<Id>(item >> 32),
                       static_cast<std::uint32_t>(item & 0xffffffffu),
                       invariant, w);
          }
          w.pool.put(c);  // recycle locally; the victim's pool keeps it alive
          continue;
        }
        // All deques looked empty. Push out anything this worker is still
        // holding — staged successors and the partial open chunk — then
        // retry: the flush may have refilled our own deque.
        if (!w.staged.empty() || w.unacked > 0 ||
            (w.open != nullptr && w.open->fill > 0)) {
          flush_batch(invariant, w);
          publish_open(w);
          continue;
        }
        // pending > 0 means a state is in flight somewhere (queued in a
        // published chunk, or expanded with successors still staged on
        // another worker) — keep polling.
        if (pending_.load(std::memory_order_acquire) == 0) return;
        if (++idle_spins > 64) std::this_thread::yield();
      }
    };
    if (nthreads == 1) {
      worker_loop(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(nthreads);
      for (std::size_t i = 0; i < nthreads; ++i) {
        pool.emplace_back(worker_loop, i);
      }
      for (auto& t : pool) t.join();
    }
    // Depth-corrected exact diameter (see class comment): on clean runs
    // every depth equals the true BFS depth, and the deepest state sits
    // max_depth levels below the roots. Mirror the BFS level count (which
    // counts waves 0..max_depth). On a violation, mirror BFS's "levels
    // completed when the violation was interned".
    if (violation_id_ != StateStore<P>::kNoId) {
      result.levels = store_->depth(violation_id_);
    } else if (store_->size() > 0) {
      result.levels = static_cast<std::size_t>(store_->max_depth()) + 1;
    }
  }

  /// Appends a packed (id, depth) entry to the worker's open chunk,
  /// publishing and replacing the chunk when it reaches chunk_ entries.
  void chunk_append(Worker& w, std::uint64_t e) {
    w.open->items[w.open->fill++] = e;
    if (w.open->fill >= chunk_) publish_open(w);
  }

  /// Publishes the open chunk (if non-empty) to the worker's own deque and
  /// starts a fresh one. Chunks are published in discovery order, which is
  /// what makes single-threaded work-stealing expand in exact BFS order.
  void publish_open(Worker& w) {
    if (w.open == nullptr || w.open->fill == 0) return;
    w.open->publish();
    w.deque->push(pack_chunk(w.open));
    w.open = w.pool.get();
  }

  /// Enumerates the successors of `id` (recorded at `depth`) and STAGES
  /// each — canonicalized when symmetry reduction is on — into the worker's
  /// flat batch buffers. Interning, invariant evaluation and scheduler
  /// routing all happen at the next flush_batch; the expansion itself is
  /// acknowledged to the termination counter there too (w.unacked).
  void expand_one(Id id, std::uint32_t depth, const Invariant& invariant,
                  Worker& w) {
    const auto span = store_->state(id);
    w.current.assign(span.begin(), span.end());
    ++w.counters.expanded;
    w.gen->for_each_successor(
        w.current, options_.semantics,
        [&](const State& next, std::span<const std::uint32_t> fired,
            std::uint64_t digest) {
          if (stop_.load(std::memory_order_relaxed)) return;
          ++w.counters.transitions;
          if (store_->size() >= options_.max_states) {
            truncated_.store(true, std::memory_order_relaxed);
            stop_.store(true, std::memory_order_relaxed);
            return;
          }
          const P* data = next.data();
          std::uint32_t exp = 0;
          if (use_symmetry_) {
            exp = w.canon->canonicalize(next.data(), w.canon_buf.data());
            data = w.canon_buf.data();
            digest = store_->digest(data);
          }
          auto& item = w.staged.emplace_back();
          item.digest = digest;
          item.state_index = static_cast<std::uint32_t>(w.staged.size() - 1);
          item.parent = id;
          item.fired_ofs = static_cast<std::uint32_t>(w.staged_fired.size());
          item.fired_len = static_cast<std::uint32_t>(fired.size());
          item.depth = depth + 1;
          item.exponent = exp;
          w.staged_states.insert(w.staged_states.end(), data, data + procs_);
          w.staged_fired.insert(w.staged_fired.end(), fired.begin(), fired.end());
          // Flush early when the batch hits the store's bulk cap, or when
          // the OPTIMISTIC size (interned + staged) reaches the state
          // budget — the latter keeps the truncation check above exact to
          // within duplicates, so a space that exhausts inside the budget
          // is never falsely truncated and an overshoot is bounded.
          if (w.staged.size() >= StateStore<P>::kMaxBatch ||
              store_->size() + w.staged.size() >= options_.max_states) {
            flush_batch(invariant, w);
          }
        });
    ++w.unacked;
    if (options_.live_stats != nullptr && ++w.since_flush >= kFlushEvery) {
      flush_stats(w);
    }
  }

  /// Pushes the staged batch through StateStore::intern_batch, then walks
  /// the results IN DISCOVERY ORDER: fresh states get their invariant
  /// check and are routed onward (open chunk in work-stealing mode, the
  /// next-level buffer in BFS mode); duplicates feed the dedup counters
  /// and the depth-correction CAS. Finally acknowledges the expansions
  /// whose successor sets this flush completed — adds before subtracts, so
  /// the termination counter never transiently hits zero.
  void flush_batch(const Invariant& invariant, Worker& w) {
    if (!w.staged.empty()) {
      w.results.resize(w.staged.size());
      const auto bs = store_->intern_batch(
          std::span<const typename StateStore<P>::BulkItem>(w.staged),
          w.staged_states.data(), w.staged_fired.data(),
          store_->arena(w.index), w.scratch, w.results.data());
      ++w.counters.flushes;
      w.counters.bulk_groups += bs.groups;
      w.counters.bulk_grouped += bs.grouped_items;
      for (std::size_t i = 0; i < w.staged.size(); ++i) {
        if (stop_.load(std::memory_order_relaxed)) break;
        const auto& item = w.staged[i];
        const auto& res = w.results[i];
        if (options_.record_edges) w.edges.emplace_back(item.parent, res.id);
        if (res.inserted) {
          ++w.counters.interned;
          const P* bytes = w.staged_states.data() +
                           static_cast<std::size_t>(item.state_index) * procs_;
          w.eval_buf.assign(bytes, bytes + procs_);
          if (!invariant(w.eval_buf)) {
            std::scoped_lock lock(violation_mu_);
            if (violation_id_ == StateStore<P>::kNoId) violation_id_ = res.id;
            stop_.store(true, std::memory_order_relaxed);
            break;
          }
          if (w.deque != nullptr) {
            pending_.fetch_add(1, std::memory_order_relaxed);
            chunk_append(w, pack(res.id, item.depth));
          } else {
            w.next.push_back(res.id);
          }
        } else {
          if (res.fast_hit) {
            ++w.counters.dup_fast;
          } else {
            ++w.counters.dup_slow;
          }
          // Out-of-order discovery may have recorded too deep a depth;
          // fix it and re-expand so successors inherit the correction.
          // Impossible under level order (BFS mode skips the CAS).
          if (w.deque != nullptr &&
              store_->try_improve_depth(res.id, item.depth)) {
            ++w.counters.reexpansions;
            pending_.fetch_add(1, std::memory_order_relaxed);
            chunk_append(w, pack(res.id, item.depth));
          }
        }
      }
      w.staged.clear();
      w.staged_states.clear();
      w.staged_fired.clear();
    }
    if (w.deque != nullptr && w.unacked > 0) {
      // Release pairs with the idle path's acquire load: a worker that
      // observes pending == 0 also observes every push made above.
      pending_.fetch_sub(static_cast<std::int64_t>(w.unacked),
                         std::memory_order_release);
      w.unacked = 0;
    }
  }

  /// Pushes the delta since the last flush into the live-stats atomics.
  void flush_stats(Worker& w) {
    w.since_flush = 0;
    CheckStats* s = options_.live_stats;
    if (s == nullptr) return;
    s->expanded.fetch_add(w.counters.expanded - w.flushed.expanded,
                          std::memory_order_relaxed);
    s->transitions.fetch_add(w.counters.transitions - w.flushed.transitions,
                             std::memory_order_relaxed);
    s->dup_fast.fetch_add(w.counters.dup_fast - w.flushed.dup_fast,
                          std::memory_order_relaxed);
    s->dup_slow.fetch_add(w.counters.dup_slow - w.flushed.dup_slow,
                          std::memory_order_relaxed);
    s->steals.fetch_add(w.counters.steals - w.flushed.steals,
                        std::memory_order_relaxed);
    s->chunks.fetch_add(w.counters.chunks - w.flushed.chunks,
                        std::memory_order_relaxed);
    w.flushed = w.counters;
    s->states.store(store_->size(), std::memory_order_relaxed);
    const auto pending = pending_.load(std::memory_order_relaxed);
    s->frontier.store(pending > 0 ? static_cast<std::uint64_t>(pending) : 0,
                      std::memory_order_relaxed);
  }

  /// Walks parent pointers from `vid` back to a root, lifting the stored
  /// canonical states to a CONCRETE execution via the recorded group
  /// exponents (see canon.hpp: running exponent u_i, conjugated fired
  /// lists). With symmetry off every exponent is 0 and this reduces to
  /// plain materialization. Runs after all workers joined.
  [[nodiscard]] Counterexample<P> path_to(Id vid) const {
    std::vector<Id> ids;
    for (Id id = vid; id != StateStore<P>::kNoId; id = store_->parent(id)) {
      ids.push_back(id);
    }
    std::reverse(ids.begin(), ids.end());
    Counterexample<P> cx;
    cx.semantics = options_.semantics;
    Canonicalizer<P> canon(&symmetry_, procs_);
    std::uint32_t u = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i > 0) {
        const auto fired = store_->fired(ids[i]);
        std::vector<std::uint32_t> f(fired.begin(), fired.end());
        canon.permute_fired(f, u, actions_);  // conjugate by g^{u_{i-1}}
        cx.fired.push_back(std::move(f));
      }
      u = i == 0 ? canon.inverse(store_->exponent(ids[0]))
                 : canon.compose(u, canon.inverse(store_->exponent(ids[i])));
      const auto span = store_->state(ids[i]);
      State s(span.begin(), span.end());
      canon.apply_pow(std::span<P>{s}, u);
      cx.path.push_back(std::move(s));
    }
    cx.violated_by =
        cx.fired.empty() ? "<initial>" : actions_[cx.fired.back().back()].name;
    return cx;
  }

  /// Builds graph_ from the workers' (from, to) buffers with one counting
  /// sort by target, freeing each buffer once it has been read, then sorts
  /// and dedupes every row in place (a re-expanded state records its edges
  /// again) and counts out-degrees. Sequential; runs after all workers
  /// joined.
  void build_graph(std::vector<Worker>& workers) {
    const auto dense = store_->dense_ids();
    const std::size_t n = store_->size();
    Graph& g = graph_.emplace();
    g.pred_ofs.assign(n + 1, 0);
    for (const auto& w : workers) {
      for (const auto& e : w.edges) ++g.pred_ofs[dense(e.second) + 1];
    }
    for (std::size_t v = 0; v < n; ++v) g.pred_ofs[v + 1] += g.pred_ofs[v];
    g.preds.resize(g.pred_ofs[n]);
    {
      std::vector<std::uint32_t> fill(g.pred_ofs.begin(), g.pred_ofs.end() - 1);
      for (auto& w : workers) {
        for (const auto& e : w.edges) {
          g.preds[fill[dense(e.second)]++] = dense(e.first);
        }
        std::vector<std::pair<Id, Id>>().swap(w.edges);
      }
    }
    // Compact each sorted, deduplicated row leftwards. Row v starts at or
    // after the write cursor, so the copy never overtakes unread entries.
    g.out_deg.assign(n, 0);
    std::uint32_t write = 0;
    for (std::size_t v = 0; v < n; ++v) {
      std::uint32_t* row = g.preds.data() + g.pred_ofs[v];
      std::uint32_t* row_end = g.preds.data() + g.pred_ofs[v + 1];
      std::sort(row, row_end);
      row_end = std::unique(row, row_end);
      g.pred_ofs[v] = write;
      for (const std::uint32_t* p = row; p != row_end; ++p) {
        ++g.out_deg[*p];
        g.preds[write++] = *p;
      }
    }
    g.pred_ofs[n] = write;
    g.preds.resize(write);
  }

  /// The recorded graph. Answering a convergence query from a partial
  /// graph would be a silent soundness hole, so without one (record_edges
  /// off, or a truncated or violating last run) this aborts.
  [[nodiscard]] const Graph& complete_graph() const {
    if (!graph_) std::abort();
    return *graph_;
  }

  /// legit(s) of every stored state, in dense order.
  [[nodiscard]] std::vector<char> legit_flags(const Invariant& legit) const {
    std::vector<char> flags;
    flags.reserve(store_->size());
    State scratch;
    store_->for_each_state([&](std::span<const P> s) {
      scratch.assign(s.begin(), s.end());
      flags.push_back(legit(scratch) ? 1 : 0);
    });
    return flags;
  }

  std::vector<sim::Action<P>> actions_;
  std::size_t procs_;
  CheckOptions options_;
  Symmetry<P> symmetry_;
  bool use_symmetry_ = false;
  std::size_t chunk_ = 64;  ///< clamped options_.chunk, set per run()
  sim::ReadIndex read_index_;
  std::optional<StateStore<P>> store_;
  std::optional<Graph> graph_;
  std::atomic<std::size_t> cursor_{0};
  std::atomic<std::int64_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> truncated_{false};
  std::mutex violation_mu_;
  Id violation_id_ = StateStore<P>::kNoId;
};

}  // namespace ftbar::check
