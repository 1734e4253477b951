// Sharded, concurrent interned-state storage for the explicit-state checker.
//
// The seed sim::Explorer kept every visited state as a whole
// std::vector<P> (one heap allocation per state) in a single-threaded hash
// map. This store replaces that with compact interning designed for the
// parallel explorer in check/checker.hpp:
//
//  * states are raw byte blobs — P must be trivially copyable with unique
//    object representations (the same contract the trace/replay digests
//    rely on) — bump-allocated from per-worker arena slabs (StateArena),
//    so interning a state allocates nothing in steady state and workers
//    never contend on the blob storage; each shard records one pointer per
//    state into the owning worker's arena;
//  * the dedup index is sharded 64 ways on the low bits of the FNV-1a
//    state digest (trace::fnv1a_bytes, the digest record/replay
//    introduced), one mutex per shard — each shard padded to its own cache
//    lines so worker threads interning unrelated states never contend, not
//    even by false sharing;
//  * a LOCK-FREE DUPLICATE FAST PATH fronts the shards: a fixed-size open
//    table of atomic id slots, probed before any mutex is touched. Past the
//    first few BFS levels >90% of interns are duplicate hits, and the fast
//    path resolves them with one acquire load plus one byte-compare. Slots
//    are advisory (a hash collision may overwrite one); the mutex-guarded
//    shard index stays authoritative, so a fast-path miss is never wrong,
//    just slower;
//  * the HOT PATH IS BATCHED (intern_batch): the checker stages a chunk's
//    worth of successors and hands them over in one call, which probes the
//    fast path with software prefetch running ahead, groups the survivors
//    by shard with a stable counting sort, prefetches each group's
//    open-addressing index slots, and takes every shard's lock exactly
//    ONCE per group — the per-state lock/CAS traffic that made parallel
//    exploration slower than sequential is amortized over the group. The
//    single-state intern() remains for root seeding and tests and is NOT
//    safe to call concurrently with itself (it shares the root arena);
//    concurrent interning goes through intern_batch with per-worker arenas;
//  * every interned state carries its discovering edge (parent id + fired
//    action indices), its symmetry-group exponent (canonical = g^exp(raw),
//    used to lift quotient-space counterexamples back to concrete runs —
//    see canon.hpp), and an atomically CAS-min'able depth, which the
//    work-stealing scheduler uses to keep BFS depths exact out of order.
//
// Concurrency contract. intern_batch() may be called from any number of
// threads, each with its own arena and scratch. state(), depth() and
// try_improve_depth() may be called concurrently with interning ONLY for
// ids published to the caller (returned from intern_batch(), read from a
// fast-path slot, or handed across the checker's scheduler): the
// pointer/depth block spines are reserved to their maximum size up front so
// a concurrent append never reallocates them, and blob bytes, the blob
// pointer and the depth are written before the id escapes the shard mutex
// or is release-stored into a fast-path slot. Metadata accessors (parent /
// fired / digest_of / exponent / max_depth) and the dense enumeration
// (dense_ids / for_each_state) are valid only after all interning calls
// joined.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "cseq/shim.hpp"
#include "trace/replay.hpp"

namespace ftbar::check {

/// Best-effort read prefetch; a no-op on toolchains without the builtin.
inline void prefetch_read(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  (void)p;
#endif
}

/// Bump allocator for interned state blobs: slabs of `slab_states` states,
/// each `procs` P records wide. Single-owner (one arena per worker); the
/// store keeps the arenas alive as long as itself, since shard pointer
/// tables point into them. Slabs are never freed or reused, so a pointer
/// handed out stays valid for the arena's lifetime.
template <class P>
class StateArena {
 public:
  explicit StateArena(std::size_t procs, std::size_t slab_states = 4096)
      : procs_(procs), slab_states_(slab_states), used_(slab_states) {}

  /// Space for one state (procs_ records), uninitialized.
  [[nodiscard]] P* alloc() {
    if (used_ == slab_states_) {
      slabs_.push_back(
          std::make_unique_for_overwrite<P[]>(slab_states_ * procs_));
      used_ = 0;
    }
    return slabs_.back().get() + (used_++) * procs_;
  }

 private:
  std::size_t procs_;
  std::size_t slab_states_;
  std::size_t used_;
  std::vector<std::unique_ptr<P[]>> slabs_;
};

template <class P>
class StateStore {
  static_assert(std::is_trivially_copyable_v<P>,
                "the checker interns raw state bytes");
  static_assert(std::has_unique_object_representations_v<P>,
                "padding bytes would poison digests and byte-equality");

 public:
  using Id = std::uint32_t;
  static constexpr Id kNoId = 0xffffffffu;
  static constexpr std::size_t kShardBits = 6;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;
  static constexpr std::size_t kBlockStates = 1024;
  /// Largest batch intern_batch accepts; the spine slack below is sized so
  /// that every worker overshooting max_states by one full batch into one
  /// shard still fits the reserved pointer spines.
  static constexpr std::size_t kMaxBatch = 4096;

  /// `workers` sizes the per-worker arena set (arena(w) for w < workers).
  /// `concurrent` = false elides the shard mutexes: valid only when every
  /// interning call comes from one thread (the checker passes threads > 1).
  /// `fast_path` = false disables the lock-free duplicate table (the PR 3
  /// baseline, kept selectable for benchmarking).
  StateStore(std::size_t procs, std::size_t max_states, bool concurrent = true,
             bool fast_path = true, std::size_t workers = 1)
      : procs_(procs), state_bytes_(procs * sizeof(P)), concurrent_(concurrent) {
    if (workers == 0) workers = 1;
    arenas_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) arenas_.emplace_back(procs);
    // Reserve every shard's block spine for the worst case (all states in
    // one shard, plus every worker overshooting the budget by one batch
    // between size checks) so a concurrent reader never observes a
    // reallocation of the spine it is indexing.
    const std::size_t spine =
        (max_states + workers * kMaxBatch) / kBlockStates + 2;
    for (auto& shard : shards_) {
      shard.ptr_blocks.reserve(spine);
      shard.depth_blocks.reserve(spine);
      shard.index_keys.resize(kInitialIndexSlots);
      shard.index_vals.assign(kInitialIndexSlots, 0);
      shard.index_mask = kInitialIndexSlots - 1;
    }
    if (fast_path) {
      // ~2 slots per possible state, power of two, bounded: the table is a
      // cache keyed by digest bits, so undersizing only costs extra slow
      // paths. Value-initialized atomics are zero = empty.
      std::size_t want = max_states < (std::size_t{1} << 22)
                             ? 2 * max_states
                             : (std::size_t{1} << 23);
      fast_bits_ = 12;
      while ((std::size_t{1} << fast_bits_) < want && fast_bits_ < 23) {
        ++fast_bits_;
      }
      // calloc, not make_unique: value-initializing the slots would fault
      // in every page of a table sized for max_states up front; the OS's
      // lazy zero pages make an untouched (or read-only-touched) region
      // free. Slots are plain uint32_t accessed through cseq::atomic_ref.
      fast_.reset(static_cast<std::uint32_t*>(
          std::calloc(std::size_t{1} << fast_bits_, sizeof(std::uint32_t))));
      if (fast_ == nullptr) throw std::bad_alloc();
    }
  }

  struct InternResult {
    Id id = kNoId;
    bool inserted = false;
    bool fast_hit = false;  ///< duplicate resolved without touching a shard
  };

  /// One staged successor in an intern_batch call. The state bytes live at
  /// `states + state_index * procs` of the caller's staging buffer and the
  /// fired list at `fired + fired_ofs`, so the batch is three parallel
  /// flat buffers instead of a vector of vectors.
  struct BulkItem {
    std::uint64_t digest = 0;
    std::uint32_t state_index = 0;
    Id parent = kNoId;
    std::uint32_t fired_ofs = 0;
    std::uint32_t fired_len = 0;
    std::uint32_t depth = 0;
    std::uint32_t exponent = 0;
  };

  /// Shard-group telemetry of one intern_batch call (accumulated by the
  /// checker into its --stats counters): `groups` shard locks taken,
  /// `grouped_items` items that reached the locked slow path (the rest were
  /// resolved by the lock-free fast table).
  struct BulkStats {
    std::uint64_t groups = 0;
    std::uint64_t grouped_items = 0;
  };

  /// Reusable per-caller scratch for intern_batch's shard grouping.
  struct BulkScratch {
    std::vector<std::uint32_t> pending;  ///< item indices not fast-resolved
    std::vector<std::uint32_t> grouped;  ///< same, stably sorted by shard
  };

  /// Digest of a whole-system state, as the replay layer computes it.
  [[nodiscard]] std::uint64_t digest(const P* s) const noexcept {
    return trace::fnv1a_bytes(s, state_bytes_);
  }

  /// Per-worker blob arena (w < the `workers` the store was built with).
  [[nodiscard]] StateArena<P>& arena(std::size_t w) { return arenas_[w]; }

  /// Interns `s` (byte-compared against digest collisions). On first
  /// insertion the discovering edge (parent, fired action indices), the
  /// symmetry exponent and the discovery depth are recorded; later
  /// discoveries of the same state keep the first edge (depth may still
  /// improve via try_improve_depth). Blob bytes go to arena 0 — this entry
  /// point is for root seeding and tests and must not be called from two
  /// threads at once; concurrent interning uses intern_batch.
  InternResult intern(const P* s, std::uint64_t digest, Id parent,
                      std::span<const std::uint32_t> fired,
                      std::uint32_t depth = 0, std::uint32_t exponent = 0) {
    std::uint32_t* fast_slot = nullptr;
    InternResult out;
    if (probe_fast(s, digest, fast_slot, out)) return out;
    Shard& shard = shards_[shard_of(digest)];
    std::unique_lock<cseq::mutex> lock(shard.mu, std::defer_lock);
    if (concurrent_) lock.lock();
    return intern_locked(shard, s, digest, parent, fired.data(),
                         static_cast<std::uint32_t>(fired.size()), depth,
                         exponent, arenas_[0], fast_slot);
  }

  /// Bulk interning: resolves `items` against the store in one call —
  /// lock-free fast-table probes with prefetch running `kPrefetchAhead`
  /// items ahead, then one locked pass per shard GROUP (stable counting
  /// sort by shard, index slots prefetched before the probes), fresh blobs
  /// bump-allocated from `arena`. results[i] corresponds to items[i]; the
  /// first occurrence of a duplicated state within the batch is the one
  /// that inserts (stable grouping preserves in-batch discovery order per
  /// shard), so batched exploration keeps the unbatched discovery-edge
  /// semantics. items.size() must be <= kMaxBatch.
  BulkStats intern_batch(std::span<const BulkItem> items, const P* states,
                         const std::uint32_t* fired, StateArena<P>& arena,
                         BulkScratch& scratch, InternResult* results) {
    const std::size_t n = items.size();
    if (n > kMaxBatch) std::abort();  // caller bug: spine slack would be void
    BulkStats stats;
    static constexpr std::size_t kPrefetchAhead = 8;

    scratch.pending.clear();
    if (fast_ != nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n) {
          prefetch_read(&fast_[fast_index(items[i + kPrefetchAhead].digest)]);
        }
        std::uint32_t* slot_ptr = nullptr;
        if (!probe_fast(states + items[i].state_index * procs_,
                        items[i].digest, slot_ptr, results[i])) {
          scratch.pending.push_back(static_cast<std::uint32_t>(i));
        }
      }
    } else {
      scratch.pending.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        scratch.pending[i] = static_cast<std::uint32_t>(i);
      }
    }

    // Stable counting sort of the unresolved items by destination shard:
    // one pass to count, one to scatter. Stability keeps in-batch
    // discovery order within each shard group.
    std::uint32_t counts[kShards] = {};
    for (const auto idx : scratch.pending) {
      ++counts[shard_of(items[idx].digest)];
    }
    std::uint32_t starts[kShards + 1];
    starts[0] = 0;
    for (std::size_t s = 0; s < kShards; ++s) starts[s + 1] = starts[s] + counts[s];
    scratch.grouped.resize(scratch.pending.size());
    {
      std::uint32_t cursor[kShards];
      std::copy(starts, starts + kShards, cursor);
      for (const auto idx : scratch.pending) {
        scratch.grouped[cursor[shard_of(items[idx].digest)]++] = idx;
      }
    }

    std::size_t fresh = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      if (counts[s] == 0) continue;
      ++stats.groups;
      stats.grouped_items += counts[s];
      Shard& shard = shards_[s];
      std::unique_lock<cseq::mutex> lock(shard.mu, std::defer_lock);
      if (concurrent_) lock.lock();
      // Prefetch the group's home index slots under the lock (the index
      // array may be swapped by a concurrent grow, so touching it outside
      // the lock would race); the probe loop below then finds them warm.
      for (std::uint32_t g = starts[s]; g < starts[s + 1]; ++g) {
        const auto& it = items[scratch.grouped[g]];
        prefetch_read(&shard.index_vals[index_slot(shard, it.digest)]);
        prefetch_read(&shard.index_keys[index_slot(shard, it.digest)]);
      }
      for (std::uint32_t g = starts[s]; g < starts[s + 1]; ++g) {
        const std::uint32_t idx = scratch.grouped[g];
        const auto& it = items[idx];
        std::uint32_t* fast_slot =
            fast_ != nullptr ? &fast_[fast_index(it.digest)] : nullptr;
        results[idx] = intern_locked(
            shard, states + it.state_index * procs_, it.digest, it.parent,
            fired + it.fired_ofs, it.fired_len, it.depth, it.exponent, arena,
            fast_slot, /*bump_total=*/false);
        if (results[idx].inserted) ++fresh;
      }
    }
    if (fresh > 0) total_.fetch_add(fresh, cseq::mo_relaxed);
    return stats;
  }

  [[nodiscard]] std::span<const P> state(Id id) const {
    const Shard& shard = shards_[id & (kShards - 1)];
    return {slot(shard, id >> kShardBits), procs_};
  }

  [[nodiscard]] Id parent(Id id) const {
    return shards_[id & (kShards - 1)].parents[id >> kShardBits];
  }

  [[nodiscard]] std::span<const std::uint32_t> fired(Id id) const {
    const Shard& shard = shards_[id & (kShards - 1)];
    const std::uint32_t ofs = shard.fired_offsets[id >> kShardBits];
    return {shard.fired_arena.data() + ofs + 1, shard.fired_arena[ofs]};
  }

  [[nodiscard]] std::uint64_t digest_of(Id id) const {
    return shards_[id & (kShards - 1)].digests[id >> kShardBits];
  }

  /// Symmetry-group exponent recorded at first insertion: the stored
  /// canonical state is g^exponent(raw state discovered).
  [[nodiscard]] std::uint32_t exponent(Id id) const {
    return shards_[id & (kShards - 1)].exponents[id >> kShardBits];
  }

  /// Discovery depth (safe concurrently for published ids).
  [[nodiscard]] std::uint32_t depth(Id id) const {
    return depth_slot(shards_[id & (kShards - 1)], id >> kShardBits)
        .load(cseq::mo_relaxed);
  }

  /// CAS-min on the recorded depth. Returns true iff `depth` was strictly
  /// smaller and is now stored — the work-stealing scheduler re-expands the
  /// state in that case, so final depths equal true BFS depths regardless
  /// of discovery order.
  bool try_improve_depth(Id id, std::uint32_t depth) {
    auto& slot = depth_slot(shards_[id & (kShards - 1)], id >> kShardBits);
    std::uint32_t cur = slot.load(cseq::mo_relaxed);
    while (depth < cur) {
      if (slot.compare_exchange_weak(cur, depth, cseq::mo_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// Largest recorded depth (post-join; the BFS diameter on clean runs).
  [[nodiscard]] std::uint32_t max_depth() const {
    std::uint32_t best = 0;
    for (const auto& shard : shards_) {
      for (std::size_t local = 0; local < shard.count; ++local) {
        best = std::max(best,
                        depth_slot(shard, static_cast<std::uint32_t>(local))
                            .load(cseq::mo_relaxed));
      }
    }
    return best;
  }

  /// Total interned states. Relaxed: exact after a synchronization point,
  /// approximate (monotone lower bound) while workers are interning.
  [[nodiscard]] std::size_t size() const {
    return total_.load(cseq::mo_relaxed);
  }

  [[nodiscard]] std::size_t procs() const noexcept { return procs_; }

  /// Dense numbering of the interned states, 0 .. size()-1, shard-major:
  /// shard s's states take [base[s], base[s] + count) in insertion order.
  /// Ids are (local << kShardBits) | shard, so mapping one is a table
  /// lookup plus an add — no hash map. A snapshot of the shard counts, so
  /// valid only after all interning calls joined.
  class DenseIds {
   public:
    [[nodiscard]] std::uint32_t operator()(Id id) const noexcept {
      return base_[id & (kShards - 1)] + (id >> kShardBits);
    }

   private:
    friend class StateStore;
    std::array<std::uint32_t, kShards> base_{};
  };

  [[nodiscard]] DenseIds dense_ids() const {
    DenseIds dense;
    std::uint32_t next = 0;
    for (std::size_t sh = 0; sh < kShards; ++sh) {
      dense.base_[sh] = next;
      next += static_cast<std::uint32_t>(shards_[sh].count);
    }
    return dense;
  }

  /// Calls fn(std::span<const P>) on every interned state in dense order
  /// (post-join).
  template <class Fn>
  void for_each_state(Fn&& fn) const {
    for (const auto& shard : shards_) {
      for (std::size_t local = 0; local < shard.count; ++local) {
        fn(std::span<const P>{slot(shard, static_cast<std::uint32_t>(local)),
                              procs_});
      }
    }
  }

  /// Sorted digests of every interned state — the canonical fingerprint
  /// used to compare two explorations state-set for state-set.
  [[nodiscard]] std::vector<std::uint64_t> sorted_digests() const {
    std::vector<std::uint64_t> out;
    out.reserve(size());
    for (const auto& shard : shards_) {
      out.insert(out.end(), shard.digests.begin(), shard.digests.end());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static constexpr std::uint32_t kNoLocal = 0xffffffffu;
  static constexpr std::size_t kInitialIndexSlots = 64;

  /// Padded to cache lines: neighbouring shards' mutexes and hot counters
  /// must not share a line, or uncontended interns ping-pong it.
  struct alignas(64) Shard {
    cseq::mutex mu;
    // digest -> newest local + 1 (0 = empty), open addressing.
    std::vector<std::uint64_t> index_keys;
    std::vector<std::uint32_t> index_vals;
    std::size_t index_mask = 0;
    std::size_t index_used = 0;
    std::vector<std::uint32_t> collision_next;  ///< older state, same digest
    /// Per-state blob pointers into the worker arenas, in kBlockStates
    /// blocks so the spine (reserved up front) never moves under a reader.
    std::vector<std::unique_ptr<const P*[]>> ptr_blocks;
    std::vector<std::unique_ptr<cseq::atomic<std::uint32_t>[]>> depth_blocks;
    std::vector<std::uint64_t> digests;
    std::vector<Id> parents;
    std::vector<std::uint32_t> exponents;
    std::vector<std::uint32_t> fired_offsets;  ///< into fired_arena: [count, a...]
    std::vector<std::uint32_t> fired_arena;
    std::size_t count = 0;
  };

  [[nodiscard]] static constexpr std::size_t shard_of(std::uint64_t digest) noexcept {
    return digest & (kShards - 1);
  }
  [[nodiscard]] static constexpr Id make_id(std::size_t shard,
                                            std::uint32_t local) noexcept {
    return (local << kShardBits) | static_cast<Id>(shard);
  }
  [[nodiscard]] const P* slot(const Shard& shard, std::uint32_t local) const {
    return shard.ptr_blocks[local / kBlockStates][local % kBlockStates];
  }
  [[nodiscard]] static cseq::atomic<std::uint32_t>& depth_slot(
      const Shard& shard, std::uint32_t local) {
    return shard.depth_blocks[local / kBlockStates][local % kBlockStates];
  }

  /// Lock-free duplicate probe. On a byte-equal hit fills `out` and returns
  /// true; otherwise leaves `fast_slot` pointing at the slot to publish to.
  bool probe_fast(const P* s, std::uint64_t digest, std::uint32_t*& fast_slot,
                  InternResult& out) const {
    if (fast_ == nullptr) return false;
    fast_slot = &fast_[fast_index(digest)];
    const std::uint32_t cached = fast_ref(*fast_slot).load(cseq::mo_acquire);
    if (cached == 0) return false;
    const Id cand = cached - 1;
    const Shard& shard = shards_[cand & (kShards - 1)];
    if (std::memcmp(slot(shard, cand >> kShardBits), s, state_bytes_) != 0) {
      return false;
    }
    out = {cand, false, true};
    return true;
  }

  /// Probe-or-insert under the (already held, in concurrent mode) shard
  /// lock. Blob bytes for fresh states are bump-allocated from `arena` and
  /// copied before the digest -> id mapping becomes visible, so a reader
  /// that finds the id (via the index after the lock is released, or the
  /// fast slot's release store) always sees complete bytes.
  InternResult intern_locked(Shard& shard, const P* s, std::uint64_t digest,
                             Id parent, const std::uint32_t* fired,
                             std::uint32_t fired_len, std::uint32_t depth,
                             std::uint32_t exponent, StateArena<P>& arena,
                             std::uint32_t* fast_slot, bool bump_total = true) {
    // Open-addressing digest index (linear probing, power-of-two, grown at
    // ~70% load): the hot intern path must not pay a node allocation and a
    // bucket-chain walk per fresh state the way an unordered_map does.
    std::size_t probe = index_slot(shard, digest);
    while (shard.index_vals[probe] != 0) {
      if (shard.index_keys[probe] == digest) break;
      probe = (probe + 1) & shard.index_mask;
    }
    const bool fresh = shard.index_vals[probe] == 0;
    for (std::uint32_t local = fresh ? kNoLocal : shard.index_vals[probe] - 1;
         local != kNoLocal; local = shard.collision_next[local]) {
      if (std::memcmp(slot(shard, local), s, state_bytes_) == 0) {
        const Id found = make_id(shard_of(digest), local);
        if (fast_slot != nullptr) {
          fast_ref(*fast_slot).store(found + 1, cseq::mo_release);
        }
        return {found, false, false};
      }
    }
    const auto local = static_cast<std::uint32_t>(shard.count);
    if (local % kBlockStates == 0) {
      // for_overwrite: zero-filling the blocks would cost more than the
      // ~20 states a shard typically holds on small instances. Every
      // pointer and depth is fully written before its id is published.
      shard.ptr_blocks.push_back(
          std::make_unique_for_overwrite<const P*[]>(kBlockStates));
      shard.depth_blocks.push_back(
          std::make_unique_for_overwrite<cseq::atomic<std::uint32_t>[]>(
              kBlockStates));
    }
    P* blob = arena.alloc();
    std::memcpy(blob, s, state_bytes_);
    shard.ptr_blocks[local / kBlockStates][local % kBlockStates] = blob;
    depth_slot(shard, local).store(depth, cseq::mo_relaxed);
    shard.digests.push_back(digest);
    shard.parents.push_back(parent);
    shard.exponents.push_back(exponent);
    shard.fired_offsets.push_back(static_cast<std::uint32_t>(shard.fired_arena.size()));
    shard.fired_arena.push_back(fired_len);
    shard.fired_arena.insert(shard.fired_arena.end(), fired, fired + fired_len);
    shard.collision_next.push_back(fresh ? kNoLocal
                                         : shard.index_vals[probe] - 1);
    shard.index_keys[probe] = digest;
    shard.index_vals[probe] = local + 1;
    if (fresh && ++shard.index_used * 10 >= shard.index_mask * 7) {
      grow_index(shard);
    }
    ++shard.count;
    if (bump_total) total_.fetch_add(1, cseq::mo_relaxed);
    const Id id = make_id(shard_of(digest), local);
    if (fast_slot != nullptr) {
      // Publish AFTER the blob bytes, pointer and depth: the release pairs
      // with the fast path's acquire, so a fast-path reader sees complete
      // bytes.
      fast_ref(*fast_slot).store(id + 1, cseq::mo_release);
    }
    return {id, true, false};
  }

  /// Home slot in the shard's open-addressing index. The shard id consumed
  /// the digest's low bits; the multiply redistributes the rest.
  [[nodiscard]] static std::size_t index_slot(const Shard& shard,
                                              std::uint64_t digest) noexcept {
    return (digest * 0x9e3779b97f4a7c15ULL >> 32) & shard.index_mask;
  }
  /// Doubles a shard's index and re-inserts every key (caller holds the
  /// shard mutex in concurrent mode; the index is never read lock-free).
  static void grow_index(Shard& shard) {
    const std::size_t cap = 2 * (shard.index_mask + 1);
    std::vector<std::uint64_t> keys(cap);
    std::vector<std::uint32_t> vals(cap, 0);
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i <= shard.index_mask; ++i) {
      if (shard.index_vals[i] == 0) continue;
      std::size_t probe =
          (shard.index_keys[i] * 0x9e3779b97f4a7c15ULL >> 32) & mask;
      while (vals[probe] != 0) probe = (probe + 1) & mask;
      keys[probe] = shard.index_keys[i];
      vals[probe] = shard.index_vals[i];
    }
    shard.index_keys = std::move(keys);
    shard.index_vals = std::move(vals);
    shard.index_mask = mask;
  }
  /// Tagged view of a fast-table slot ("store_fast" names the
  /// release-publish / acquire-probe edge pair).
  [[nodiscard]] static cseq::atomic_ref<std::uint32_t> fast_ref(
      std::uint32_t& slot) noexcept {
    cseq::atomic_ref<std::uint32_t> ref(slot);
    ref.set_tag("store_fast");
    return ref;
  }
  /// Fibonacci-hash the digest into the fast table (the shard index already
  /// consumed the low bits; the multiply redistributes the rest).
  [[nodiscard]] std::size_t fast_index(std::uint64_t digest) const noexcept {
    return (digest * 0x9e3779b97f4a7c15ULL) >> (64 - fast_bits_);
  }

  std::size_t procs_;
  std::size_t state_bytes_;
  bool concurrent_;
  unsigned fast_bits_ = 0;
  struct FreeDeleter {
    void operator()(void* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<std::uint32_t[], FreeDeleter> fast_;  ///< id+1 slots; 0 empty
  cseq::atomic<std::size_t> total_{0};
  std::vector<StateArena<P>> arenas_;
  Shard shards_[kShards];
};

}  // namespace ftbar::check
