// The traced run's trace::Sink. Each emitting thread writes only its own
// lane, so emit() takes a lock once per thread (to register the lane) and
// never again. Events are counted per kind and per run stage (warm-up,
// timed window, drain after the window); message deliveries and receives
// also go to the lane's LinkLog for the inbox-wait derivation.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "analysis.hpp"
#include "trace/sink.hpp"

namespace perfbench {

enum Stage : int { kWarmup = 0, kWindow = 1, kDrain = 2, kStages = 3 };

class CountingSink final : public ftbar::trace::Sink {
 public:
  static constexpr std::size_t kKinds = 32;

  struct Counts {
    std::array<std::array<std::uint64_t, kKinds>, kStages> kind{};
    /// kMsgDrop by reason (0 link loss, 1 inbox full, 2 checksum).
    std::array<std::array<std::uint64_t, 3>, kStages> drop{};

    [[nodiscard]] std::uint64_t of(ftbar::trace::Kind k, int stage) const {
      return kind[static_cast<std::size_t>(stage)][static_cast<std::size_t>(k)];
    }
  };

  explicit CountingSink(int num_ranks) : ranks_(num_ranks), id_(next_id()) {}

  void set_stage(Stage s) noexcept { stage_.store(s, std::memory_order_release); }

  void emit(const ftbar::trace::TraceEvent& e) noexcept override {
    Lane& l = lane();
    const auto st = static_cast<std::size_t>(stage_.load(std::memory_order_acquire));
    ++l.counts.kind[st][static_cast<std::size_t>(e.kind) % kKinds];
    if (e.kind == ftbar::trace::Kind::kMsgDrop && e.c >= 0 && e.c < 3) {
      ++l.counts.drop[st][static_cast<std::size_t>(e.c)];
    }
    l.links.add(e);
  }

  /// Totals over all lanes; call only after every emitting thread joined.
  [[nodiscard]] Counts counts() const {
    Counts out;
    for (const auto& l : lanes_) {
      for (std::size_t s = 0; s < kStages; ++s) {
        for (std::size_t k = 0; k < kKinds; ++k) out.kind[s][k] += l->counts.kind[s][k];
        for (std::size_t r = 0; r < 3; ++r) out.drop[s][r] += l->counts.drop[s][r];
      }
    }
    return out;
  }

  /// Merged per-link log; call only after every emitting thread joined.
  [[nodiscard]] LinkLog links() const {
    LinkLog out(ranks_);
    for (const auto& l : lanes_) out.merge(l->links);
    return out;
  }

 private:
  struct Lane {
    explicit Lane(int ranks) : links(ranks) {}
    Counts counts;
    LinkLog links;
  };

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1) + 1;
  }

  Lane& lane() {
    // Keyed by sink id, not address, so a new sink at a freed sink's
    // address never inherits a stale lane.
    thread_local std::uint64_t owner = 0;
    thread_local Lane* mine = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mutex_);
      lanes_.push_back(std::make_unique<Lane>(ranks_));
      mine = lanes_.back().get();
      owner = id_;
    }
    return *mine;
  }

  int ranks_;
  std::uint64_t id_;
  std::atomic<int> stage_{kWarmup};
  std::mutex mutex_;  ///< guards lanes_ (registration only)
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace perfbench
