// Pure measurement arithmetic of the benchmark: percentiles with the tail
// rule, barrier-episode derivation from per-thread timestamps, and per-link
// FIFO matching of message deliveries to receives. Kept free of threads and
// clocks so selftest.cpp can pin each rule on synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/event.hpp"

namespace perfbench {

/// Median and tail of a sample. The tail is p99 when at least ten samples
/// lie beyond it; otherwise it is the highest nearest-rank percentile that
/// still has ten samples beyond it. Fewer than eleven samples have no tail.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  ///< percentile the tail value stands for (99 when possible)
  bool has_tail = false;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto rank = [&](double q) {  // nearest rank, 0-based
    const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(s.n)));
    return r == 0 ? std::size_t{0} : r - 1;
  };
  s.p50 = v[rank(0.5)];
  if (s.n < 11) return s;
  s.has_tail = true;
  const std::size_t p99 = rank(0.99);
  if (s.n - 1 - p99 >= 10) {
    s.tail = v[p99];
    s.tail_pct = 99.0;
  } else {
    s.tail = v[s.n - 11];
    s.tail_pct = 100.0 * static_cast<double>(s.n - 10) / static_cast<double>(s.n);
  }
  return s;
}

/// One arrive_and_wait call as its thread saw it.
struct Call {
  double arrive_us = 0;   ///< just before arrive_and_wait
  double release_us = 0;  ///< just after it returned
  std::uint64_t commit = 0;  ///< thread's committed episodes after this call
  int phase = 0;             ///< phase of the returned ticket
  bool repeated = false;     ///< ticket was a repeat (no commit)
};

struct Episodes {
  std::vector<double> latency_us;  ///< latest release - latest arrival
  std::vector<double> skew_us;     ///< latest arrival - earliest arrival
  std::size_t phase_errors = 0;    ///< tickets whose phase or commit disagrees
};

/// Aligns the committing calls of every thread by commit count and derives
/// each episode's latency and arrival skew. Commit c must carry phase
/// c mod num_phases on every thread; a repeat carries the phase being
/// redone. Only commits in [first, last) enter the result.
inline Episodes derive_episodes(const std::vector<std::vector<Call>>& threads,
                                int num_phases, std::uint64_t first,
                                std::uint64_t last) {
  Episodes out;
  std::vector<std::vector<const Call*>> commits(threads.size());
  for (std::size_t t = 0; t < threads.size(); ++t) {
    for (const Call& c : threads[t]) {
      const auto want = static_cast<int>(c.commit % static_cast<std::uint64_t>(num_phases));
      if (c.phase != want) ++out.phase_errors;
      if (!c.repeated) commits[t].push_back(&c);
    }
  }
  std::size_t n = commits.empty() ? 0 : commits[0].size();
  for (const auto& c : commits) n = std::min(n, c.size());
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t id = commits[0][k]->commit;
    double max_arrive = -1e300, min_arrive = 1e300, max_release = -1e300;
    for (const auto& c : commits) {
      if (c[k]->commit != id) ++out.phase_errors;
      max_arrive = std::max(max_arrive, c[k]->arrive_us);
      min_arrive = std::min(min_arrive, c[k]->arrive_us);
      max_release = std::max(max_release, c[k]->release_us);
    }
    if (id < first || id >= last) continue;
    out.latency_us.push_back(max_release - max_arrive);
    out.skew_us.push_back(max_arrive - min_arrive);
  }
  return out;
}

/// Deliver and receive times per (src,dst) link, fed from trace events in
/// each emitting thread's own order. A link's deliveries are all emitted by
/// its sender and its receives by its receiver, and the inbox is FIFO, so
/// the k-th receive on a link consumed the k-th delivery. A drop for a full
/// inbox (kMsgDrop, reason 1) never reached the inbox and is not a delivery.
class LinkLog {
 public:
  explicit LinkLog(int num_ranks = 0)
      : ranks_(num_ranks),
        deliver_(static_cast<std::size_t>(num_ranks * num_ranks)),
        recv_(static_cast<std::size_t>(num_ranks * num_ranks)) {}

  void add(const ftbar::trace::TraceEvent& e) {
    if (e.kind == ftbar::trace::Kind::kMsgDeliver) {
      deliver_[link(static_cast<int>(e.a), e.proc)].push_back(e.time);
    } else if (e.kind == ftbar::trace::Kind::kMsgRecv) {
      recv_[link(static_cast<int>(e.a), e.proc)].push_back(e.time);
    }
  }

  /// Appends another log's per-link sequences after this one's.
  void merge(const LinkLog& other) {
    for (std::size_t i = 0; i < deliver_.size(); ++i) {
      deliver_[i].insert(deliver_[i].end(), other.deliver_[i].begin(),
                         other.deliver_[i].end());
      recv_[i].insert(recv_[i].end(), other.recv_[i].begin(), other.recv_[i].end());
    }
  }

  /// Delivery-to-receive time of every message received in [from, to).
  /// Receives beyond a link's deliveries cannot be matched and are counted,
  /// not guessed.
  [[nodiscard]] std::vector<double> waits(double from, double to,
                                          std::size_t* unmatched = nullptr) const {
    std::vector<double> out;
    std::size_t lost = 0;
    for (std::size_t i = 0; i < deliver_.size(); ++i) {
      const std::size_t m = std::min(deliver_[i].size(), recv_[i].size());
      for (std::size_t k = 0; k < m; ++k) {
        if (recv_[i][k] >= from && recv_[i][k] < to) {
          out.push_back(recv_[i][k] - deliver_[i][k]);
        }
      }
      lost += recv_[i].size() - m;
    }
    if (unmatched != nullptr) *unmatched = lost;
    return out;
  }

 private:
  [[nodiscard]] std::size_t link(int src, int dst) const {
    return static_cast<std::size_t>(src * ranks_ + dst);
  }

  int ranks_;
  std::vector<std::vector<double>> deliver_;
  std::vector<std::vector<double>> recv_;
};

}  // namespace perfbench
