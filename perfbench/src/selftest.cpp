#include "selftest.hpp"

#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis.hpp"

namespace perfbench {
namespace {

int g_failed = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failed;
    std::fprintf(stderr, "self-test failed: %s\n", what);
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  // 1000 samples: p99 is rank 990 and exactly 10 samples lie beyond it.
  auto s = summarize(one_to(1000));
  expect(s.n == 1000 && s.p50 == 500 && s.has_tail, "p50/p99 on 1000 samples");
  expect(s.tail == 990 && s.tail_pct == 99.0, "p99 on 1000 samples has 10 beyond");
  // 500 samples: p99 (rank 495) has only 5 beyond, so the tail falls back
  // to rank 490, the highest with 10 beyond, i.e. p98.
  s = summarize(one_to(500));
  expect(s.tail == 490 && std::abs(s.tail_pct - 98.0) < 1e-9, "tail falls back below p99");
  // 11 samples: the only rank with 10 beyond is the minimum.
  s = summarize(one_to(11));
  expect(s.has_tail && s.tail == 1, "11 samples: tail is the lowest value");
  s = summarize(one_to(10));
  expect(!s.has_tail && s.n == 10 && s.p50 == 5, "10 samples have no tail");
  s = summarize({});
  expect(s.n == 0 && !s.has_tail, "empty sample");
}

void episode_alignment() {
  // Three threads, four phases. Thread 1 had to redo commit 2's phase: its
  // repeat call carries commit 1 and phase 1, and its committing arrival
  // for commit 2 is the late one. Thread 2 got no repeat ticket at all —
  // repeat tickets may differ per thread.
  std::vector<std::vector<Call>> t(3);
  t[0] = {{10, 20, 1, 1, false}, {30, 45, 2, 2, false}, {50, 60, 3, 3, false}};
  t[1] = {{12, 20, 1, 1, false},
          {25, 28, 1, 1, true},
          {35, 44, 2, 2, false},
          {52, 61, 3, 3, false}};
  t[2] = {{15, 19, 1, 1, false}, {31, 46, 2, 2, false}, {55, 59, 3, 3, false}};
  auto e = derive_episodes(t, 4, 1, 4);
  expect(e.phase_errors == 0, "consistent phases give no errors");
  expect(e.latency_us.size() == 3, "one episode per commit, repeats excluded");
  expect(e.latency_us.size() == 3 && e.latency_us[0] == 5 && e.latency_us[1] == 11 &&
             e.latency_us[2] == 6,
         "latency = latest release - latest arrival, aligned by commit");
  expect(e.skew_us.size() == 3 && e.skew_us[1] == 5, "skew = latest - earliest arrival");
  e = derive_episodes(t, 4, 2, 3);
  expect(e.latency_us.size() == 1 && e.latency_us[0] == 11, "window selects commits");
  // A commit carrying the wrong phase is an error.
  t[2][1].phase = 3;
  e = derive_episodes(t, 4, 1, 4);
  expect(e.phase_errors == 1, "wrong phase detected");
  // Phases wrap modulo num_phases.
  std::vector<std::vector<Call>> w = {{{1, 2, 4, 0, false}}, {{1, 3, 4, 0, false}}};
  expect(derive_episodes(w, 4, 1, 10).phase_errors == 0, "commit 4 is phase 0 of 4");
}

ftbar::trace::TraceEvent ev(ftbar::trace::Kind k, double time, int proc, int a,
                            int c = 0) {
  return ftbar::trace::make_event(k, time, proc, a, /*b=*/1, c);
}

void fifo_matching() {
  using ftbar::trace::Kind;
  // Link 0->1 delivers at 10, 20 and 30; a message to a full inbox is
  // dropped (reason 1) at 25 and never delivered. Link 2->1 interleaves.
  // Receives at rank 1 consume each link in FIFO order.
  LinkLog sender0(3), sender2(3), receiver1(3);
  sender0.add(ev(Kind::kMsgDeliver, 10, 1, 0));
  sender0.add(ev(Kind::kMsgDeliver, 20, 1, 0));
  sender0.add(ev(Kind::kMsgDrop, 25, 0, 1, /*reason=*/1));
  sender0.add(ev(Kind::kMsgDeliver, 30, 1, 0));
  sender2.add(ev(Kind::kMsgDeliver, 12, 1, 2));
  receiver1.add(ev(Kind::kMsgRecv, 14, 1, 2));
  receiver1.add(ev(Kind::kMsgRecv, 15, 1, 0));
  receiver1.add(ev(Kind::kMsgRecv, 40, 1, 0));
  receiver1.add(ev(Kind::kMsgRecv, 41, 1, 0));
  LinkLog all(3);
  all.merge(receiver1);  // lane order must not matter
  all.merge(sender2);
  all.merge(sender0);
  std::size_t unmatched = 9;
  auto waits = all.waits(0, 1e9, &unmatched);
  std::vector<double> want = {5, 20, 11, 2};  // link 0->1 first, then 2->1
  expect(waits == want, "k-th receive on a link matches its k-th delivery");
  expect(unmatched == 0, "every receive matched");
  // A receive with no delivery left is counted, not matched.
  all.add(ev(Kind::kMsgRecv, 50, 1, 2));
  waits = all.waits(0, 1e9, &unmatched);
  expect(waits.size() == 4 && unmatched == 1, "extra receive is unmatched");
  // The window filters on the receive time.
  waits = all.waits(15, 41, &unmatched);
  expect(waits.size() == 2, "window keeps receives in [from, to)");
}

}  // namespace

int run_selftests() {
  g_failed = 0;
  percentile_rule();
  episode_alignment();
  fifo_matching();
  return g_failed;
}

}  // namespace perfbench
