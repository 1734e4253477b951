// Self-tests of the benchmark's own arithmetic (analysis.hpp), run at the
// start of every invocation: a wrong percentile or a misaligned episode
// would silently corrupt every number the benchmark prints.
#pragma once

namespace perfbench {

/// Runs every self-test; returns the number that failed (each is named on
/// stderr).
int run_selftests();

}  // namespace perfbench
