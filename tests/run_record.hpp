// Per-round views of a finished run, derived from RunResult::
// termination_round alone (node v is active at the start of round r iff
// it has not terminated before r). They equal the kRounds transcript's
// per-round active counts and termination lists, runs cut short by
// max_rounds included; engine_determinism_test pins the identity.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/engine.hpp"

namespace dgap {

/// active[r-1] = nodes active at the start of round r, r = 1..rounds.
inline std::vector<int> active_per_round(const RunResult& result) {
  std::vector<int> active(static_cast<std::size_t>(result.rounds), 0);
  for (const int t : result.termination_round) {
    const int last = t == -1 ? result.rounds : t;
    for (int r = 1; r <= last; ++r) ++active[static_cast<std::size_t>(r - 1)];
  }
  return active;
}

/// terms[r-1] = the nodes that terminated in round r, ascending.
inline std::vector<std::vector<NodeId>> terminations_per_round(
    const RunResult& result) {
  std::vector<std::vector<NodeId>> terms(
      static_cast<std::size_t>(result.rounds));
  for (std::size_t v = 0; v < result.termination_round.size(); ++v) {
    const int t = result.termination_round[v];
    if (t == -1) continue;
    terms[static_cast<std::size_t>(t - 1)].push_back(static_cast<NodeId>(v));
  }
  return terms;
}

}  // namespace dgap
