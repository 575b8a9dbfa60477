//===- swp/DDG/Closure.h - Symbolic longest-path closure --------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The preprocessing step of section 2.2.2: for each strongly connected
/// component, the all-points longest-path problem is solved once "using a
/// symbolic value to stand for the initiation interval". A path's length is
/// sum(d) - s * sum(p); we represent each path by the pair
/// (D, P) = (sum of delays, sum of omegas) and keep, per node pair, only
/// the Pareto-optimal pairs under the domination rule
///
///   (D1,P1) dominates (D2,P2)  iff  D1 - s*P1 >= D2 - s*P2 for all
///                                   s >= SMin
///                              iff  P1 <= P2 and
///                                   D1 - D2 >= SMin * (P1 - P2),
///
/// where SMin is a known lower bound on any initiation interval that will
/// be attempted (RecMII). At SMin >= RecMII every extra lap around a cycle
/// is dominated by the lap-free path, so the Pareto sets are finite and a
/// single Floyd-Warshall sweep (which enumerates all simple paths) computes
/// the closure. Evaluating a set at a concrete s gives the longest-path
/// distance used to maintain precedence-constrained ranges while
/// scheduling a component.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_DDG_CLOSURE_H
#define SWP_DDG_CLOSURE_H

#include "swp/DDG/DepGraph.h"

#include <cstdint>
#include <limits>
#include <vector>

namespace swp {

/// One symbolic path length: D - s*P.
struct PathPair {
  int64_t D = 0;
  uint32_t P = 0;
};

/// True if \p A dominates \p B for every interval s >= SMin.
inline bool dominates(const PathPair &A, const PathPair &B, int64_t SMin) {
  if (A.P > B.P)
    return false;
  return A.D - B.D >=
         SMin * (static_cast<int64_t>(A.P) - static_cast<int64_t>(B.P));
}

/// A Pareto frontier of path pairs for one (from, to) node pair.
class PathSet {
public:
  /// Inserts \p NewPair, pruning under the domination rule at \p SMin.
  /// Empty and singleton sets (the overwhelmingly common cases inside the
  /// Floyd-Warshall sweep) are handled without the generic prune scan.
  void insert(PathPair NewPair, int64_t SMin) {
    if (Pairs.empty()) {
      Pairs.push_back(NewPair);
      return;
    }
    if (Pairs.size() == 1) {
      if (dominates(Pairs[0], NewPair, SMin))
        return;
      if (dominates(NewPair, Pairs[0], SMin))
        Pairs[0] = NewPair;
      else
        Pairs.push_back(NewPair);
      return;
    }
    insertSlow(NewPair, SMin);
  }

  bool empty() const { return Pairs.empty(); }
  const std::vector<PathPair> &pairs() const { return Pairs; }

  /// Longest-path distance at concrete interval \p S, or INT64_MIN when
  /// there is no path.
  int64_t evaluate(int64_t S) const {
    int64_t Best = std::numeric_limits<int64_t>::min();
    for (const PathPair &PP : Pairs)
      Best = std::max(Best, PP.D - S * static_cast<int64_t>(PP.P));
    return Best;
  }

private:
  void insertSlow(PathPair NewPair, int64_t SMin);

  std::vector<PathPair> Pairs;
};

/// The closure of one strongly connected component.
class SCCClosure {
public:
  /// Computes all-pairs symbolic longest paths among \p Nodes (global node
  /// ids of one SCC of \p G), pruning with \p SMin (use recMII(G)).
  SCCClosure(const DepGraph &G, std::span<const unsigned> Nodes,
             int64_t SMin);

  /// Longest path From -> To (global node ids; both must be members) at
  /// interval \p S; INT64_MIN when unconstrained.
  int64_t distance(unsigned From, unsigned To, int64_t S) const {
    return set(From, To).evaluate(S);
  }

  /// Same, addressed by position in nodes() — the scheduler's hot path,
  /// which carries local indices and skips the global-id translation.
  int64_t distanceByIndex(unsigned From, unsigned To, int64_t S) const {
    return Matrix[static_cast<size_t>(From) * Nodes.size() + To].evaluate(S);
  }

  /// The symbolic set itself (for tests).
  const PathSet &set(unsigned From, unsigned To) const;

  /// Members in the order used internally.
  const std::vector<unsigned> &nodes() const { return Nodes; }

  /// Largest ceil(D/P) over self-paths (cycles); equals the component's
  /// contribution to RecMII. Returns 0 for a trivial component.
  unsigned criticalCycleBound() const;

private:
  unsigned localIndex(unsigned GlobalId) const;

  std::vector<unsigned> Nodes;
  std::vector<int> LocalOf; ///< Global id -> local index (-1 if absent).
  std::vector<PathSet> Matrix; ///< NxN row-major.
};

} // namespace swp

#endif // SWP_DDG_CLOSURE_H
