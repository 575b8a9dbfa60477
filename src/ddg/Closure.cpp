//===- Closure.cpp - Symbolic longest-path closure ---------------------------===//
//
// Part of warp-swp. See Closure.h.
//
//===----------------------------------------------------------------------===//

#include "swp/DDG/Closure.h"

#include "swp/Support/MathUtils.h"

#include <algorithm>

using namespace swp;

void PathSet::insertSlow(PathPair NewPair, int64_t SMin) {
  for (const PathPair &PP : Pairs)
    if (dominates(PP, NewPair, SMin))
      return;
  Pairs.erase(std::remove_if(Pairs.begin(), Pairs.end(),
                             [&](const PathPair &PP) {
                               return dominates(NewPair, PP, SMin);
                             }),
              Pairs.end());
  Pairs.push_back(NewPair);
}

SCCClosure::SCCClosure(const DepGraph &G, std::span<const unsigned> Members,
                       int64_t SMin)
    : Nodes(Members.begin(), Members.end()) {
  unsigned N = Nodes.size();
  LocalOf.assign(G.numNodes(), -1);
  for (unsigned I = 0; I != N; ++I)
    LocalOf[Nodes[I]] = static_cast<int>(I);
  Matrix.assign(static_cast<size_t>(N) * N, PathSet());

  auto At = [&](unsigned I, unsigned J) -> PathSet & {
    return Matrix[static_cast<size_t>(I) * N + J];
  };

  // Direct edges inside the component.
  for (unsigned I = 0; I != N; ++I) {
    for (unsigned EIdx : G.succs(Nodes[I])) {
      const DepEdge &E = G.edges()[EIdx];
      int Dst = LocalOf[E.Dst];
      if (Dst < 0)
        continue;
      At(I, Dst).insert({E.Delay, E.Omega}, SMin);
    }
  }

  // Floyd-Warshall over the (max, +) Pareto semiring. Extra laps around
  // cycles are dominated at SMin >= RecMII, so enumerating simple paths
  // (which one k-sweep does) suffices.
  for (unsigned K = 0; K != N; ++K)
    for (unsigned I = 0; I != N; ++I) {
      const PathSet &IK = At(I, K);
      if (IK.empty())
        continue;
      for (unsigned J = 0; J != N; ++J) {
        const PathSet &KJ = At(K, J);
        if (KJ.empty())
          continue;
        PathSet &IJ = At(I, J);
        for (const PathPair &A : IK.pairs())
          for (const PathPair &B : KJ.pairs())
            IJ.insert({A.D + B.D, A.P + B.P}, SMin);
      }
    }
}

unsigned SCCClosure::localIndex(unsigned GlobalId) const {
  assert(GlobalId < LocalOf.size() && LocalOf[GlobalId] >= 0 &&
         "node is not a member of this component");
  return static_cast<unsigned>(LocalOf[GlobalId]);
}

const PathSet &SCCClosure::set(unsigned From, unsigned To) const {
  unsigned N = Nodes.size();
  return Matrix[static_cast<size_t>(localIndex(From)) * N + localIndex(To)];
}

unsigned SCCClosure::criticalCycleBound() const {
  unsigned N = Nodes.size();
  int64_t Bound = 0;
  for (unsigned I = 0; I != N; ++I)
    for (const PathPair &PP : Matrix[static_cast<size_t>(I) * N + I].pairs())
      if (PP.P > 0)
        Bound = std::max(Bound, ceilDiv(PP.D, PP.P));
  return static_cast<unsigned>(std::max<int64_t>(Bound, 0));
}
