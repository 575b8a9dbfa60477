//===- MII.cpp - Lower bounds on the initiation interval --------------------===//
//
// Part of warp-swp. See MII.h.
//
//===----------------------------------------------------------------------===//

#include "swp/DDG/MII.h"

#include "swp/Support/MathUtils.h"

#include <algorithm>

using namespace swp;

unsigned swp::resMII(const DepGraph &G, const MachineDescription &MD) {
  std::vector<uint64_t> Use = G.totalResourceUse(MD);
  uint64_t Bound = 1;
  for (unsigned R = 0; R != MD.numResources(); ++R)
    Bound = std::max<uint64_t>(Bound, ceilDiv(Use[R], MD.resource(R).Units));
  return static_cast<unsigned>(Bound);
}

namespace {

/// One strongly connected component's edges in local indices; dependence
/// cycles live entirely inside a component, so the positive-cycle tests
/// the recMII binary search performs only ever need to relax these.
struct LocalCycleGraph {
  struct Edge {
    unsigned Src, Dst;
    int64_t Delay;
    int64_t Omega;
  };
  unsigned NumNodes = 0;
  std::vector<Edge> Edges;
  int64_t DelaySum = 1; ///< 1 + sum of positive delays: search upper bound.
};

/// True if the weights d - S*p admit a positive-weight cycle. Bellman-Ford
/// style longest-path relaxation: with N nodes, any relaxation still
/// possible after N rounds implies a positive cycle.
bool hasPositiveCycle(const LocalCycleGraph &C, int64_t S,
                      std::vector<int64_t> &Dist) {
  // Longest-path potentials from a virtual source connected to all nodes.
  Dist.assign(C.NumNodes, 0);
  for (unsigned Round = 0; Round != C.NumNodes; ++Round) {
    bool Changed = false;
    for (const LocalCycleGraph::Edge &E : C.Edges) {
      int64_t W = E.Delay - S * E.Omega;
      if (Dist[E.Src] + W > Dist[E.Dst]) {
        Dist[E.Dst] = Dist[E.Src] + W;
        Changed = true;
      }
    }
    if (!Changed)
      return false;
  }
  return true;
}

} // namespace

unsigned swp::recMII(const DepGraph &G) { return recMII(G, G.sccs()); }

unsigned swp::recMII(const DepGraph &G, const SCCList &Comps) {
  // Every cycle is confined to one strongly connected component, so the
  // bound is the max over components of the smallest s admitting no
  // positive cycle there — and each component's Bellman-Ford runs over a
  // few local edges instead of the whole graph.
  std::vector<int> LocalOf(G.numNodes(), -1);
  int64_t Bound = 1;
  std::vector<int64_t> Dist;
  LocalCycleGraph C;
  for (unsigned CI = 0; CI != Comps.size(); ++CI) {
    std::span<const unsigned> Members = Comps[CI];
    if (Members.size() == 1) {
      // Singleton components cycle only through self-edges, whose bound
      // is directly ceil(d / p).
      for (unsigned EIdx : G.succs(Members[0])) {
        const DepEdge &E = G.edges()[EIdx];
        if (E.Dst != Members[0] || E.Delay <= 0)
          continue;
        assert(E.Omega > 0 && "positive-delay same-iteration self-edge: "
                              "the dependence graph is malformed");
        Bound = std::max(Bound, ceilDiv(E.Delay, E.Omega));
      }
      continue;
    }
    C.NumNodes = static_cast<unsigned>(Members.size());
    C.Edges.clear();
    C.DelaySum = 1;
    for (unsigned I = 0; I != C.NumNodes; ++I)
      LocalOf[Members[I]] = static_cast<int>(I);
    for (unsigned N : Members)
      for (unsigned EIdx : G.succs(N)) {
        const DepEdge &E = G.edges()[EIdx];
        if (LocalOf[E.Dst] < 0)
          continue;
        C.Edges.push_back({static_cast<unsigned>(LocalOf[E.Src]),
                           static_cast<unsigned>(LocalOf[E.Dst]), E.Delay,
                           E.Omega});
        if (E.Delay > 0)
          C.DelaySum += E.Delay;
      }
    for (unsigned N : Members)
      LocalOf[N] = -1;

    // Upper bound: any cycle's total delay is at most the sum of positive
    // delays, and p(c) >= 1 for any legal cycle.
    int64_t Hi = C.DelaySum;
    assert(!hasPositiveCycle(C, Hi, Dist) &&
           "positive cycle at the delay-sum bound: a zero-omega cycle has "
           "positive delay, the dependence graph is malformed");
    int64_t Lo = std::max<int64_t>(1, Bound); // Known-feasible floor probe.
    if (!hasPositiveCycle(C, Lo, Dist))
      continue; // This component does not raise the bound.
    // Invariant: positive cycle at Lo, none at Hi.
    while (Lo + 1 < Hi) {
      int64_t Mid = Lo + (Hi - Lo) / 2;
      if (hasPositiveCycle(C, Mid, Dist))
        Lo = Mid;
      else
        Hi = Mid;
    }
    Bound = std::max(Bound, Hi);
  }
  return static_cast<unsigned>(Bound);
}

unsigned swp::minimumII(const DepGraph &G, const MachineDescription &MD) {
  return std::max(resMII(G, MD), recMII(G));
}
