//===- ListScheduler.cpp - Basic-block list scheduling -----------------------===//
//
// Part of warp-swp. See ListScheduler.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Sched/ListScheduler.h"

#include <algorithm>

using namespace swp;

std::vector<int64_t> swp::computeHeights(const DepGraph &G) {
  unsigned N = G.numNodes();
  // Topological order over omega-0 edges (they are acyclic by
  // construction: a zero-omega cycle would be unsatisfiable).
  std::vector<unsigned> InDeg(N, 0);
  for (const DepEdge &E : G.edges())
    if (E.Omega == 0)
      ++InDeg[E.Dst];
  std::vector<unsigned> Order;
  Order.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    if (InDeg[I] == 0)
      Order.push_back(I);
  for (size_t Head = 0; Head != Order.size(); ++Head) {
    unsigned U = Order[Head];
    for (unsigned EIdx : G.succs(U)) {
      const DepEdge &E = G.edges()[EIdx];
      if (E.Omega != 0)
        continue;
      if (--InDeg[E.Dst] == 0)
        Order.push_back(E.Dst);
    }
  }
  assert(Order.size() == N && "omega-0 subgraph has a cycle");

  std::vector<int64_t> Height(N, 0);
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    unsigned U = *It;
    int64_t H = G.unit(U).length();
    for (unsigned EIdx : G.succs(U)) {
      const DepEdge &E = G.edges()[EIdx];
      if (E.Omega != 0)
        continue;
      H = std::max(H, Height[E.Dst] + E.Delay);
    }
    Height[U] = H;
  }
  return Height;
}

Schedule swp::listSchedule(const DepGraph &G, const MachineDescription &MD) {
  unsigned N = G.numNodes();
  Schedule Sched(N);
  ReservationTable RT(MD);
  RT.reserve(2 * N);
  std::vector<int64_t> Height = computeHeights(G);

  std::vector<unsigned> PredsLeft(N, 0);
  for (const DepEdge &E : G.edges())
    if (E.Omega == 0)
      ++PredsLeft[E.Dst];

  std::vector<unsigned> Ready;
  Ready.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    if (PredsLeft[I] == 0)
      Ready.push_back(I);

  unsigned Placed = 0;
  while (!Ready.empty()) {
    // Highest height first; ties broken by original program order for
    // determinism.
    auto Best = std::max_element(
        Ready.begin(), Ready.end(), [&](unsigned A, unsigned B) {
          return Height[A] < Height[B] || (Height[A] == Height[B] && A > B);
        });
    unsigned U = *Best;
    Ready.erase(Best);

    int Earliest = 0;
    for (unsigned EIdx : G.preds(U)) {
      const DepEdge &E = G.edges()[EIdx];
      if (E.Omega != 0)
        continue;
      Earliest = std::max(Earliest, Sched.startOf(E.Src) + E.Delay);
    }
    int T = Earliest;
    while (!RT.canPlace(G.unit(U), T))
      ++T;
    RT.place(G.unit(U), T);
    Sched.setStart(U, T);
    ++Placed;

    for (unsigned EIdx : G.succs(U)) {
      const DepEdge &E = G.edges()[EIdx];
      if (E.Omega != 0)
        continue;
      if (--PredsLeft[E.Dst] == 0)
        Ready.push_back(E.Dst);
    }
  }
  assert(Placed == N && "list scheduling must place every unit");
  return Sched;
}
