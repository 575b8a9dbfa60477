//===- DepGraph.cpp - Dependence graph with (d, p) edges --------------------===//
//
// Part of warp-swp. See DepGraph.h.
//
//===----------------------------------------------------------------------===//

#include "swp/DDG/DepGraph.h"

#include <algorithm>
#include <cassert>

using namespace swp;

void DepGraph::addEdge(DepEdge E) {
  assert(E.Src < numNodes() && E.Dst < numNodes() && "edge out of range");
  assert((E.Omega > 0 || E.Src != E.Dst) &&
         "a same-iteration self-dependence is unsatisfiable");
  unsigned Id = static_cast<unsigned>(Edges.size());
  Edges.push_back(E);
  Links.push_back(None);
  Links.push_back(None);
  NodeLinks &S = Nodes[E.Src];
  if (S.LastSucc == None)
    S.FirstSucc = Id;
  else
    Links[2 * static_cast<size_t>(S.LastSucc)] = Id;
  S.LastSucc = Id;
  NodeLinks &D = Nodes[E.Dst];
  if (D.LastPred == None)
    D.FirstPred = Id;
  else
    Links[2 * static_cast<size_t>(D.LastPred) + 1] = Id;
  D.LastPred = Id;
}

SCCList DepGraph::sccs() const {
  // Iterative Tarjan (explicit stack; loop bodies can be large).
  // Components come out in reverse topological order, so they are written
  // into the flat member array from its back.
  const unsigned N = numNodes();
  struct NodeState {
    unsigned Index = None;
    unsigned LowLink = 0;
    bool OnStack = false;
  };
  struct Frame {
    unsigned Node;
    unsigned NextEdge; ///< None once the node's successors are exhausted.
    bool Entered;
  };
  std::vector<NodeState> State(N);
  std::vector<unsigned> Stack;
  std::vector<Frame> CallStack;
  Stack.reserve(N);
  CallStack.reserve(N);
  SCCList Out;
  Out.Members.resize(N);
  Out.Begin.clear();
  Out.Begin.reserve(N + 1);
  unsigned NextIndex = 0;
  unsigned Fill = N; ///< Members[Fill..N) hold finished components.
  for (unsigned Root = 0; Root != N; ++Root) {
    if (State[Root].Index != None)
      continue;
    CallStack.push_back({Root, Nodes[Root].FirstSucc, false});
    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      unsigned V = F.Node;
      if (!F.Entered) {
        F.Entered = true;
        State[V].Index = State[V].LowLink = NextIndex++;
        Stack.push_back(V);
        State[V].OnStack = true;
      }
      bool Descended = false;
      while (F.NextEdge != None) {
        unsigned W = Edges[F.NextEdge].Dst;
        F.NextEdge = Links[2 * static_cast<size_t>(F.NextEdge)];
        if (State[W].Index == None) {
          CallStack.push_back({W, Nodes[W].FirstSucc, false});
          Descended = true;
          break;
        }
        if (State[W].OnStack)
          State[V].LowLink = std::min(State[V].LowLink, State[W].Index);
      }
      if (Descended)
        continue;
      if (State[V].LowLink == State[V].Index) {
        // Pop V's component; its members keep the pop order.
        size_t Size = Stack.size() -
                      (std::find(Stack.rbegin(), Stack.rend(), V).base() -
                       Stack.begin() - 1);
        Fill -= static_cast<unsigned>(Size);
        for (size_t I = 0; I != Size; ++I) {
          unsigned W = Stack.back();
          Stack.pop_back();
          State[W].OnStack = false;
          Out.Members[Fill + I] = W;
        }
        Out.Begin.push_back(Fill);
      }
      CallStack.pop_back();
      if (!CallStack.empty()) {
        unsigned Parent = CallStack.back().Node;
        State[Parent].LowLink =
            std::min(State[Parent].LowLink, State[V].LowLink);
      }
    }
  }
  assert(Fill == 0 && "every node lands in one component");
  std::reverse(Out.Begin.begin(), Out.Begin.end());
  Out.Begin.push_back(N);
  return Out;
}

std::vector<std::vector<unsigned>>
DepGraph::stronglyConnectedComponents() const {
  SCCList L = sccs();
  std::vector<std::vector<unsigned>> Out;
  Out.reserve(L.size());
  for (unsigned C = 0; C != L.size(); ++C)
    Out.emplace_back(L[C].begin(), L[C].end());
  return Out;
}

std::vector<uint64_t>
DepGraph::totalResourceUse(const MachineDescription &MD) const {
  std::vector<uint64_t> Use(MD.numResources(), 0);
  for (const ScheduleUnit &U : *Units)
    for (const ResourceUse &R : U.reservation())
      Use[R.ResId] += R.Units;
  return Use;
}
