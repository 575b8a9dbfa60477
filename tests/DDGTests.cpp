//===- DDGTests.cpp - Unit tests for dependence analysis ---------------------===//
//
// Part of warp-swp.
//
//===----------------------------------------------------------------------===//

#include "swp/DDG/Closure.h"
#include "swp/DDG/DDGBuilder.h"
#include "swp/DDG/MII.h"

#include "swp/IR/IRBuilder.h"
#include "swp/Support/RNG.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>

using namespace swp;

namespace {

/// Finds an edge Src->Dst of the given kind; returns nullptr if absent.
const DepEdge *findEdge(const DepGraph &G, unsigned Src, unsigned Dst,
                        DepKind Kind) {
  for (const DepEdge &E : G.edges())
    if (E.Src == Src && E.Dst == Dst && E.Kind == Kind)
      return &E;
  return nullptr;
}

/// Builds the dependence graph of \p Loop's body, assuming a single loop
/// with a straight-line body.
DepGraph graphOfSingleLoop(const Program &, const ForStmt *Loop,
                           const MachineDescription &MD,
                           std::set<unsigned> Expanded = {}) {
  DDGBuildOptions Opts;
  Opts.CurrentLoopId = Loop->LoopId;
  Opts.ExpandedRegs = std::move(Expanded);
  return buildLoopDepGraph(simpleUnitsFromBody(Loop->Body, MD), MD, Opts);
}

} // namespace

TEST(DDGBuilder, VectorAddChain) {
  // Section 2's example: Read; Add; Write on the toy machine.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(0, 63);
  VReg X = B.fload(A, B.ix(L));
  B.fstore(A, B.ix(L), B.fadd(X, K));
  B.endFor();

  MachineDescription MD = MachineDescription::toyCell();
  DepGraph G = graphOfSingleLoop(P, L, MD);
  ASSERT_EQ(G.numNodes(), 3u);

  const DepEdge *LoadToAdd = findEdge(G, 0, 1, DepKind::Flow);
  ASSERT_NE(LoadToAdd, nullptr);
  EXPECT_EQ(LoadToAdd->Delay, 1); // Read result available next cycle.
  EXPECT_EQ(LoadToAdd->Omega, 0u);

  const DepEdge *AddToStore = findEdge(G, 1, 2, DepKind::Flow);
  ASSERT_NE(AddToStore, nullptr);
  EXPECT_EQ(AddToStore->Delay, 2); // One-stage pipelined adder.

  // a[i] load then a[i] store: same-iteration memory anti dependence.
  const DepEdge *Mem = findEdge(G, 0, 2, DepKind::Mem);
  ASSERT_NE(Mem, nullptr);
  EXPECT_EQ(Mem->Omega, 0u);
  EXPECT_EQ(Mem->Delay, 0); // Load samples at issue; same cycle is legal.

  // No dependence cycles: iterations are independent, MII = 1.
  EXPECT_EQ(recMII(G), 1u);
  EXPECT_EQ(resMII(G, MD), 1u);
  EXPECT_EQ(minimumII(G, MD), 1u);
}

TEST(DDGBuilder, AccumulatorSelfFlow) {
  Program P;
  IRBuilder B(P);
  unsigned X = P.createArray("x", RegClass::Float, 64);
  VReg Acc = P.createVReg(RegClass::Float, "acc");
  B.assignUn(Acc, Opcode::FMov, B.fconst(0.0));
  ForStmt *L = B.beginForImm(0, 63);
  VReg V = B.fload(X, B.ix(L));
  B.assign(Acc, Opcode::FAdd, Acc, V);
  B.endFor();

  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = graphOfSingleLoop(P, L, MD);
  ASSERT_EQ(G.numNodes(), 2u);
  // acc := acc + v reads its own previous write: self flow with omega 1 and
  // the adder's full 7-cycle latency.
  const DepEdge *Self = findEdge(G, 1, 1, DepKind::Flow);
  ASSERT_NE(Self, nullptr);
  EXPECT_EQ(Self->Omega, 1u);
  EXPECT_EQ(Self->Delay, 7);
  // The recurrence bounds the initiation interval at the add latency.
  EXPECT_EQ(recMII(G), 7u);
}

TEST(DDGBuilder, FirstOrderRecurrenceThroughMemory) {
  // a[i] = a[i-1]*b + c.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 128);
  VReg Cb = P.createVReg(RegClass::Float, "b", /*LiveIn=*/true);
  VReg Cc = P.createVReg(RegClass::Float, "c", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(1, 100);
  VReg Prev = B.fload(A, B.ix(L, 1, -1));
  B.fstore(A, B.ix(L), B.fadd(B.fmul(Prev, Cb), Cc));
  B.endFor();

  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = graphOfSingleLoop(P, L, MD);
  ASSERT_EQ(G.numNodes(), 4u); // load, mul, add, store
  // Store of iteration i feeds the load of iteration i+1.
  const DepEdge *Carried = findEdge(G, 3, 0, DepKind::Mem);
  ASSERT_NE(Carried, nullptr);
  EXPECT_EQ(Carried->Omega, 1u);
  EXPECT_EQ(Carried->Delay, 1);
  // Cycle: load(3) -> mul(7) -> add(7) -> store -> load: 3+7+7+1 = 18.
  EXPECT_EQ(recMII(G), 18u);

  auto SCCs = G.stronglyConnectedComponents();
  unsigned NonTrivial = 0;
  for (const auto &C : SCCs)
    if (C.size() > 1)
      ++NonTrivial;
  EXPECT_EQ(NonTrivial, 1u);
  EXPECT_EQ(SCCs.size(), 1u) << "all three nodes share the cycle";
}

TEST(DDGBuilder, DistanceTwoCarriedDependence) {
  // a[i] = a[i-2] + k: omega must be the exact distance 2.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 128);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(2, 100);
  B.fstore(A, B.ix(L), B.fadd(B.fload(A, B.ix(L, 1, -2)), K));
  B.endFor();

  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = graphOfSingleLoop(P, L, MD);
  // Units: 0 = load, 1 = add, 2 = store; the carried edge is store -> load.
  const DepEdge *Carried = findEdge(G, 2, 0, DepKind::Mem);
  ASSERT_NE(Carried, nullptr);
  EXPECT_EQ(Carried->Omega, 2u);
  // d(c) = 3 + 7 + 1 = 11 over p(c) = 2: RecMII = ceil(11/2) = 6.
  EXPECT_EQ(recMII(G), 6u);
}

TEST(DDGBuilder, IndependentColumnsNoMemDep) {
  // a[i] and b[i]: different arrays never alias.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  unsigned Bb = P.createArray("b", RegClass::Float, 64);
  ForStmt *L = B.beginForImm(0, 63);
  B.fstore(Bb, B.ix(L), B.fload(A, B.ix(L)));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = graphOfSingleLoop(P, L, MD);
  for (const DepEdge &E : G.edges())
    EXPECT_NE(E.Kind, DepKind::Mem);
}

TEST(DDGBuilder, NonIntegralDistanceNoDep) {
  // a[2i] store vs a[2i+1] load never collide (distance 1/2).
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 256);
  ForStmt *L = B.beginForImm(0, 100);
  VReg V = B.fload(A, B.ix(L, 2, 1));
  B.fstore(A, B.ix(L, 2), V);
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = graphOfSingleLoop(P, L, MD);
  for (const DepEdge &E : G.edges())
    EXPECT_NE(E.Kind, DepKind::Mem);
}

TEST(DDGBuilder, DynamicSubscriptIsConservative) {
  // hist[idx[i]] += 1: store address unanalyzable -> all-distance edges.
  Program P;
  IRBuilder B(P);
  unsigned Idx = P.createArray("idx", RegClass::Int, 64);
  unsigned Hist = P.createArray("hist", RegClass::Float, 16);
  VReg One = B.fconst(1.0);
  ForStmt *L = B.beginForImm(0, 63);
  VReg Bin = B.iload(Idx, B.ix(L));
  AffineExpr HistIx;
  HistIx.Addend = Bin;
  VReg Old = B.fload(Hist, HistIx);
  B.fstore(Hist, HistIx, B.fadd(Old, One));
  B.endFor();

  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = graphOfSingleLoop(P, L, MD);
  // load(hist) node 1, store(hist) node 3: forward omega-0 edge plus a
  // backward omega-1 edge serializing iterations.
  EXPECT_NE(findEdge(G, 1, 3, DepKind::Mem), nullptr);
  const DepEdge *Back = findEdge(G, 3, 1, DepKind::Mem);
  ASSERT_NE(Back, nullptr);
  EXPECT_EQ(Back->Omega, 1u);
  EXPECT_GT(recMII(G), 1u);
}

TEST(DDGBuilder, ModuloVariableExpansionDropsAntiAndOutput) {
  // t is redefined every iteration; without expansion the loop carries
  // anti/output edges on t, with expansion only flow remains.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 64);
  unsigned Bb = P.createArray("b", RegClass::Float, 64);
  VReg T = P.createVReg(RegClass::Float, "t");
  ForStmt *L = B.beginForImm(0, 63);
  VReg Loaded = B.fload(A, B.ix(L));
  B.assignUn(T, Opcode::FMov, Loaded);
  B.fstore(Bb, B.ix(L), T);
  B.endFor();

  MachineDescription MD = MachineDescription::warpCell();
  DepGraph Plain = graphOfSingleLoop(P, L, MD);
  bool HasCarriedAntiOrOutput = false;
  for (const DepEdge &E : Plain.edges())
    if (E.Omega > 0 && (E.Kind == DepKind::Anti || E.Kind == DepKind::Output))
      HasCarriedAntiOrOutput = true;
  EXPECT_TRUE(HasCarriedAntiOrOutput);

  DepGraph Expanded = graphOfSingleLoop(P, L, MD, {T.Id, Loaded.Id});
  for (const DepEdge &E : Expanded.edges()) {
    if (E.Omega > 0) {
      EXPECT_FALSE(E.Kind == DepKind::Anti || E.Kind == DepKind::Output)
          << "expanded register must not carry anti/output dependences";
    }
  }
}

TEST(DDGBuilder, QueueOrdering) {
  Program P;
  IRBuilder B(P);
  ForStmt *L = B.beginForImm(0, 9);
  (void)L;
  VReg V1 = B.recv(0);
  VReg V2 = B.recv(0);
  B.send(0, B.fadd(V1, V2));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = graphOfSingleLoop(P, L, MD);
  // recv0 -> recv1 in-iteration, recv1 -> recv0 across iterations.
  EXPECT_NE(findEdge(G, 0, 1, DepKind::Queue), nullptr);
  const DepEdge *Wrap = findEdge(G, 1, 0, DepKind::Queue);
  ASSERT_NE(Wrap, nullptr);
  EXPECT_EQ(Wrap->Omega, 1u);
}

TEST(SCC, CondensationIsTopological) {
  // Two coupled recurrences feeding a tail computation.
  Program P;
  IRBuilder B(P);
  unsigned A = P.createArray("a", RegClass::Float, 256);
  unsigned Bb = P.createArray("b", RegClass::Float, 256);
  VReg K = P.createVReg(RegClass::Float, "k", /*LiveIn=*/true);
  ForStmt *L = B.beginForImm(1, 200);
  VReg Pa = B.fload(A, B.ix(L, 1, -1));
  B.fstore(A, B.ix(L), B.fadd(Pa, K));
  VReg Va = B.fload(A, B.ix(L));
  B.fstore(Bb, B.ix(L), B.fmul(Va, K));
  B.endFor();
  MachineDescription MD = MachineDescription::warpCell();
  DepGraph G = graphOfSingleLoop(P, L, MD);
  auto SCCs = G.stronglyConnectedComponents();
  // Position of each node's component.
  std::vector<unsigned> CompOf(G.numNodes());
  for (unsigned C = 0; C != SCCs.size(); ++C)
    for (unsigned N : SCCs[C])
      CompOf[N] = C;
  for (const DepEdge &E : G.edges()) {
    if (CompOf[E.Src] != CompOf[E.Dst]) {
      EXPECT_LT(CompOf[E.Src], CompOf[E.Dst])
          << "condensation edges must go forward";
    }
  }
}

//===----------------------------------------------------------------------===//
// Symbolic closure.
//===----------------------------------------------------------------------===//

TEST(Closure, PathSetDomination) {
  PathSet S;
  S.insert({10, 0}, /*SMin=*/3);
  S.insert({4, 0}, 3); // dominated by (10,0)
  EXPECT_EQ(S.pairs().size(), 1u);
  S.insert({13, 1}, 3); // 13 - 3s vs 10: dominated once s >= 1... at s=3:
                        // 13-3=10 == 10, and larger s worse: dominated.
  EXPECT_EQ(S.pairs().size(), 1u);
  S.insert({14, 1}, 3); // at s=3 gives 11 > 10: kept.
  EXPECT_EQ(S.pairs().size(), 2u);
  EXPECT_EQ(S.evaluate(3), 11);
  EXPECT_EQ(S.evaluate(5), 10);
}

namespace {

/// Numeric all-pairs longest path over one SCC at a concrete s
/// (Floyd-Warshall; valid when s admits no positive cycle).
std::vector<std::vector<int64_t>>
numericLongest(const DepGraph &G, const std::vector<unsigned> &Nodes,
               int64_t S) {
  constexpr int64_t NegInf = std::numeric_limits<int64_t>::min() / 4;
  unsigned N = Nodes.size();
  std::vector<int> Local(G.numNodes(), -1);
  for (unsigned I = 0; I != N; ++I)
    Local[Nodes[I]] = static_cast<int>(I);
  std::vector<std::vector<int64_t>> D(N, std::vector<int64_t>(N, NegInf));
  for (unsigned I = 0; I != N; ++I)
    for (unsigned EIdx : G.succs(Nodes[I])) {
      const DepEdge &E = G.edges()[EIdx];
      if (Local[E.Dst] < 0)
        continue;
      int64_t W = E.Delay - S * static_cast<int64_t>(E.Omega);
      D[I][Local[E.Dst]] = std::max(D[I][Local[E.Dst]], W);
    }
  for (unsigned K = 0; K != N; ++K)
    for (unsigned I = 0; I != N; ++I)
      for (unsigned J = 0; J != N; ++J)
        if (D[I][K] > NegInf && D[K][J] > NegInf)
          D[I][J] = std::max(D[I][J], D[I][K] + D[K][J]);
  return D;
}

/// Random legal dependence graph: omega-0 edges only go forward (so every
/// cycle has omega >= 1 and the graph is schedulable).
DepGraph randomGraph(RNG &R, unsigned N, const MachineDescription &MD) {
  std::vector<ScheduleUnit> Units;
  for (unsigned I = 0; I != N; ++I) {
    Operation Op;
    Op.Opc = Opcode::Nop;
    Units.push_back(ScheduleUnit::makeSimple(Op, MD));
  }
  DepGraph G(std::move(Units));
  unsigned NumEdges = N + R.uniform(0, 2 * N);
  for (unsigned E = 0; E != NumEdges; ++E) {
    unsigned A = R.uniform(0, N - 1);
    unsigned B = R.uniform(0, N - 1);
    if (R.chance(0.5) && A != B) {
      if (A > B)
        std::swap(A, B);
      G.addEdge({A, B, static_cast<int>(R.uniform(0, 6)), 0, DepKind::Flow});
    } else {
      G.addEdge({A, B, static_cast<int>(R.uniform(-2, 8)),
                 static_cast<unsigned>(R.uniform(1, 3)), DepKind::Mem});
    }
  }
  return G;
}

} // namespace

class ClosureProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClosureProperty, MatchesNumericLongestPaths) {
  RNG R(1000 + GetParam());
  MachineDescription MD = MachineDescription::warpCell();
  unsigned N = static_cast<unsigned>(R.uniform(2, 9));
  DepGraph G = randomGraph(R, N, MD);
  unsigned Rec = recMII(G);

  // Brute-force check of recMII: the smallest s admitting no positive
  // cycle, scanning linearly.
  auto HasPosCycle = [&](int64_t S) {
    auto SCCs = G.stronglyConnectedComponents();
    for (const auto &C : SCCs) {
      auto D = numericLongest(G, C, S);
      for (unsigned I = 0; I != C.size(); ++I)
        if (D[I][I] > 0)
          return true;
    }
    return false;
  };
  EXPECT_FALSE(HasPosCycle(Rec));
  if (Rec > 1) {
    EXPECT_TRUE(HasPosCycle(Rec - 1));
  }

  for (const auto &C : G.stronglyConnectedComponents()) {
    SCCClosure Cl(G, C, Rec);
    for (int64_t S = Rec; S != Rec + 4; ++S) {
      auto D = numericLongest(G, C, S);
      for (unsigned I = 0; I != C.size(); ++I)
        for (unsigned J = 0; J != C.size(); ++J) {
          int64_t Sym = Cl.distance(C[I], C[J], S);
          int64_t Num = D[I][J];
          if (Num <= std::numeric_limits<int64_t>::min() / 4)
            EXPECT_EQ(Sym, std::numeric_limits<int64_t>::min());
          else
            EXPECT_EQ(Sym, Num) << "pair " << C[I] << "->" << C[J] << " at s="
                                << S;
        }
    }
    EXPECT_LE(Cl.criticalCycleBound(), Rec);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ClosureProperty,
                         ::testing::Range(0, 25));

TEST(Closure, PathSetInsertKeepsParetoMinimalSet) {
  // Property: after any insertion sequence the set is Pareto-minimal (no
  // retained pair dominates another) yet still evaluates to the maximum
  // over everything ever inserted — i.e. pruning never loses the frontier.
  for (int Seed = 0; Seed != 50; ++Seed) {
    RNG R(4200 + Seed);
    int64_t SMin = R.uniform(1, 12);
    PathSet Set;
    std::vector<PathPair> Inserted;
    for (int I = 0; I != 30; ++I) {
      PathPair PP{R.uniform(-25, 60),
                  static_cast<uint32_t>(R.uniform(0, 5))};
      Set.insert(PP, SMin);
      Inserted.push_back(PP);

      const std::vector<PathPair> &Kept = Set.pairs();
      for (size_t A = 0; A != Kept.size(); ++A) {
        for (size_t B = 0; B != Kept.size(); ++B) {
          if (A != B) {
            EXPECT_FALSE(dominates(Kept[A], Kept[B], SMin))
                << "seed " << Seed << ": (" << Kept[A].D << "," << Kept[A].P
                << ") dominates (" << Kept[B].D << "," << Kept[B].P
                << ") at SMin=" << SMin;
          }
        }
      }

      for (int64_t S : {SMin, SMin + 1, SMin + 7, SMin + 1000}) {
        int64_t Want = std::numeric_limits<int64_t>::min();
        for (const PathPair &Q : Inserted)
          Want = std::max(Want, Q.D - S * static_cast<int64_t>(Q.P));
        EXPECT_EQ(Set.evaluate(S), Want) << "seed " << Seed << " s=" << S;
      }
    }
  }
}

namespace {

/// A component-local edge for the brute-force path enumerator.
struct LocalEdge {
  unsigned Src, Dst;
  int64_t D;
  uint32_t P;
};

/// Enumerates every simple path From -> To (From == To enumerates simple
/// cycles: only the endpoint repeats) and returns each path's symbolic
/// (sum of delays, sum of omegas). Exponential, fine for <= 6 nodes.
std::vector<PathPair> simplePaths(const std::vector<LocalEdge> &Edges,
                                  unsigned N, unsigned From, unsigned To) {
  std::vector<PathPair> Out;
  std::vector<char> Visited(N, 0);
  Visited[From] = 1;
  std::function<void(unsigned, int64_t, uint32_t)> Walk =
      [&](unsigned At, int64_t D, uint32_t P) {
        for (const LocalEdge &E : Edges) {
          if (E.Src != At)
            continue;
          if (E.Dst == To)
            Out.push_back({D + E.D, P + E.P}); // Path ends here.
          if (E.Dst != To && !Visited[E.Dst]) {
            Visited[E.Dst] = 1;
            Walk(E.Dst, D + E.D, P + E.P);
            Visited[E.Dst] = 0;
          }
        }
      };
  Walk(From, 0, 0);
  return Out;
}

} // namespace

TEST(Closure, MatchesBruteForceSimplePathEnumeration) {
  // At any s >= RecMII every cycle has non-positive weight, so the longest
  // path between two nodes is attained on a simple path (a non-simple path
  // is a simple path plus cycles). The symbolic closure must therefore
  // agree with exhaustive simple-path enumeration -- including on the
  // diagonal, where the "paths" are the simple cycles through the node.
  for (int Seed = 0; Seed != 30; ++Seed) {
    RNG R(7700 + Seed);
    MachineDescription MD = MachineDescription::warpCell();
    unsigned N = static_cast<unsigned>(R.uniform(2, 6));
    DepGraph G = randomGraph(R, N, MD);
    int64_t SMin = recMII(G);

    for (const std::vector<unsigned> &C : G.stronglyConnectedComponents()) {
      std::vector<int> Local(G.numNodes(), -1);
      for (unsigned I = 0; I != C.size(); ++I)
        Local[C[I]] = static_cast<int>(I);
      std::vector<LocalEdge> Edges;
      for (unsigned Node : C)
        for (unsigned EIdx : G.succs(Node)) {
          const DepEdge &E = G.edges()[EIdx];
          if (Local[E.Dst] >= 0)
            Edges.push_back({static_cast<unsigned>(Local[E.Src]),
                             static_cast<unsigned>(Local[E.Dst]), E.Delay,
                             E.Omega});
        }

      SCCClosure Cl(G, C, SMin);
      for (unsigned I = 0; I != C.size(); ++I)
        for (unsigned J = 0; J != C.size(); ++J) {
          std::vector<PathPair> Paths =
              simplePaths(Edges, static_cast<unsigned>(C.size()), I, J);
          for (int64_t S = SMin; S != SMin + 4; ++S) {
            int64_t Brute = std::numeric_limits<int64_t>::min();
            for (const PathPair &PP : Paths)
              Brute =
                  std::max(Brute, PP.D - S * static_cast<int64_t>(PP.P));
            EXPECT_EQ(Cl.distance(C[I], C[J], S), Brute)
                << "seed " << Seed << " pair " << C[I] << "->" << C[J]
                << " at s=" << S;
          }
        }
    }
  }
}
