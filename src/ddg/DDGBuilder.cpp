//===- DDGBuilder.cpp - Dependence analysis ---------------------------------===//
//
// Part of warp-swp. See DDGBuilder.h.
//
//===----------------------------------------------------------------------===//

#include "swp/DDG/DDGBuilder.h"

#include <algorithm>

using namespace swp;

namespace {

/// One register or queue access; Seq is its position in program order.
struct Access {
  uint64_t Key; ///< Register id, or queue channel and direction.
  unsigned Seq;
  unsigned Unit;
  int Offset;
  bool IsWrite;
  unsigned Latency; // Writes only.

  bool operator<(const Access &O) const {
    return Key != O.Key ? Key < O.Key : Seq < O.Seq;
  }
};

/// One memory access in program order.
struct MemUse {
  unsigned Unit;
  int Offset;
  bool IsStore;
  const Operation *Op;
};

/// The dense form of an id set: \p Mask, plus the members of \p Set
/// (copied into \p Own) when the caller supplied the set form.
std::span<const uint8_t> denseIds(const std::set<unsigned> &Set,
                                  std::span<const uint8_t> Mask,
                                  std::vector<uint8_t> &Own) {
  if (Set.empty())
    return Mask;
  Own.assign(Mask.begin(), Mask.end());
  if (Own.size() <= *Set.rbegin())
    Own.resize(*Set.rbegin() + 1, 0);
  for (unsigned Id : Set)
    Own[Id] = 1;
  return Own;
}

bool contains(std::span<const uint8_t> Mask, unsigned Id) {
  return Id < Mask.size() && Mask[Id] != 0;
}

/// One past the last access of the group (equal Key) starting at \p Begin.
size_t groupEnd(const std::vector<Access> &Accs, size_t Begin) {
  size_t End = Begin;
  while (End != Accs.size() && Accs[End].Key == Accs[Begin].Key)
    ++End;
  return End;
}

class Builder {
public:
  Builder(std::shared_ptr<const std::vector<ScheduleUnit>> Units,
          const DDGBuildOptions &Opts)
      : G(std::move(Units)), Opts(Opts),
        Expanded(denseIds(Opts.ExpandedRegs, Opts.ExpandedMask,
                          OwnExpanded)),
        NoAlias(denseIds(Opts.NoAliasArrays, Opts.NoAliasMask, OwnNoAlias)) {}

  DepGraph run() {
    collectAccesses();
    buildRegisterDeps();
    buildMemoryDeps();
    buildQueueDeps();
    G.reserveEdges(Edges.size());
    for (const DepEdge &E : Edges)
      G.addEdge(E);
    return std::move(G);
  }

private:
  void collectAccesses() {
    size_t NumRegAccs = 0, NumMem = 0, NumQueue = 0;
    for (unsigned I = 0; I != G.numNodes(); ++I) {
      const ScheduleUnit &U = G.unit(I);
      NumRegAccs += U.reads().size() + U.writes().size();
      NumMem += U.memAccesses().size();
      NumQueue += U.queueAccesses().size();
    }
    RegAccs.reserve(NumRegAccs);
    MemUses.reserve(NumMem);
    QueueAccs.reserve(NumQueue);
    for (unsigned I = 0; I != G.numNodes(); ++I) {
      const ScheduleUnit &U = G.unit(I);
      for (const ScheduleUnit::RegRead &R : U.reads())
        RegAccs.push_back({R.R.Id, static_cast<unsigned>(RegAccs.size()), I,
                           R.Offset, false, 0});
      for (const ScheduleUnit::RegWrite &W : U.writes())
        RegAccs.push_back({W.R.Id, static_cast<unsigned>(RegAccs.size()), I,
                           W.Offset, true, W.Latency});
      for (const ScheduleUnit::MemAccess &M : U.memAccesses())
        MemUses.push_back({I, M.Offset, M.IsStore, M.Op});
      for (const ScheduleUnit::QueueAccess &Q : U.queueAccesses())
        QueueAccs.push_back({queueKey(Q.Queue, Q.IsSend),
                             static_cast<unsigned>(QueueAccs.size()), I,
                             Q.Offset, false, 0});
    }
    // Group by register (queue), ascending, keeping program order within
    // each group.
    std::sort(RegAccs.begin(), RegAccs.end());
    std::sort(QueueAccs.begin(), QueueAccs.end());
    size_t MaxGroup = 0;
    for (size_t Begin = 0, End; Begin != RegAccs.size(); Begin = End) {
      End = groupEnd(RegAccs, Begin);
      MaxGroup = std::max(MaxGroup, End - Begin);
    }
    Writes.reserve(MaxGroup);
    Reads.reserve(MaxGroup);
  }

  /// Orders queue sequences by channel (signed), then receives before
  /// sends.
  static uint64_t queueKey(int Queue, bool IsSend) {
    uint64_t Biased = static_cast<uint32_t>(Queue) ^ 0x80000000u;
    return Biased << 1 | static_cast<uint64_t>(IsSend);
  }

  void addEdge(unsigned Src, unsigned Dst, int Delay, unsigned Omega,
               DepKind Kind) {
    // Same-iteration self edges are internal to a reduced unit and already
    // honored by its internal schedule.
    if (Src == Dst && Omega == 0)
      return;
    Edges.push_back({Src, Dst, Delay, Omega, Kind});
  }

  void buildRegisterDeps() {
    for (size_t Begin = 0, End; Begin != RegAccs.size(); Begin = End) {
      End = groupEnd(RegAccs, Begin);
      unsigned RegId = static_cast<unsigned>(RegAccs[Begin].Key);
      bool IsExpanded = contains(Expanded, RegId);
      // Partition while keeping program order (unit index order).
      Writes.clear();
      Reads.clear();
      for (size_t I = Begin; I != End; ++I)
        (RegAccs[I].IsWrite ? Writes : Reads).push_back(RegAccs[I]);
      if (Writes.empty())
        continue; // Loop-invariant: no constraints.

      // Writing units in ascending order, for nearest-write queries.
      // (Writes is already ordered by unit index.)
      for (const Access &Rd : Reads) {
        // Flow: latest writing unit strictly before the read.
        const Access *Last = nullptr;
        for (const Access &W : Writes) {
          if (W.Unit >= Rd.Unit)
            break;
          Last = &W;
        }
        if (Last) {
          unsigned LastUnit = Last->Unit;
          for (const Access &W : Writes)
            if (W.Unit == LastUnit)
              addEdge(W.Unit, Rd.Unit,
                      W.Offset + static_cast<int>(W.Latency) - Rd.Offset, 0,
                      DepKind::Flow);
        } else {
          // Read-before-write: the value comes from the previous
          // iteration's last write.
          unsigned LastUnit = Writes.back().Unit;
          for (const Access &W : Writes)
            if (W.Unit == LastUnit)
              addEdge(W.Unit, Rd.Unit,
                      W.Offset + static_cast<int>(W.Latency) - Rd.Offset, 1,
                      DepKind::Flow);
        }
        // Anti: the next writing unit must not commit before this read.
        const Access *Next = nullptr;
        for (const Access &W : Writes)
          if (W.Unit > Rd.Unit) {
            Next = &W;
            break;
          }
        if (Next) {
          unsigned NextUnit = Next->Unit;
          for (const Access &W : Writes)
            if (W.Unit == NextUnit)
              addEdge(Rd.Unit, W.Unit,
                      Rd.Offset - W.Offset - static_cast<int>(W.Latency) + 1,
                      0, DepKind::Anti);
        } else if (!IsExpanded) {
          unsigned FirstUnit = Writes.front().Unit;
          for (const Access &W : Writes)
            if (W.Unit == FirstUnit)
              addEdge(Rd.Unit, W.Unit,
                      Rd.Offset - W.Offset - static_cast<int>(W.Latency) + 1,
                      1, DepKind::Anti);
        }
      }

      // Output chains between consecutive writing units, with a wrap-around
      // edge ordering the last write before the next iteration's first.
      auto OutputDelay = [](const Access &A, const Access &B) {
        return A.Offset + static_cast<int>(A.Latency) - B.Offset -
               static_cast<int>(B.Latency) + 1;
      };
      for (size_t I = 0; I + 1 < Writes.size(); ++I) {
        if (Writes[I].Unit == Writes[I + 1].Unit)
          continue;
        addEdge(Writes[I].Unit, Writes[I + 1].Unit,
                OutputDelay(Writes[I], Writes[I + 1]), 0, DepKind::Output);
      }
      if (!IsExpanded)
        addEdge(Writes.back().Unit, Writes.front().Unit,
                OutputDelay(Writes.back(), Writes.front()), 1,
                DepKind::Output);
    }
  }

  /// Subscripts are comparable when neither has a dynamic addend and their
  /// terms over every loop other than the current one agree (those values
  /// are fixed while the current loop runs, so they cancel).
  static bool comparableSubscripts(const AffineExpr &A, const AffineExpr &B,
                                   unsigned LoopId) {
    if (A.hasAddend() || B.hasAddend())
      return false;
    for (const AffineExpr::Term &T : A.Terms)
      if (T.LoopId != LoopId && B.coefOf(T.LoopId) != T.Coef)
        return false;
    for (const AffineExpr::Term &T : B.Terms)
      if (T.LoopId != LoopId && A.coefOf(T.LoopId) != T.Coef)
        return false;
    return true;
  }

  /// Delay of a memory ordering edge between access \p A and \p B.
  static int memDelay(const MemUse &A, const MemUse &B) {
    if (A.IsStore && !B.IsStore)
      return A.Offset + 1 - B.Offset; // Store commits at end of cycle.
    if (!A.IsStore && B.IsStore)
      return A.Offset - B.Offset; // Load samples at issue; same cycle ok.
    return A.Offset + 1 - B.Offset; // Store/store strictly ordered.
  }

  void buildMemoryDeps() {
    for (size_t I = 0; I != MemUses.size(); ++I) {
      for (size_t J = I + 1; J != MemUses.size(); ++J) {
        const MemUse &A = MemUses[I]; // Earlier in program order.
        const MemUse &B = MemUses[J];
        if (!A.IsStore && !B.IsStore)
          continue;
        if (A.Op->Mem.ArrayId != B.Op->Mem.ArrayId)
          continue;
        const AffineExpr &IA = A.Op->Mem.Index;
        const AffineExpr &IB = B.Op->Mem.Index;
        bool NoAliasRef = contains(NoAlias, A.Op->Mem.ArrayId);
        if (!comparableSubscripts(IA, IB, Opts.CurrentLoopId)) {
          // Conservative: may conflict at any distance — unless the user
          // asserted iteration-disjointness with a no-alias directive.
          addEdge(A.Unit, B.Unit, memDelay(A, B), 0, DepKind::Mem);
          if (!NoAliasRef)
            addEdge(B.Unit, A.Unit, memDelay(B, A), 1, DepKind::Mem);
          continue;
        }
        int64_t CA = IA.coefOf(Opts.CurrentLoopId);
        int64_t CB = IB.coefOf(Opts.CurrentLoopId);
        if (CA != CB) {
          addEdge(A.Unit, B.Unit, memDelay(A, B), 0, DepKind::Mem);
          if (!NoAliasRef)
            addEdge(B.Unit, A.Unit, memDelay(B, A), 1, DepKind::Mem);
          continue;
        }
        if (CA == 0) {
          // Loop-invariant addresses: conflict iff the constants agree,
          // and then at every distance.
          if (IA.Const != IB.Const)
            continue;
          addEdge(A.Unit, B.Unit, memDelay(A, B), 0, DepKind::Mem);
          addEdge(B.Unit, A.Unit, memDelay(B, A), 1, DepKind::Mem);
          continue;
        }
        // A at iteration i and B at iteration i+K touch the same element
        // when K = (ConstA - ConstB) / C.
        int64_t Delta = IA.Const - IB.Const;
        if (Delta % CA != 0)
          continue;
        int64_t K = Delta / CA;
        if (K > 0)
          addEdge(A.Unit, B.Unit, memDelay(A, B), static_cast<unsigned>(K),
                  DepKind::Mem);
        else if (K < 0)
          addEdge(B.Unit, A.Unit, memDelay(B, A), static_cast<unsigned>(-K),
                  DepKind::Mem);
        else
          addEdge(A.Unit, B.Unit, memDelay(A, B), 0, DepKind::Mem);
      }
    }
  }

  void buildQueueDeps() {
    for (size_t Begin = 0, End; Begin != QueueAccs.size(); Begin = End) {
      End = groupEnd(QueueAccs, Begin);
      const Access *Seq = QueueAccs.data() + Begin;
      size_t Size = End - Begin;
      for (size_t I = 0; I + 1 < Size; ++I)
        if (Seq[I].Unit != Seq[I + 1].Unit)
          addEdge(Seq[I].Unit, Seq[I + 1].Unit,
                  Seq[I].Offset + 1 - Seq[I + 1].Offset, 0, DepKind::Queue);
      if (Size > 1 && Seq[Size - 1].Unit != Seq[0].Unit)
        addEdge(Seq[Size - 1].Unit, Seq[0].Unit,
                Seq[Size - 1].Offset + 1 - Seq[0].Offset, 1, DepKind::Queue);
    }
  }

  DepGraph G;
  const DDGBuildOptions &Opts;
  std::vector<uint8_t> OwnExpanded, OwnNoAlias;
  std::span<const uint8_t> Expanded, NoAlias;

  std::vector<Access> RegAccs;   ///< Sorted by (register, program order).
  std::vector<Access> QueueAccs; ///< Sorted by (channel, program order).
  std::vector<MemUse> MemUses;
  std::vector<Access> Writes, Reads; ///< One register's, reused.
  std::vector<DepEdge> Edges;        ///< In emission order.
};

} // namespace

DepGraph swp::buildLoopDepGraph(std::vector<ScheduleUnit> Units,
                                const MachineDescription &MD,
                                const DDGBuildOptions &Opts) {
  return buildLoopDepGraph(
      std::make_shared<const std::vector<ScheduleUnit>>(std::move(Units)), MD,
      Opts);
}

DepGraph
swp::buildLoopDepGraph(std::shared_ptr<const std::vector<ScheduleUnit>> Units,
                       const MachineDescription &,
                       const DDGBuildOptions &Opts) {
  return Builder(std::move(Units), Opts).run();
}

std::vector<ScheduleUnit>
swp::simpleUnitsFromBody(const StmtList &Body, const MachineDescription &MD) {
  std::vector<ScheduleUnit> Units;
  Units.reserve(Body.size());
  for (const StmtPtr &S : Body) {
    const auto *Op = dyn_cast<OpStmt>(S.get());
    assert(Op && "simpleUnitsFromBody requires a straight-line body");
    Units.push_back(ScheduleUnit::makeSimple(Op->Op, MD));
  }
  return Units;
}
