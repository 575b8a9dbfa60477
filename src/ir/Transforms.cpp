//===- Transforms.cpp - Scalar IR optimizations ---------------------------------===//
//
// Part of warp-swp. See Transforms.h.
//
//===----------------------------------------------------------------------===//

#include "swp/IR/Transforms.h"

#include "swp/IR/OpTraits.h"

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace swp;

namespace {

/// True if executing \p Opc has no effect beyond its register result.
/// (Recv pops the input channel, so it is not pure.)
bool isPureOp(Opcode Opc) {
  if (isStore(Opc) || Opc == Opcode::Send || Opc == Opcode::Recv)
    return false;
  return true;
}

/// Summary of one loop body for the hoister, keyed by dense id: per
/// register its def count and whether its first access in walk order is a
/// read, the arrays stored to, and the ids of the loops inside. Every
/// table is sized once per pass; collect() starts a new summary by bumping
/// the epoch, so an entry counts only when its stamp equals the epoch.
class SubtreeInfo {
public:
  explicit SubtreeInfo(const Program &P)
      : Regs(P.numVRegs()), StoredStamp(P.numArrays(), 0),
        LoopStamp(P.numLoops(), 0) {}

  /// Summarizes \p List, replacing the previous summary.
  void collect(const StmtList &List) {
    ++Epoch;
    walk(List);
  }

  unsigned defCount(unsigned Id) const {
    return Regs[Id].Stamp == Epoch ? Regs[Id].Defs : 0;
  }
  bool readBeforeWrite(unsigned Id) const {
    return Regs[Id].Stamp == Epoch && Regs[Id].ReadFirst;
  }
  bool storesTo(unsigned ArrayId) const {
    return StoredStamp[ArrayId] == Epoch;
  }
  bool containsLoop(unsigned LoopId) const {
    return LoopId < LoopStamp.size() && LoopStamp[LoopId] == Epoch;
  }

private:
  struct RegEntry {
    unsigned Stamp = 0;
    unsigned Defs = 0;
    bool ReadFirst = false;
  };

  void noteRead(unsigned Id) {
    RegEntry &E = Regs[Id];
    if (E.Stamp != Epoch)
      E = {Epoch, 0, true};
  }
  void noteDef(unsigned Id) {
    RegEntry &E = Regs[Id];
    if (E.Stamp != Epoch)
      E = {Epoch, 0, false};
    ++E.Defs;
  }

  void walk(const StmtList &List) {
    for (const StmtPtr &S : List) {
      if (const auto *Op = dyn_cast<OpStmt>(S.get())) {
        for (const VReg &R : Op->Op.Operands)
          noteRead(R.Id);
        if (Op->Op.Mem.isValid()) {
          if (Op->Op.Mem.Index.hasAddend())
            noteRead(Op->Op.Mem.Index.Addend.Id);
          if (isStore(Op->Op.Opc))
            StoredStamp[Op->Op.Mem.ArrayId] = Epoch;
        }
        if (Op->Op.Def.isValid())
          noteDef(Op->Op.Def.Id);
        continue;
      }
      if (const auto *If = dyn_cast<IfStmt>(S.get())) {
        noteRead(If->Cond.Id);
        walk(If->Then);
        walk(If->Else);
        continue;
      }
      const auto *For = cast<ForStmt>(S.get());
      if (!For->Lo.IsImm)
        noteRead(For->Lo.Reg.Id);
      if (!For->Hi.IsImm)
        noteRead(For->Hi.Reg.Id);
      LoopStamp[For->LoopId] = Epoch;
      noteDef(For->IndVar.Id);
      walk(For->Body);
    }
  }

  std::vector<RegEntry> Regs;
  std::vector<unsigned> StoredStamp;
  std::vector<unsigned> LoopStamp;
  unsigned Epoch = 0;
};

/// Stamps \p Stamp[v] = \p Epoch for every register v read anywhere in
/// \p List except inside the subtree \p Skip.
void markReadsOutside(const StmtList &List, const Stmt *Skip,
                      std::vector<unsigned> &Stamp, unsigned Epoch) {
  for (const StmtPtr &S : List) {
    if (S.get() == Skip)
      continue;
    if (const auto *Op = dyn_cast<OpStmt>(S.get())) {
      for (const VReg &R : Op->Op.Operands)
        Stamp[R.Id] = Epoch;
      if (Op->Op.Mem.isValid() && Op->Op.Mem.Index.hasAddend())
        Stamp[Op->Op.Mem.Index.Addend.Id] = Epoch;
      continue;
    }
    if (const auto *If = dyn_cast<IfStmt>(S.get())) {
      Stamp[If->Cond.Id] = Epoch;
      markReadsOutside(If->Then, Skip, Stamp, Epoch);
      markReadsOutside(If->Else, Skip, Stamp, Epoch);
      continue;
    }
    const auto *For = cast<ForStmt>(S.get());
    if (!For->Lo.IsImm)
      Stamp[For->Lo.Reg.Id] = Epoch;
    if (!For->Hi.IsImm)
      Stamp[For->Hi.Reg.Id] = Epoch;
    markReadsOutside(For->Body, Skip, Stamp, Epoch);
  }
}

//===----------------------------------------------------------------------===//
// Loop-invariant code motion.
//===----------------------------------------------------------------------===//

class Hoister {
public:
  explicit Hoister(Program &P)
      : P(P), Info(P), ReadAfterStamp(P.numVRegs(), 0) {}

  unsigned run() {
    bool Changed = true;
    while (Changed) {
      Changed = processList(P.Body);
    }
    return Hoisted;
  }

private:
  /// Processes loops in \p List; returns true if anything moved (so outer
  /// passes re-examine cascades like const -> product-of-consts).
  bool processList(StmtList &List) {
    bool Changed = false;
    for (size_t I = 0; I < List.size(); ++I) {
      if (auto *If = dyn_cast<IfStmt>(List[I].get())) {
        Changed |= processList(If->Then);
        Changed |= processList(If->Else);
        continue;
      }
      auto *For = dyn_cast<ForStmt>(List[I].get());
      if (!For)
        continue;
      Changed |= processList(For->Body); // Inner loops first.
      Changed |= hoistFrom(*For, List, I);
    }
    return Changed;
  }

  /// Moves eligible ops from \p For's body to before position \p Pos in
  /// \p Parent (advancing \p Pos past the insertions).
  bool hoistFrom(ForStmt &For, StmtList &Parent, size_t &Pos) {
    Info.collect(For.Body);

    std::optional<int64_t> Trip = For.staticTripCount();
    bool RunsAtLeastOnce = Trip && *Trip >= 1;
    ++ReadAfterEpoch;
    if (!RunsAtLeastOnce)
      markReadsOutside(P.Body, &For, ReadAfterStamp, ReadAfterEpoch);

    bool Changed = false;
    for (size_t I = 0; I < For.Body.size();) {
      auto *Op = dyn_cast<OpStmt>(For.Body[I].get());
      if (!Op || !isEligible(Op->Op, For, RunsAtLeastOnce)) {
        ++I;
        continue;
      }
      // Move the statement in front of the loop.
      StmtPtr Stmt = std::move(For.Body[I]);
      For.Body.erase(For.Body.begin() + I);
      Parent.insert(Parent.begin() + Pos, std::move(Stmt));
      ++Pos;
      ++Hoisted;
      Changed = true;
      // The body changed: recompute the summary.
      Info.collect(For.Body);
    }
    return Changed;
  }

  bool isEligible(const Operation &Op, const ForStmt &For,
                  bool RunsAtLeastOnce) const {
    if (!Op.Def.isValid() || !isPureOp(Op.Opc))
      return false;
    // The only definition in the loop, never read before it.
    if (Info.defCount(Op.Def.Id) != 1)
      return false;
    if (Info.readBeforeWrite(Op.Def.Id))
      return false;
    // Operands must come from outside the loop.
    for (const VReg &R : Op.Operands)
      if (Info.defCount(R.Id) != 0 || R == For.IndVar)
        return false;
    if (isLoad(Op.Opc)) {
      // Invariant address, no stores to the array, and the loop provably
      // executes (a speculated load must not fault).
      if (!RunsAtLeastOnce)
        return false;
      if (Info.storesTo(Op.Mem.ArrayId))
        return false;
      if (Op.Mem.Index.hasAddend() &&
          Info.defCount(Op.Mem.Index.Addend.Id) != 0)
        return false;
      for (const AffineExpr::Term &T : Op.Mem.Index.Terms)
        if (T.LoopId == For.LoopId || Info.containsLoop(T.LoopId))
          return false;
    } else if (Op.Mem.isValid()) {
      return false;
    }
    // Speculating past a zero-trip loop must not change post-loop state.
    if (!RunsAtLeastOnce && ReadAfterStamp[Op.Def.Id] == ReadAfterEpoch)
      return false;
    return true;
  }

  Program &P;
  SubtreeInfo Info;
  /// Registers read after the loop being processed (stamped per loop).
  std::vector<unsigned> ReadAfterStamp;
  unsigned ReadAfterEpoch = 0;
  unsigned Hoisted = 0;
};

//===----------------------------------------------------------------------===//
// Dead code elimination.
//===----------------------------------------------------------------------===//

class DeadCodeEliminator {
public:
  explicit DeadCodeEliminator(Program &P) : P(P) {}

  unsigned run() {
    bool Changed = true;
    while (Changed) {
      Live.assign(P.numVRegs(), 0);
      gatherReads(P.Body);
      Changed = sweep(P.Body);
    }
    return Removed;
  }

private:
  void gatherReads(const StmtList &List) {
    forEachStmt(List, [&](const Stmt &S) {
      if (const auto *Op = dyn_cast<OpStmt>(&S)) {
        for (const VReg &R : Op->Op.Operands)
          Live[R.Id] = 1;
        if (Op->Op.Mem.isValid() && Op->Op.Mem.Index.hasAddend())
          Live[Op->Op.Mem.Index.Addend.Id] = 1;
      } else if (const auto *If = dyn_cast<IfStmt>(&S)) {
        Live[If->Cond.Id] = 1;
      } else {
        const auto *For = cast<ForStmt>(&S);
        if (!For->Lo.IsImm)
          Live[For->Lo.Reg.Id] = 1;
        if (!For->Hi.IsImm)
          Live[For->Hi.Reg.Id] = 1;
      }
    });
  }

  bool sweep(StmtList &List) {
    bool Changed = false;
    for (size_t I = 0; I < List.size();) {
      Stmt *S = List[I].get();
      if (auto *Op = dyn_cast<OpStmt>(S)) {
        bool Dead = Op->Op.Def.isValid() && isPureOp(Op->Op.Opc) &&
                    !Live[Op->Op.Def.Id];
        if (Dead) {
          List.erase(List.begin() + I);
          ++Removed;
          Changed = true;
          continue;
        }
        ++I;
        continue;
      }
      if (auto *If = dyn_cast<IfStmt>(S)) {
        Changed |= sweep(If->Then);
        Changed |= sweep(If->Else);
        if (If->Then.empty() && If->Else.empty()) {
          List.erase(List.begin() + I);
          ++Removed;
          Changed = true;
          continue;
        }
        ++I;
        continue;
      }
      auto *For = cast<ForStmt>(S);
      Changed |= sweep(For->Body);
      // An empty loop with immediate bounds has no effect at all.
      if (For->Body.empty() && For->Lo.IsImm && For->Hi.IsImm) {
        List.erase(List.begin() + I);
        ++Removed;
        Changed = true;
        continue;
      }
      ++I;
    }
    return Changed;
  }

  Program &P;
  /// Registers read anywhere in the program, by id (one sweep round).
  std::vector<uint8_t> Live;
  unsigned Removed = 0;
};

//===----------------------------------------------------------------------===//
// Local value numbering.
//===----------------------------------------------------------------------===//

/// Available expressions of one straight-line list, in flat storage reused
/// across lists. Each distinct expression key gets a slot: its encoded
/// words (opcode, operands, immediates, memory reference) in one shared
/// pool, and the register currently holding its value, if any. A key
/// registered as available is also recorded against every register it
/// mentions (and against the array a load reads); redefining a register or
/// storing to an array makes every expression recorded against it
/// unavailable, and the record is dropped.
class ValueNumberer {
public:
  explicit ValueNumberer(Program &P) : P(P) {
    Regs.Head.assign(P.numVRegs(), None);
    Arrays.Head.assign(P.numArrays(), None);
    // Room for every op of the program in one list; longer keys or more
    // records still grow the pools.
    unsigned NumOps = countOps(P.Body);
    Words.reserve(NumOps * 8);
    Slots.reserve(NumOps);
    Uses.reserve(NumOps * 4);
    Regs.Touched.reserve(NumOps * 4);
    Arrays.Touched.reserve(NumOps);
  }

  unsigned run() {
    process(P.Body);
    return Rewritten;
  }

private:
  static constexpr unsigned None = ~0u;

  struct Slot {
    unsigned Begin, End; ///< Encoded key words in Words.
    uint64_t Hash;       ///< Over the words (FImm is compared separately).
    double FImm;
    unsigned Holder;     ///< Register holding the value; None = unavailable.
  };
  /// One entry of a register's or array's record list.
  struct Use {
    unsigned Slot;
    unsigned Next;
  };
  /// The head of each id's record list (None when empty), plus the ids
  /// whose list is nonempty, so flush() resets only those.
  struct IdHeads {
    std::vector<unsigned> Head;
    std::vector<unsigned> Touched;
  };

  /// Encodes \p Op's key into the tail of Words; returns its hash.
  uint64_t encode(const Operation &Op) {
    auto Put = [&](int64_t W) { Words.push_back(W); };
    Put(static_cast<int64_t>(Op.Opc));
    Put(static_cast<int64_t>(Op.Operands.size()));
    for (const VReg &R : Op.Operands)
      Put(R.Id);
    Put(Op.IImm);
    if (Op.Mem.isValid()) {
      Put(Op.Mem.ArrayId);
      Put(static_cast<int64_t>(Op.Mem.Index.Terms.size()));
      for (const AffineExpr::Term &T : Op.Mem.Index.Terms) {
        Put(T.LoopId);
        Put(T.Coef);
      }
      Put(Op.Mem.Index.Const);
      Put(Op.Mem.Index.hasAddend() ? Op.Mem.Index.Addend.Id : ~0u);
    } else {
      Put(~0u);
      Put(0);
      Put(0);
      Put(~0u);
    }
    uint64_t H = 0xcbf29ce484222325ULL;
    for (size_t I = KeyBegin; I != Words.size(); ++I)
      H = (H ^ static_cast<uint64_t>(Words[I])) * 0x100000001b3ULL;
    return H;
  }

  /// The slot whose key equals the one just encoded at KeyBegin, or None.
  unsigned findSlot(uint64_t Hash, double FImm) const {
    size_t Len = Words.size() - KeyBegin;
    for (unsigned I = 0; I != Slots.size(); ++I) {
      const Slot &S = Slots[I];
      // FImm compares by equivalence, as an ordered key would.
      if (S.Hash != Hash || S.End - S.Begin != Len || S.FImm < FImm ||
          FImm < S.FImm)
        continue;
      if (std::equal(Words.begin() + S.Begin, Words.begin() + S.End,
                     Words.begin() + KeyBegin))
        return I;
    }
    return None;
  }

  /// Records slot \p SlotId against \p Id's list in \p Heads.
  void record(IdHeads &Heads, unsigned Id, unsigned SlotId) {
    if (Heads.Head[Id] == None)
      Heads.Touched.push_back(Id);
    Uses.push_back({SlotId, Heads.Head[Id]});
    Heads.Head[Id] = static_cast<unsigned>(Uses.size() - 1);
  }

  /// Makes every expression recorded against \p Head[Id] unavailable and
  /// drops the record list.
  void invalidate(IdHeads &Heads, unsigned Id) {
    for (unsigned U = Heads.Head[Id]; U != None; U = Uses[U].Next)
      Slots[Uses[U].Slot].Holder = None;
    Heads.Head[Id] = None;
  }

  /// Forgets every available expression (entering or leaving a nested
  /// construct).
  void flush() {
    for (IdHeads *Heads : {&Regs, &Arrays}) {
      for (unsigned Id : Heads->Touched)
        Heads->Head[Id] = None;
      Heads->Touched.clear();
    }
    Slots.clear();
    Uses.clear();
    Words.clear();
  }

  void process(StmtList &List) {
    for (StmtPtr &S : List) {
      if (auto *If = dyn_cast<IfStmt>(S.get())) {
        // Conditional definitions poison availability; each branch starts
        // empty.
        flush();
        process(If->Then);
        flush();
        process(If->Else);
        flush();
        continue;
      }
      if (auto *For = dyn_cast<ForStmt>(S.get())) {
        flush();
        process(For->Body);
        flush();
        continue;
      }
      Operation &O = cast<OpStmt>(S.get())->Op;

      bool Registered = false;
      if (O.Def.isValid() && isPureOp(O.Opc)) {
        KeyBegin = Words.size();
        uint64_t Hash = encode(O);
        unsigned Found = findSlot(Hash, O.FImm);
        unsigned Holder = Found == None ? None : Slots[Found].Holder;
        if (Holder != None && Holder != O.Def.Id) {
          // Recomputation: turn it into a move from the first result.
          Words.resize(KeyBegin);
          Operation Mov;
          Mov.Opc = P.vregInfo(O.Def).RC == RegClass::Float ? Opcode::FMov
                                                            : Opcode::IMov;
          Mov.Def = O.Def;
          Mov.Operands = {VReg(Holder)};
          O = std::move(Mov);
          ++Rewritten;
        } else if (!readsOwnDef(O)) {
          // The redefinition of Def kills stale entries first, then the
          // fresh availability is registered (including against later
          // redefinitions of its own holder). An op reading its own def
          // (x = x + y) is never registered: its key names the old x.
          invalidate(Regs, O.Def.Id);
          unsigned SlotId = Found;
          if (SlotId == None) {
            SlotId = static_cast<unsigned>(Slots.size());
            Slots.push_back({static_cast<unsigned>(KeyBegin),
                             static_cast<unsigned>(Words.size()), Hash,
                             O.FImm, None});
          } else {
            Words.resize(KeyBegin);
          }
          Slots[SlotId].Holder = O.Def.Id;
          for (const VReg &R : O.Operands)
            record(Regs, R.Id, SlotId);
          if (O.Mem.isValid() && O.Mem.Index.hasAddend())
            record(Regs, O.Mem.Index.Addend.Id, SlotId);
          record(Regs, O.Def.Id, SlotId);
          if (isLoad(O.Opc))
            record(Arrays, O.Mem.ArrayId, SlotId);
          Registered = true;
        } else {
          Words.resize(KeyBegin);
        }
      }
      if (O.Def.isValid() && !Registered)
        invalidate(Regs, O.Def.Id);
      if (isStore(O.Opc))
        invalidate(Arrays, O.Mem.ArrayId);
    }
  }

  /// True if \p O's def is also one of its operands or its subscript
  /// addend.
  static bool readsOwnDef(const Operation &O) {
    for (const VReg &R : O.Operands)
      if (R == O.Def)
        return true;
    return O.Mem.isValid() && O.Mem.Index.hasAddend() &&
           O.Mem.Index.Addend == O.Def;
  }

  Program &P;
  std::vector<int64_t> Words;
  std::vector<Slot> Slots;
  std::vector<Use> Uses;
  IdHeads Regs;   ///< Record lists per register.
  IdHeads Arrays; ///< Record lists per array (loads only).
  size_t KeyBegin = 0;
  unsigned Rewritten = 0;
};

} // namespace

unsigned swp::localValueNumbering(Program &P) {
  return ValueNumberer(P).run();
}

unsigned swp::hoistLoopInvariants(Program &P) { return Hoister(P).run(); }

unsigned swp::eliminateDeadCode(Program &P) {
  return DeadCodeEliminator(P).run();
}
