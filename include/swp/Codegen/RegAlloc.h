//===- swp/Codegen/RegAlloc.h - Physical register management ----*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register allocation for the two register files. Values that live across
/// regions (live-ins, accumulators, loop bounds, anything read outside one
/// loop) get permanent registers. Loop-local temporaries are allocated per
/// loop and released afterwards:
///   - in a software-pipelined loop every local register is exclusive, and
///     a modulo-expanded register takes its full set of copies — if the
///     file overflows the caller refuses to pipeline, which is the paper's
///     fallback ("when we run out of registers, we resort to simple
///     techniques", section 2.3);
///   - in an unpipelined loop local temporaries share registers by
///     circular-arc lifetimes on the iteration period, reflecting how a
///     sequential loop reuses the same locations every iteration.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_CODEGEN_REGALLOC_H
#define SWP_CODEGEN_REGALLOC_H

#include "swp/Codegen/VLIWProgram.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace swp {

/// One register file: a bitmap of free registers that hands out the lowest
/// free index first, plus a high-water mark.
class RegisterFile {
public:
  RegisterFile(RegClass RC, unsigned Capacity)
      : RC(RC), Capacity(Capacity), NumFree(Capacity),
        FreeBits((Capacity + 63) / 64, ~uint64_t(0)) {
    if (Capacity % 64 != 0)
      FreeBits.back() = (uint64_t(1) << (Capacity % 64)) - 1;
  }

  /// Allocates the lowest free register; nullopt when the file is
  /// exhausted.
  std::optional<PhysReg> allocate();

  /// Returns a register to the free list.
  void release(PhysReg R);

  unsigned capacity() const { return Capacity; }
  unsigned inUse() const { return Capacity - NumFree; }
  unsigned highWater() const { return HighWater; }

private:
  RegClass RC;
  unsigned Capacity;
  unsigned NumFree;
  std::vector<uint64_t> FreeBits; ///< Bit i set = register i free.
  unsigned HighWater = 0;
};

/// Allocation state for one compilation: permanent assignments plus a
/// stack of loop-local scopes. Assignments are indexed by vreg id.
class RegAlloc {
public:
  explicit RegAlloc(const MachineDescription &MD)
      : Files{RegisterFile(RegClass::Float,
                           MD.registerFileSize(RegClass::Float)),
              RegisterFile(RegClass::Int,
                           MD.registerFileSize(RegClass::Int))} {}

  /// Sizes the per-vreg table for ids below \p NumVRegs up front (it
  /// also grows on demand).
  void reserve(unsigned NumVRegs) {
    if (Assigned.size() < NumVRegs)
      Assigned.resize(NumVRegs);
  }

  /// Permanently assigns one register to \p VRegId (copy 0 only).
  /// Returns false when the file is exhausted.
  bool assignPermanent(unsigned VRegId, RegClass RC);

  /// Begins a loop-local scope; local assignments made until endScope are
  /// released together.
  void beginScope();

  /// Assigns \p Copies exclusive registers to a local \p VRegId.
  /// Returns false (leaving state clean) when the file cannot supply them.
  bool assignLocal(unsigned VRegId, RegClass RC, unsigned Copies);

  /// Assigns a specific already-allocated register to another vreg id in
  /// the current scope (register sharing between disjoint lifetimes).
  void aliasLocal(unsigned VRegId, PhysReg R);

  /// Allocates an anonymous scratch register in the current scope (or
  /// permanently when no scope is open).
  std::optional<PhysReg> allocateScratch(RegClass RC);

  /// Releases every local assignment of the innermost scope.
  void endScope();

  bool isAssigned(unsigned VRegId) const {
    return VRegId < Assigned.size() && Assigned[VRegId].Count != 0;
  }

  /// Register for copy \p Copy of \p VRegId (copy index is taken modulo
  /// the vreg's copy count, implementing the rotation).
  PhysReg regFor(unsigned VRegId, unsigned Copy = 0) const;

  /// Number of copies assigned to \p VRegId (1 unless expanded).
  unsigned copiesOf(unsigned VRegId) const;

  unsigned highWater(RegClass RC) const {
    return Files[fileIndex(RC)].highWater();
  }

private:
  static unsigned fileIndex(RegClass RC) {
    assert(RC != RegClass::None && "no file for RegClass::None");
    return RC == RegClass::Float ? 0 : 1;
  }

  /// A vreg's registers: Count entries from Begin in the permanent or the
  /// scoped pool. Count 0 = unassigned.
  struct Assignment {
    unsigned Begin = 0;
    unsigned Count = 0;
    bool Scoped = false;
  };

  Assignment &slotFor(unsigned VRegId) {
    reserve(VRegId + 1);
    return Assigned[VRegId];
  }
  const std::vector<PhysReg> &poolOf(const Assignment &A) const {
    return A.Scoped ? ScopedPool : PermanentPool;
  }

  RegisterFile Files[2];
  std::vector<Assignment> Assigned;
  std::vector<PhysReg> PermanentPool;
  /// Registers of scoped assignments; each scope truncates it on exit.
  std::vector<PhysReg> ScopedPool;
  /// Flat stacks of every open scope's local vregs (to unassign) and owned
  /// registers (to release); a scope records where its part begins.
  std::vector<unsigned> ScopeVRegs;
  std::vector<PhysReg> ScopeOwned;
  struct Scope {
    size_t VRegsBegin, OwnedBegin, PoolBegin;
  };
  std::vector<Scope> Scopes;
};

} // namespace swp

#endif // SWP_CODEGEN_REGALLOC_H
