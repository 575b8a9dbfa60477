//===- RegAlloc.cpp - Physical register management -----------------------------===//
//
// Part of warp-swp. See RegAlloc.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Codegen/RegAlloc.h"

#include <algorithm>
#include <cstdio>

using namespace swp;

std::optional<PhysReg> RegisterFile::allocate() {
  for (size_t W = 0; W != FreeBits.size(); ++W) {
    if (FreeBits[W] == 0)
      continue;
    unsigned Bit = static_cast<unsigned>(__builtin_ctzll(FreeBits[W]));
    FreeBits[W] &= FreeBits[W] - 1;
    --NumFree;
    HighWater = std::max(HighWater, Capacity - NumFree);
    return PhysReg{RC, static_cast<unsigned>(W * 64) + Bit};
  }
  return std::nullopt;
}

void RegisterFile::release(PhysReg R) {
  assert(R.RC == RC && R.Index < Capacity && "releasing a foreign register");
  uint64_t Mask = uint64_t(1) << (R.Index % 64);
  assert(!(FreeBits[R.Index / 64] & Mask) && "double release");
  FreeBits[R.Index / 64] |= Mask;
  ++NumFree;
}

bool RegAlloc::assignPermanent(unsigned VRegId, RegClass RC) {
  assert(!isAssigned(VRegId) && "vreg already assigned");
  std::optional<PhysReg> R = Files[fileIndex(RC)].allocate();
  if (!R)
    return false;
  slotFor(VRegId) = {static_cast<unsigned>(PermanentPool.size()), 1, false};
  PermanentPool.push_back(*R);
  return true;
}

void RegAlloc::beginScope() {
  Scopes.push_back({ScopeVRegs.size(), ScopeOwned.size(), ScopedPool.size()});
}

bool RegAlloc::assignLocal(unsigned VRegId, RegClass RC, unsigned Copies) {
  assert(!Scopes.empty() && "assignLocal outside any scope");
  assert(Copies >= 1 && "a register needs at least one copy");
  assert(!isAssigned(VRegId) && "vreg already assigned");
  size_t Begin = ScopedPool.size();
  for (unsigned I = 0; I != Copies; ++I) {
    std::optional<PhysReg> R = Files[fileIndex(RC)].allocate();
    if (!R) {
      for (size_t J = Begin; J != ScopedPool.size(); ++J)
        Files[fileIndex(RC)].release(ScopedPool[J]);
      ScopedPool.resize(Begin);
      return false;
    }
    ScopedPool.push_back(*R);
  }
  ScopeVRegs.push_back(VRegId);
  ScopeOwned.insert(ScopeOwned.end(), ScopedPool.begin() + Begin,
                    ScopedPool.end());
  slotFor(VRegId) = {static_cast<unsigned>(Begin), Copies, true};
  return true;
}

void RegAlloc::aliasLocal(unsigned VRegId, PhysReg R) {
  assert(!Scopes.empty() && "aliasLocal outside any scope");
  assert(!isAssigned(VRegId) && "vreg already assigned");
  ScopeVRegs.push_back(VRegId);
  slotFor(VRegId) = {static_cast<unsigned>(ScopedPool.size()), 1, true};
  ScopedPool.push_back(R);
}

std::optional<PhysReg> RegAlloc::allocateScratch(RegClass RC) {
  std::optional<PhysReg> R = Files[fileIndex(RC)].allocate();
  if (R && !Scopes.empty())
    ScopeOwned.push_back(*R);
  return R;
}

void RegAlloc::endScope() {
  assert(!Scopes.empty() && "endScope without beginScope");
  const Scope &S = Scopes.back();
  for (size_t I = S.VRegsBegin; I != ScopeVRegs.size(); ++I)
    Assigned[ScopeVRegs[I]] = Assignment();
  for (size_t I = S.OwnedBegin; I != ScopeOwned.size(); ++I)
    Files[fileIndex(ScopeOwned[I].RC)].release(ScopeOwned[I]);
  ScopeVRegs.resize(S.VRegsBegin);
  ScopeOwned.resize(S.OwnedBegin);
  ScopedPool.resize(S.PoolBegin);
  Scopes.pop_back();
}

PhysReg RegAlloc::regFor(unsigned VRegId, unsigned Copy) const {
  if (!isAssigned(VRegId)) {
    std::fprintf(stderr, "regFor: vreg %%%u has no register\n", VRegId);
    assert(false && "vreg has no register");
  }
  const Assignment &A = Assigned[VRegId];
  return poolOf(A)[A.Begin + Copy % A.Count];
}

unsigned RegAlloc::copiesOf(unsigned VRegId) const {
  assert(isAssigned(VRegId) && "vreg has no register");
  return Assigned[VRegId].Count;
}
