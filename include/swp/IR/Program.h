//===- swp/IR/Program.h - Structured program representation -----*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured (region-based) program representation. Control flow is a
/// tree of statements — operations, counted FOR loops, and IF/ELSE — rather
/// than a flat CFG, because hierarchical reduction (section 3 of the paper)
/// schedules the program bottom-up over exactly this structure: each
/// innermost construct is scheduled and collapsed into a pseudo-operation
/// of its parent.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_IR_PROGRAM_H
#define SWP_IR_PROGRAM_H

#include "swp/IR/Operation.h"
#include "swp/Support/Casting.h"

#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace swp {

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

/// Base class of all statements.
class Stmt {
public:
  enum class Kind { Op, For, If };

  virtual ~Stmt();

  Kind kind() const { return K; }

protected:
  explicit Stmt(Kind K) : K(K) {}

private:
  Kind K;
};

/// A single operation.
class OpStmt : public Stmt {
public:
  explicit OpStmt(Operation Op) : Stmt(Kind::Op), Op(std::move(Op)) {}

  static bool classof(const Stmt *S) { return S->kind() == Kind::Op; }

  Operation Op;
};

/// A loop bound: either a compile-time constant or a live-in register.
struct LoopBound {
  bool IsImm = true;
  int64_t Imm = 0;
  VReg Reg;

  static LoopBound imm(int64_t V) { return {true, V, VReg()}; }
  static LoopBound reg(VReg R) { return {false, 0, R}; }
};

/// A counted loop: FOR IndVar := Lo TO Hi DO Body (step +1, inclusive,
/// zero-trip when Hi < Lo). The induction variable is readable inside the
/// body both as a subscript term (via AffineExpr) and as a plain register
/// operand.
class ForStmt : public Stmt {
public:
  ForStmt(unsigned LoopId, VReg IndVar, LoopBound Lo, LoopBound Hi)
      : Stmt(Kind::For), LoopId(LoopId), IndVar(IndVar), Lo(Lo), Hi(Hi) {}

  static bool classof(const Stmt *S) { return S->kind() == Kind::For; }

  /// Compile-time trip count, if both bounds are immediates.
  std::optional<int64_t> staticTripCount() const {
    if (!Lo.IsImm || !Hi.IsImm)
      return std::nullopt;
    return Hi.Imm < Lo.Imm ? 0 : Hi.Imm - Lo.Imm + 1;
  }

  unsigned LoopId;
  VReg IndVar;
  LoopBound Lo, Hi;
  StmtList Body;
};

/// IF Cond THEN ... [ELSE ...]; Cond is an integer register tested /= 0.
class IfStmt : public Stmt {
public:
  explicit IfStmt(VReg Cond) : Stmt(Kind::If), Cond(Cond) {}

  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }

  VReg Cond;
  StmtList Then;
  StmtList Else;
};

/// A whole program: symbol tables plus the top-level statement list.
class Program {
public:
  /// Creates a fresh virtual register of class \p RC.
  VReg createVReg(RegClass RC, std::string Name = "", bool LiveIn = false) {
    VRegs.push_back({RC, std::move(Name), LiveIn});
    return VReg(VRegs.size() - 1);
  }

  /// Declares an array; returns its id.
  unsigned createArray(std::string Name, RegClass Elem, int64_t Size) {
    Arrays.push_back({std::move(Name), Elem, Size});
    return Arrays.size() - 1;
  }

  /// Reserves a fresh loop id for a ForStmt.
  unsigned createLoopId() { return NumLoops++; }

  const VRegInfo &vregInfo(VReg R) const {
    assert(R.Id < VRegs.size() && "invalid vreg");
    return VRegs[R.Id];
  }
  VRegInfo &vregInfo(VReg R) {
    assert(R.Id < VRegs.size() && "invalid vreg");
    return VRegs[R.Id];
  }
  unsigned numVRegs() const { return VRegs.size(); }

  const ArrayInfo &arrayInfo(unsigned Id) const {
    assert(Id < Arrays.size() && "invalid array id");
    return Arrays[Id];
  }
  ArrayInfo &arrayInfo(unsigned Id) {
    assert(Id < Arrays.size() && "invalid array id");
    return Arrays[Id];
  }
  unsigned numArrays() const { return Arrays.size(); }
  unsigned numLoops() const { return NumLoops; }

  StmtList Body;

private:
  std::vector<VRegInfo> VRegs;
  std::vector<ArrayInfo> Arrays;
  unsigned NumLoops = 0;
};

/// Walks \p List recursively, invoking \p Fn on every statement (pre-order).
void forEachStmt(const StmtList &List,
                 const std::function<void(const Stmt &)> &Fn);

/// Counts operations in \p List recursively.
unsigned countOps(const StmtList &List);

/// Deep-copies a statement list.
StmtList cloneStmts(const StmtList &List);

} // namespace swp

#endif // SWP_IR_PROGRAM_H
