//===- swp/IR/Operation.h - Operations and memory references ----*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single machine-level operation plus the affine memory-reference
/// descriptor that the dependence analyzer and the address generation unit
/// consume. Array subscripts are kept symbolic (an affine function of the
/// enclosing loop induction variables, optionally plus one dynamic register
/// addend) rather than lowered to address arithmetic: Warp's memory port had
/// a dedicated AGU, so subscript updates cost no ALU issue slots, and the
/// symbolic form is what makes exact dependence distances computable.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_IR_OPERATION_H
#define SWP_IR_OPERATION_H

#include "swp/IR/Value.h"
#include "swp/Support/Diagnostics.h"
#include "swp/Support/SmallVec.h"

#include <cassert>
#include <cstdint>

namespace swp {

/// An affine integer expression over loop induction variables:
///   sum_l (Coef_l * IndVar_l) + Const [+ value of Addend register].
struct AffineExpr {
  struct Term {
    unsigned LoopId = 0; ///< ForStmt::LoopId of the enclosing loop.
    int64_t Coef = 0;
  };
  SmallVec<Term, 2> Terms; ///< One per loop with a nonzero coefficient.
  int64_t Const = 0;
  /// Optional dynamic addend (data-dependent subscripts, e.g. histogram
  /// bins). When valid, dependence analysis is conservative for this ref.
  VReg Addend;

  /// Coefficient of loop \p LoopId (0 when absent).
  int64_t coefOf(unsigned LoopId) const {
    for (const Term &T : Terms)
      if (T.LoopId == LoopId)
        return T.Coef;
    return 0;
  }

  /// Adds \p Coef to the coefficient of \p LoopId, dropping zero terms.
  void addTerm(unsigned LoopId, int64_t Coef);

  bool hasAddend() const { return Addend.isValid(); }

  /// True if the two expressions have identical terms and constant
  /// (addends must both be absent).
  bool equalsStatically(const AffineExpr &RHS) const;
};

/// Sum of two affine expressions (at most one dynamic addend between them).
inline AffineExpr operator+(AffineExpr LHS, const AffineExpr &RHS) {
  for (const AffineExpr::Term &T : RHS.Terms)
    LHS.addTerm(T.LoopId, T.Coef);
  LHS.Const += RHS.Const;
  if (RHS.hasAddend()) {
    assert(!LHS.hasAddend() && "cannot sum two dynamic addends");
    LHS.Addend = RHS.Addend;
  }
  return LHS;
}

/// Affine expression plus a constant.
inline AffineExpr operator+(AffineExpr LHS, int64_t C) {
  LHS.Const += C;
  return LHS;
}

/// A reference to one array element.
struct MemRef {
  static constexpr unsigned InvalidArray = ~0u;
  unsigned ArrayId = InvalidArray;
  AffineExpr Index;

  bool isValid() const { return ArrayId != InvalidArray; }
};

/// One operation. Operand conventions by opcode family:
///  - arithmetic: Operands holds the register inputs in order;
///  - loads: no register operands (unless the subscript has an Addend,
///    which is listed in Operands so liveness sees it); Mem is valid;
///  - stores: Operands[0] is the stored value; Mem is valid;
///  - FConst / IConst: immediate in FImm / IImm;
///  - Recv / Send: Queue selects the channel.
struct Operation {
  Opcode Opc = Opcode::Nop;
  VReg Def;                   ///< Result register (invalid if none).
  SmallVec<VReg, 3> Operands; ///< Register inputs.
  MemRef Mem;                 ///< Memory reference for loads/stores.
  double FImm = 0.0;          ///< FConst payload.
  int64_t IImm = 0;           ///< IConst payload.
  int Queue = 0;              ///< Channel index for Recv/Send.
  SourceLoc Loc;              ///< Source position (if from the frontend).
};

} // namespace swp

#endif // SWP_IR_OPERATION_H
