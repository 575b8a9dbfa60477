//===- swp/Pipeliner/LoopUtils.h - Loop preparation helpers -----*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Analyses and transforms applied to a loop before scheduling: live-out
/// computation (which registers defined in the loop are consumed after
/// it — these are excluded from modulo variable expansion), and induction-
/// variable materialization (when the body uses the induction variable as
/// a plain value, an explicit increment operation is appended so the
/// register actually exists at run time; subscript uses go through the
/// address generation unit and need no materialization).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_PIPELINER_LOOPUTILS_H
#define SWP_PIPELINER_LOOPUTILS_H

#include "swp/IR/Program.h"

#include <cstdint>
#include <set>
#include <vector>

namespace swp {

/// Registers written inside \p For and read anywhere outside its subtree
/// (including by loop bounds of other loops).
std::set<unsigned> liveOutRegs(const Program &P, const ForStmt &For);

/// Dense form: \p LiveOut is resized to P.numVRegs() and LiveOut[v] is 1
/// exactly for those registers.
void liveOutRegs(const Program &P, const ForStmt &For,
                 std::vector<uint8_t> &LiveOut);

/// True if any operation in \p For's subtree uses \p For's induction
/// variable as a value operand (as opposed to a subscript term).
bool usesIndVarAsValue(const ForStmt &For);

/// Preheader operations produced by prepareLoopForCodegen: executed once
/// before the loop body starts iterating.
struct LoopPrep {
  /// Operations to run before the first iteration (induction-variable
  /// initialization and the constant 1 used by the increment). Empty when
  /// no materialization was needed.
  std::vector<Operation> Preheader;
  /// True if an explicit "iv := iv + 1" was appended to the body.
  bool IndVarMaterialized = false;
};

/// If the body uses the induction variable as a value, appends the
/// explicit increment to the loop body (idempotent) and returns the
/// preheader operations that initialize it. Interpreter semantics are
/// unchanged: the interpreter re-sets the induction register each
/// iteration, so the increment is redundant under sequential execution.
LoopPrep prepareLoopForCodegen(Program &P, ForStmt &For);

/// Innermost loops of \p List in program order (loops containing no other
/// loop).
std::vector<ForStmt *> innermostLoops(StmtList &List);

/// True if \p For contains no nested loop.
bool isInnermost(const ForStmt &For);

} // namespace swp

#endif // SWP_PIPELINER_LOOPUTILS_H
