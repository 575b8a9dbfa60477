//===- swp/Codegen/VLIWProgram.h - Long-instruction code --------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable code for the modeled VLIW cell: a sequence of long
/// instructions, each bundling data-path operations (with physical
/// registers and optional predicates), address-generation-unit updates,
/// and one sequencer control operation. Predicated operations model the
/// two-version code emission of section 3.1: THEN and ELSE operations may
/// share a long instruction (the schedule reserved the union of their
/// resources), and at run time only the operations whose predicates hold
/// take effect — exactly the instruction stream the paper's sequencer
/// would have selected branch-wise.
///
/// Memory operations keep their subscripts symbolic (an affine form over
/// loop variables maintained by the AGU). Warp's memory port had a
/// dedicated address generation unit, so subscript arithmetic costs no
/// ALU issue slots; per-instance iteration offsets are folded into the
/// affine constant at emission time.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_CODEGEN_VLIWPROGRAM_H
#define SWP_CODEGEN_VLIWPROGRAM_H

#include "swp/IR/Operation.h"
#include "swp/Machine/MachineDescription.h"
#include "swp/Support/SmallVec.h"

#include <map>
#include <string>
#include <vector>

namespace swp {

/// One physical register.
struct PhysReg {
  RegClass RC = RegClass::None;
  unsigned Index = 0;

  bool isValid() const { return RC != RegClass::None; }
  bool operator==(const PhysReg &O) const {
    return RC == O.RC && Index == O.Index;
  }
};

/// One predicate term over a physical register.
struct PredPhys {
  PhysReg Reg;
  bool Negated = false;
};

/// One data-path operation inside a long instruction.
struct MachOp {
  Opcode Opc = Opcode::Nop;
  PhysReg Def;
  SmallVec<PhysReg, 3> Uses; ///< Value operands.
  /// Memory reference (loads/stores): affine subscript over loop
  /// variables; any dynamic addend reads AddendReg.
  unsigned ArrayId = ~0u;
  AffineExpr Index; ///< Index.Addend is unused here; see AddendReg.
  PhysReg AddendReg;
  double FImm = 0.0;
  int64_t IImm = 0;
  int Queue = 0;
  /// Conjunction of predicates; the op takes effect only when all hold.
  SmallVec<PredPhys, 1> Preds;

  bool hasMem() const { return ArrayId != ~0u; }
};

/// One AGU update, applied at the end of the instruction's cycle:
///   LoopVar[LoopId] = (Relative ? LoopVar[LoopId] : 0)
///                     + (A valid ? A : 0) + Imm.
struct AguOp {
  unsigned LoopId = 0;
  bool Relative = false;
  PhysReg A;
  int64_t Imm = 0;
};

/// The sequencer slot, evaluated at the end of the cycle.
struct ControlOp {
  enum class Kind {
    None,
    Halt,
    Jump,       ///< Unconditional branch to Target.
    JumpIfZero, ///< Branch when Counter == 0.
    DecJumpPos, ///< Counter -= 1 (committed); branch when result > 0.
  };
  Kind K = Kind::None;
  unsigned Target = 0;
  PhysReg Counter;
};

/// One long instruction.
struct VLIWInst {
  std::vector<MachOp> Ops;
  std::vector<AguOp> Agu;
  ControlOp Ctrl;
};

/// A complete cell program plus the metadata the simulator needs.
struct VLIWProgram {
  std::vector<VLIWInst> Insts;
  /// Where live-in scalar values must be deposited before execution,
  /// keyed by IR vreg id.
  std::map<unsigned, PhysReg> LiveInRegs;
  /// Register-file occupancy actually used, per class (for reports).
  unsigned FloatRegsUsed = 0;
  unsigned IntRegsUsed = 0;

  size_t size() const { return Insts.size(); }
};

/// Renders the program as text (one instruction per line) for tests and
/// the quickstart example.
std::string vliwProgramToString(const VLIWProgram &Prog,
                                const MachineDescription &MD);

} // namespace swp

#endif // SWP_CODEGEN_VLIWPROGRAM_H
