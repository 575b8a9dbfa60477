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

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
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

/// The long instructions of a program, shared and immutable. The list is
/// built once from the emitted sequence and never changes afterwards, so
/// copies share one reference-counted body: copying a VLIWProgram (into
/// the service memo, out of it, into a response) copies no instruction.
///
/// Pipelined code is mostly idle words: prolog and epilog fill and the
/// empty rows of recurrence-bound kernels. An instruction equal to a
/// default VLIWInst (no op, no AGU update, no control) is not stored; it
/// reads as one shared empty instruction, and isIdle() tells the
/// simulator so without decoding it. Everything else is stored as
/// emitted, so expand() equals the emitted sequence field for field.
///
/// The read interface is std::vector's const subset. There is no mutable
/// access: code is not edited once published. A caller that must edit
/// (a verifier mutant) expands the list, edits the vector and assigns it
/// back.
class InstList {
  static constexpr uint32_t IdleSlot = ~0u;

  struct Body {
    std::vector<VLIWInst> Stored; ///< The non-idle instructions, in order.
    std::vector<uint32_t> Slots;  ///< Per instruction: index or IdleSlot.
    size_t Bytes = 0;             ///< See bytes().
  };

public:
  /// The shared empty instruction every idle slot reads as.
  static inline const VLIWInst Idle{};

  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = VLIWInst;
    using difference_type = std::ptrdiff_t;
    using pointer = const VLIWInst *;
    using reference = const VLIWInst &;

    const_iterator() = default;
    reference operator*() const {
      return *Slot == IdleSlot ? Idle : Stored[*Slot];
    }
    pointer operator->() const { return &**this; }
    const_iterator &operator++() {
      ++Slot;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator Old = *this;
      ++Slot;
      return Old;
    }
    bool operator==(const const_iterator &O) const { return Slot == O.Slot; }

  private:
    friend class InstList;
    const_iterator(const uint32_t *Slot, const VLIWInst *Stored)
        : Slot(Slot), Stored(Stored) {}
    const uint32_t *Slot = nullptr;
    const VLIWInst *Stored = nullptr;
  };
  using value_type = VLIWInst;
  using size_type = size_t;
  using const_reference = const VLIWInst &;
  using iterator = const_iterator;

  InstList() = default;
  /// Takes the emitted sequence and keeps its non-idle instructions, each
  /// block at exact size. \p Insts is left empty. Implicit, so
  /// `Prog.Insts = std::move(Vec)` publishes a vector.
  InstList(std::vector<VLIWInst> &&Insts);

  /// True for an instruction equal to a default VLIWInst.
  static bool idle(const VLIWInst &I) {
    return I.Ops.empty() && I.Agu.empty() &&
           I.Ctrl.K == ControlOp::Kind::None && I.Ctrl.Target == 0 &&
           I.Ctrl.Counter == PhysReg{};
  }

  size_t size() const { return B ? B->Slots.size() : 0; }
  bool empty() const { return size() == 0; }
  bool isIdle(size_t I) const { return B->Slots[I] == IdleSlot; }
  const VLIWInst &operator[](size_t I) const {
    uint32_t Slot = B->Slots[I];
    return Slot == IdleSlot ? Idle : B->Stored[Slot];
  }
  const VLIWInst &front() const { return (*this)[0]; }
  const VLIWInst &back() const { return (*this)[size() - 1]; }
  const_iterator begin() const {
    return B ? const_iterator(B->Slots.data(), B->Stored.data())
             : const_iterator();
  }
  const_iterator end() const {
    return B ? const_iterator(B->Slots.data() + B->Slots.size(),
                              B->Stored.data())
             : const_iterator();
  }

  /// The whole sequence, idle instructions included, as emitted.
  std::vector<VLIWInst> expand() const {
    return std::vector<VLIWInst>(begin(), end());
  }

  /// Heap bytes behind the list: the stored instructions, their op and
  /// AGU storage, operand lists spilled past their inline size, and the
  /// slot table. Counted once, when the list is built.
  size_t bytes() const { return B ? B->Bytes : 0; }

private:
  std::shared_ptr<const Body> B;
};

/// A complete cell program plus the metadata the simulator needs.
struct VLIWProgram {
  InstList Insts;
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
