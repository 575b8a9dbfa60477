//===- swp/DDG/ScheduleUnit.h - Minimally indivisible sequences -*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's basic unit of scheduling is a "minimally indivisible
/// sequence of micro-instructions" (section 2.1): a node carrying a
/// resource reservation table, which may stand for one operation or — after
/// hierarchical reduction (section 3) — for an entire scheduled control
/// construct whose components sit at fixed internal offsets. A reduced
/// conditional keeps the operations of both branches, each tagged with the
/// predicate terms under which it executes; its reservation table is the
/// entry-wise maximum of the two branch tables, exactly the union-of-
/// constraints representation of section 3.1.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_DDG_SCHEDULEUNIT_H
#define SWP_DDG_SCHEDULEUNIT_H

#include "swp/IR/Operation.h"
#include "swp/Machine/MachineDescription.h"
#include "swp/Support/SmallVec.h"

#include <vector>

namespace swp {

/// One term of a predicate conjunction: Cond must be nonzero (or zero when
/// Negated) for the guarded operation to take effect.
struct PredTerm {
  VReg Cond;
  bool Negated = false;
};

/// One operation inside a schedule unit, at a fixed cycle offset from the
/// unit's issue time, guarded by a (possibly empty) predicate conjunction.
struct UnitOp {
  Operation Op;
  int Offset = 0;
  SmallVec<PredTerm, 1> Preds;
};

/// A schedulable node: operations at fixed relative offsets plus an
/// aggregate reservation table.
class ScheduleUnit {
public:
  /// Wraps a single operation (offset 0, unconditional).
  static ScheduleUnit makeSimple(Operation Op, const MachineDescription &MD);

  /// Builds a reduced-construct unit from pre-placed operations and an
  /// explicit (already unioned) reservation table.
  static ScheduleUnit makeReduced(std::vector<UnitOp> Ops,
                                  std::vector<ResourceUse> Reservation,
                                  int Length, const MachineDescription &MD);

  /// All operations with their offsets and predicates.
  const std::vector<UnitOp> &ops() const { return Ops; }

  /// Aggregate resource reservation, offsets relative to unit issue.
  const std::vector<ResourceUse> &reservation() const { return Reservation; }

  /// Padded length in cycles (horizon of the reservation table and of all
  /// member issue offsets).
  int length() const { return Length; }

  /// True for reduced constructs (conditionals); false for single ops.
  bool isReduced() const { return Reduced; }

  /// A register read, at the issue offset of the reading operation.
  struct RegRead {
    VReg R;
    int Offset;
  };
  /// A register write: committed (visible to readers) at
  /// Offset + Latency cycles after unit issue.
  struct RegWrite {
    VReg R;
    int Offset;
    unsigned Latency;
  };
  /// A memory access by a member operation.
  struct MemAccess {
    const Operation *Op;
    int Offset;
    bool IsStore;
  };
  /// A queue access by a member operation.
  struct QueueAccess {
    int Queue;
    int Offset;
    bool IsSend;
  };

  const std::vector<RegRead> &reads() const { return Reads; }
  const std::vector<RegWrite> &writes() const { return Writes; }
  const std::vector<MemAccess> &memAccesses() const { return MemAccs; }
  const std::vector<QueueAccess> &queueAccesses() const { return QueueAccs; }

  /// True if any member op defines \p R.
  bool definesReg(VReg R) const;

private:
  void deriveAccessInfo(const MachineDescription &MD);

  std::vector<UnitOp> Ops;
  std::vector<ResourceUse> Reservation;
  int Length = 1;
  bool Reduced = false;

  std::vector<RegRead> Reads;
  std::vector<RegWrite> Writes;
  std::vector<MemAccess> MemAccs;
  std::vector<QueueAccess> QueueAccs;
};

} // namespace swp

#endif // SWP_DDG_SCHEDULEUNIT_H
