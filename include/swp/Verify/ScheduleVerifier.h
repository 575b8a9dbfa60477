//===- swp/Verify/ScheduleVerifier.h - Independent schedule checks -*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// From-scratch re-verification of everything the pipeliner claims about a
/// schedule, deliberately sharing no bookkeeping with the scheduler that
/// produced it (in the spirit of validating a heuristic pipeliner against
/// an independent constraint model):
///
///   - every dependence edge (d, p) satisfied at the committed initiation
///     interval: sigma(dst) - sigma(src) >= d - II * p;
///   - no modulo-reservation conflict, on a resource table rebuilt here by
///     folding each unit's reservation pattern onto row (t mod II) and
///     comparing against the machine's unit counts (ReservationTables is
///     never consulted);
///   - modulo variable expansion introduces no live-range overlap between
///     concurrent iterations: a register whose value lives L cycles needs
///     copies * II >= L, and every copy count must divide the kernel
///     unroll so the rotation pattern closes;
///   - the emitted prolog/kernel/epilog of a pipelined loop is consistent
///     with the stage count: window w of the prolog issues exactly the ops
///     of stages 0..w, every kernel window issues every op, epilog window
///     e drains stages e+1.., the kernel ends in a dec-and-branch back to
///     the kernel head advancing the loop variable by the unroll degree.
///
/// Each check returns a VerifyReport carrying typed findings, so mutation
/// tests can assert that a specific corruption is caught for the specific
/// reason, and CompilerOptions::ParanoidVerify can forward findings to a
/// DiagnosticEngine.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_VERIFY_SCHEDULEVERIFIER_H
#define SWP_VERIFY_SCHEDULEVERIFIER_H

#include "swp/Codegen/VLIWProgram.h"
#include "swp/Pipeliner/ModuloVariableExpansion.h"
#include "swp/Sched/Schedule.h"

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace swp {

/// What kind of invariant a finding violates.
enum class VerifyErrorKind : uint8_t {
  BadII,              ///< II == 0 or otherwise unusable.
  UnscheduledUnit,    ///< A unit has no issue cycle.
  NegativeStart,      ///< Schedules are normalized to start at cycle >= 0.
  PrecedenceViolation,///< A (d, p) edge is unsatisfied at this II.
  ResourceConflict,   ///< A folded row over-subscribes a resource.
  StageLimitExceeded, ///< More overlapped iterations than MaxStages allows.
  MVEOverlap,         ///< Live range exceeds copies * II.
  MVEBadUnroll,       ///< Copy count does not divide the kernel unroll.
  StageCountMismatch, ///< Claimed stage count differs from the schedule's.
  StructureMismatch,  ///< Emitted prolog/kernel/epilog malformed.
};

/// Renders the kind as a stable lowercase tag ("precedence-violation").
const char *verifyErrorKindText(VerifyErrorKind K);

/// One independent-verifier finding.
struct VerifyError {
  VerifyErrorKind Kind = VerifyErrorKind::StructureMismatch;
  std::string Message;

  std::string str() const;
};

/// All findings of one (or several merged) verification passes.
struct VerifyReport {
  std::vector<VerifyError> Errors;

  bool ok() const { return Errors.empty(); }
  bool has(VerifyErrorKind K) const;
  void add(VerifyErrorKind K, std::string Message) {
    Errors.push_back({K, std::move(Message)});
  }
  void merge(VerifyReport Other);

  /// All findings, one per line (empty string when ok).
  std::string str() const;
};

/// Re-checks a flat one-iteration modulo schedule from first principles:
/// every unit scheduled at a nonnegative cycle, every edge of \p G
/// satisfied at \p II, and no over-subscription on an independently
/// rebuilt modulo reservation table. \p MaxStages, when nonzero, bounds
/// ceil(issue length / II) the way ModuloScheduleOptions::MaxStages does.
VerifyReport verifyModuloSchedule(const DepGraph &G, const Schedule &Sched,
                                  unsigned II, const MachineDescription &MD,
                                  unsigned MaxStages = 0);

/// Re-checks a modulo-variable-expansion decision: for every register in
/// \p Expanded, the value produced by iteration k must be dead before
/// iteration k + copies writes the same physical location
/// (copies * II >= live range), and the copy count must divide
/// \p Plan.Unroll so that compile-time rotation indices close over the
/// unrolled kernel. Lifetimes are recomputed here from \p Units and
/// \p Sched, not taken from the planner.
VerifyReport verifyMVEPlan(const std::vector<ScheduleUnit> &Units,
                           const Schedule &Sched, unsigned II,
                           const MVEPlan &Plan,
                           const std::set<unsigned> &Expanded);

/// Same, with \p Expanded as id-indexed flags (nonzero = expanded).
VerifyReport verifyMVEPlan(const std::vector<ScheduleUnit> &Units,
                           const Schedule &Sched, unsigned II,
                           const MVEPlan &Plan,
                           std::span<const uint8_t> Expanded);

/// Where a pipelined loop landed in the emitted instruction stream, plus
/// the shape the compiler claims for it.
struct PipelinedLoopLayout {
  size_t PrologBase = 0; ///< First instruction of prolog window 0.
  unsigned II = 1;       ///< Committed initiation interval.
  unsigned Stages = 1;   ///< Claimed overlapped-iteration count m.
  unsigned Unroll = 1;   ///< Kernel unroll degree u.
  unsigned LoopId = 0;   ///< AGU loop variable the kernel advances.

  size_t kernelBase() const {
    return PrologBase + static_cast<size_t>(Stages - 1) * II;
  }
  size_t epilogBase() const {
    return kernelBase() + static_cast<size_t>(Unroll) * II;
  }
  size_t end() const {
    return epilogBase() + static_cast<size_t>(Stages - 1) * II;
  }
};

/// Checks that the instructions \p Code emitted for a pipelined loop are
/// exactly the overlapping the schedule describes: stage count recomputed
/// from \p Sched matches \p L.Stages; each prolog / kernel / epilog window
/// issues precisely the expected operation multiset (by opcode, per row);
/// the kernel's final instruction carries the dec-and-branch to the kernel
/// head and advances loop variable \p L.LoopId by \p L.Unroll; and no
/// other control operation sits inside the region.
VerifyReport verifyPipelinedLoop(const VLIWProgram &Code,
                                 const PipelinedLoopLayout &L,
                                 const DepGraph &G, const Schedule &Sched);
/// The same check over instructions still being emitted (the compiler's
/// mid-emission ParanoidVerify pass, before the code is published).
VerifyReport verifyPipelinedLoop(std::span<const VLIWInst> Code,
                                 const PipelinedLoopLayout &L,
                                 const DepGraph &G, const Schedule &Sched);

} // namespace swp

#endif // SWP_VERIFY_SCHEDULEVERIFIER_H
