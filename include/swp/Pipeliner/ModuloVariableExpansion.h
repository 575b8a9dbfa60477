//===- swp/Pipeliner/ModuloVariableExpansion.h - MVE ------------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Modulo variable expansion (section 2.3). Before scheduling, registers
/// that every iteration redefines before use are identified; their
/// inter-iteration anti and output dependences are dropped (each iteration
/// pretends to own a private location). After scheduling, each expanded
/// register's lifetime determines how many locations q_i it actually
/// needs; the steady state is unrolled u times and register copies are
/// assigned by iteration index modulo the copy count. Two unroll policies
/// are provided:
///   - MinCodeSize (the paper's choice): u = max(q_i), and register v_i
///     gets the smallest divisor of u that is >= q_i;
///   - MinRegisters: u = lcm(q_i) and v_i gets exactly q_i copies (the
///     paper notes the lcm can blow up the code size intolerably).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_PIPELINER_MODULOVARIABLEEXPANSION_H
#define SWP_PIPELINER_MODULOVARIABLEEXPANSION_H

#include "swp/DDG/ScheduleUnit.h"
#include "swp/IR/Program.h"
#include "swp/Sched/Schedule.h"

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

namespace swp {

/// How to trade registers against steady-state code size.
enum class MVEPolicy {
  MinCodeSize,  ///< u = max q_i; copies = smallest divisor of u >= q_i.
  MinRegisters, ///< u = lcm q_i; copies = q_i.
  Disabled,     ///< No expansion at all (ablation A1).
};

/// Registers eligible for expansion among \p Units: the register's first
/// access in program order is an unpredicated write, it is not marked
/// live-in, and it is not in \p LiveOut (its final value is not consumed
/// after the loop — expanded copies rotate, so "the" final location would
/// vary with the trip count).
std::set<unsigned> mveEligibleRegs(const std::vector<ScheduleUnit> &Units,
                                   const std::set<unsigned> &LiveOut,
                                   const Program &P);

/// Dense form over id-indexed flags: \p Eligible is resized to
/// P.numVRegs() and Eligible[v] is 1 exactly for the eligible registers;
/// \p LiveOut is indexed the same way.
void mveEligibleRegs(const std::vector<ScheduleUnit> &Units,
                     std::span<const uint8_t> LiveOut, const Program &P,
                     std::vector<uint8_t> &Eligible);

/// The post-schedule expansion decision.
struct MVEPlan {
  /// Kernel unroll degree u (1 when nothing is expanded).
  unsigned Unroll = 1;
  /// Copy count per expanded register id (>= 1; divides Unroll).
  std::map<unsigned, unsigned> Copies;

  /// Copies of register \p RegId (1 for unexpanded registers).
  unsigned copiesOf(unsigned RegId) const {
    auto It = Copies.find(RegId);
    return It == Copies.end() ? 1 : It->second;
  }
};

/// Computes lifetimes of the \p Expanded registers under \p Sched at
/// interval \p II and chooses the unroll degree per \p Policy.
///
/// A register defined (committed) at cycle d and last read at cycle r
/// needs q = max(1, ceil((r - d + 1) / II)) locations so that the write
/// from iteration k+q lands only after iteration k's last read.
MVEPlan planModuloVariableExpansion(const std::vector<ScheduleUnit> &Units,
                                    const Schedule &Sched, unsigned II,
                                    const std::set<unsigned> &Expanded,
                                    MVEPolicy Policy);

/// Same, with \p Expanded as id-indexed flags (nonzero = expanded).
MVEPlan planModuloVariableExpansion(const std::vector<ScheduleUnit> &Units,
                                    const Schedule &Sched, unsigned II,
                                    std::span<const uint8_t> Expanded,
                                    MVEPolicy Policy);

} // namespace swp

#endif // SWP_PIPELINER_MODULOVARIABLEEXPANSION_H
