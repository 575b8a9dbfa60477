//===- swp/DDG/DDGBuilder.h - Dependence analysis ---------------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the precedence-constraint graph for one loop body given as a
/// program-ordered list of schedule units. Register dependences follow the
/// nearest-access rule (flow from the latest preceding write, anti to the
/// next write, output chains between consecutive writes) with wrap-around
/// omega-1 edges for inter-iteration relations. Memory dependences use
/// exact affine-distance analysis on the current loop's induction variable
/// when both subscripts are analyzable, and conservative
/// all-distances edges otherwise.
///
/// Timing model encoded in edge delays (o = issue offset inside the unit,
/// L = result latency): a write issued at t is visible from cycle t+L on;
/// register reads sample at issue; stores commit at the end of their cycle;
/// loads sample memory at issue. Hence flow d = o_w + L - o_r,
/// anti d = o_r - o_w - L + 1 (often <= 0), output d = o1 + L1 - o2 - L2 + 1.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_DDG_DDGBUILDER_H
#define SWP_DDG_DDGBUILDER_H

#include "swp/DDG/DepGraph.h"
#include "swp/IR/Program.h"

#include <cstdint>
#include <memory>
#include <set>
#include <span>

namespace swp {

/// Options controlling dependence construction.
struct DDGBuildOptions {
  /// Loop whose induction variable drives iteration distances.
  unsigned CurrentLoopId = 0;
  /// Registers chosen for modulo variable expansion: their inter-iteration
  /// (omega >= 1) anti and output dependences are omitted, implementing the
  /// "pretend every iteration has a dedicated location" step of
  /// section 2.3. Flow dependences are never dropped.
  std::set<unsigned> ExpandedRegs;
  /// Arrays carrying the user's no-alias directive: when two references
  /// cannot be analyzed exactly, the inter-iteration (omega-1) ordering
  /// edge is dropped; same-iteration program order is kept.
  std::set<unsigned> NoAliasArrays;
  /// The same two sets as id-indexed flags (nonzero = member), for callers
  /// that keep them in dense form; the builder honors the union of each
  /// set and its mask.
  std::span<const uint8_t> ExpandedMask;
  std::span<const uint8_t> NoAliasMask;
};

/// Builds the dependence graph over \p Units (in program order).
DepGraph buildLoopDepGraph(std::vector<ScheduleUnit> Units,
                           const MachineDescription &MD,
                           const DDGBuildOptions &Opts);

/// Same, over units shared with other graphs (no copy).
DepGraph
buildLoopDepGraph(std::shared_ptr<const std::vector<ScheduleUnit>> Units,
                  const MachineDescription &MD, const DDGBuildOptions &Opts);

/// Wraps each operation of a straight-line body (no nested control) into a
/// simple schedule unit. Reduced constructs come from the hierarchical
/// reducer instead.
std::vector<ScheduleUnit>
simpleUnitsFromBody(const StmtList &Body, const MachineDescription &MD);

} // namespace swp

#endif // SWP_DDG_DDGBUILDER_H
