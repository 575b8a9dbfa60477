//===- swp/Sched/ReservationTables.h - Resource bookkeeping -----*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two resource-usage trackers: a plain (unbounded-horizon) reservation
/// table for straight-line list scheduling, and the modulo reservation
/// table of section 2.1, which folds the resource usage of cycle t onto row
/// t mod s so that the steady state of a pipelined loop can be checked
/// against the machine's per-instruction resources.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SCHED_RESERVATIONTABLES_H
#define SWP_SCHED_RESERVATIONTABLES_H

#include "swp/DDG/ScheduleUnit.h"

#include <algorithm>
#include <vector>

namespace swp {

/// Unbounded-horizon table for straight-line scheduling.
class ReservationTable {
public:
  explicit ReservationTable(const MachineDescription &MD) : MD(MD) {}

  /// True if \p U can issue at cycle \p T (>= 0) without over-subscribing
  /// any resource.
  bool canPlace(const ScheduleUnit &U, int T) const;

  /// Commits \p U at cycle \p T.
  void place(const ScheduleUnit &U, int T);

  /// Capacity for a horizon of \p Cycles without regrowing.
  void reserve(unsigned Cycles) {
    Rows.reserve(static_cast<size_t>(Cycles) * MD.numResources());
  }

  /// Occupied horizon (one past the last cycle with any usage).
  int horizon() const {
    return static_cast<int>(Rows.size() / MD.numResources());
  }

  /// Units of resource \p Res in use at cycle \p T.
  unsigned usedAt(int T, unsigned Res) const;

private:
  const MachineDescription &MD;
  std::vector<unsigned> Rows; ///< horizon() x numResources, row-major.
};

/// Folded table with s rows: usage at cycle t lands on row t mod s.
class ModuloReservationTable {
public:
  ModuloReservationTable(const MachineDescription &MD, unsigned S);

  /// True if \p U can issue at cycle \p T (any integer) without
  /// over-subscribing any folded row.
  bool canPlace(const ScheduleUnit &U, int T) const {
    return canPlace(U.reservation().data(), U.reservation().size(), T);
  }

  void place(const ScheduleUnit &U, int T) {
    place(U.reservation().data(), U.reservation().size(), T);
  }

  /// Removes a previously placed unit (used when a component schedule is
  /// merged or a trial placement is rolled back).
  void remove(const ScheduleUnit &U, int T);

  /// Span forms of the placement queries, used by the modulo scheduler's
  /// hot path for aggregate (super-node) reservations that are not backed
  /// by a ScheduleUnit. Linear in the number of uses: per-row increments
  /// are accumulated in a scratch buffer so a unit folding onto itself
  /// (length > s) still counts its own collisions.
  bool canPlace(const ResourceUse *Uses, size_t NumUses, int T) const;
  void place(const ResourceUse *Uses, size_t NumUses, int T);

  /// Clears all rows (cheaper than re-constructing when scheduling many
  /// components at the same interval).
  void reset() { std::fill(Rows.begin(), Rows.end(), 0u); }

  unsigned interval() const { return S; }
  unsigned usedAt(int Row, unsigned Res) const;

private:
  unsigned rowOf(int T, unsigned Offset) const {
    int64_t C = static_cast<int64_t>(T) + Offset;
    int64_t R = C % static_cast<int64_t>(S);
    return static_cast<unsigned>(R < 0 ? R + S : R);
  }

  const MachineDescription &MD;
  unsigned S;
  std::vector<unsigned> Rows; ///< S x numResources, row-major.
  /// Scratch for the O(uses) self-collision accumulation in canPlace.
  mutable std::vector<unsigned> Scratch;    ///< Same shape as Rows.
  mutable std::vector<unsigned> Touched;    ///< Dirty Scratch slots.
};

} // namespace swp

#endif // SWP_SCHED_RESERVATIONTABLES_H
