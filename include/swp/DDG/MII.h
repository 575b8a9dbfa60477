//===- swp/DDG/MII.h - Lower bounds on the initiation interval --*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two lower bounds of section 2.2: the resource bound (every s cycles
/// must supply the resources one iteration consumes) and the precedence
/// bound (every dependence cycle c must satisfy d(c) - s*p(c) <= 0, i.e.
/// s >= ceil(d(c)/p(c))).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_DDG_MII_H
#define SWP_DDG_MII_H

#include "swp/DDG/DepGraph.h"

namespace swp {

/// Resource-constrained lower bound: max over resources of
/// ceil(total per-iteration use / available units). At least 1.
unsigned resMII(const DepGraph &G, const MachineDescription &MD);

/// Recurrence-constrained lower bound: the smallest s such that the edge
/// weights d - s*p admit no positive cycle. Monotone in s, found by binary
/// search with Bellman-Ford positive-cycle detection. Returns 1 for
/// acyclic graphs. A same-iteration positive cycle (p(c) == 0, d(c) > 0)
/// makes the loop unschedulable at any interval; that is a malformed graph
/// and asserts.
unsigned recMII(const DepGraph &G);

/// The same bound over components already computed by G.sccs().
unsigned recMII(const DepGraph &G, const SCCList &Comps);

/// max(resMII, recMII).
unsigned minimumII(const DepGraph &G, const MachineDescription &MD);

} // namespace swp

#endif // SWP_DDG_MII_H
