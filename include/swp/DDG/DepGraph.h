//===- swp/DDG/DepGraph.h - Dependence graph with (d, p) edges --*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The precedence-constraint graph of section 2.1: nodes are schedule
/// units, each edge carries a delay \c d and a minimum iteration difference
/// \c p (omega), and a legal schedule sigma must satisfy, for initiation
/// interval s,
///
///   sigma(dst) - sigma(src) >= d - s * p.
///
/// Inter-iteration dependences (p > 0) may create cycles; Tarjan's
/// algorithm exposes the strongly connected components the scheduler treats
/// specially.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_DDG_DEPGRAPH_H
#define SWP_DDG_DEPGRAPH_H

#include "swp/DDG/ScheduleUnit.h"

#include <memory>
#include <span>
#include <vector>

namespace swp {

/// Why a dependence edge exists (for diagnostics and tests).
enum class DepKind : uint8_t {
  Flow,   ///< Write -> read of the same register.
  Anti,   ///< Read -> overwriting write.
  Output, ///< Write -> later write of the same register.
  Mem,    ///< Memory-carried (store/load ordering).
  Queue,  ///< Communication channel ordering.
};

/// One precedence constraint.
struct DepEdge {
  unsigned Src = 0;
  unsigned Dst = 0;
  int Delay = 0;     ///< d: minimum cycle distance (may be <= 0).
  unsigned Omega = 0; ///< p: minimum iteration difference (>= 0).
  DepKind Kind = DepKind::Flow;
};

/// Strongly connected components in one flat array, in topological order
/// of the condensation; (*this)[C] views component C's members.
class SCCList {
public:
  unsigned size() const { return static_cast<unsigned>(Begin.size()) - 1; }
  std::span<const unsigned> operator[](unsigned C) const {
    return {Members.data() + Begin[C], Begin[C + 1] - Begin[C]};
  }

private:
  friend class DepGraph;
  std::vector<unsigned> Members;
  std::vector<unsigned> Begin{0}; ///< numComponents() + 1 offsets.
};

/// Nodes plus adjacency. The schedule units are shared, immutable, between
/// every graph built over them; adjacency is kept as per-node linked lists
/// threaded through flat per-edge arrays, so a graph allocates per graph,
/// never per node or per edge.
class DepGraph {
public:
  explicit DepGraph(std::vector<ScheduleUnit> Units)
      : DepGraph(std::make_shared<const std::vector<ScheduleUnit>>(
            std::move(Units))) {}
  explicit DepGraph(std::shared_ptr<const std::vector<ScheduleUnit>> Units)
      : Units(std::move(Units)), Nodes(this->Units->size()) {}

  unsigned numNodes() const { return Units->size(); }
  const ScheduleUnit &unit(unsigned I) const { return (*Units)[I]; }
  /// The units, for building another graph over them without a copy.
  const std::shared_ptr<const std::vector<ScheduleUnit>> &sharedUnits() const {
    return Units;
  }

  void addEdge(DepEdge E);
  /// Capacity for \p N edges in total.
  void reserveEdges(size_t N) {
    Edges.reserve(N);
    Links.reserve(2 * N);
  }

  /// Indices into edges() of the edges leaving or entering one node, in
  /// insertion order.
  class EdgeRange {
  public:
    class iterator {
    public:
      unsigned operator*() const { return Cur; }
      iterator &operator++() {
        Cur = Links[2 * static_cast<size_t>(Cur) + Side];
        return *this;
      }
      bool operator!=(const iterator &O) const { return Cur != O.Cur; }

    private:
      friend class EdgeRange;
      iterator(const unsigned *Links, unsigned Side, unsigned Cur)
          : Links(Links), Side(Side), Cur(Cur) {}
      const unsigned *Links;
      unsigned Side;
      unsigned Cur;
    };
    iterator begin() const { return {Links, Side, First}; }
    iterator end() const { return {Links, Side, None}; }

  private:
    friend class DepGraph;
    EdgeRange(const unsigned *Links, unsigned Side, unsigned First)
        : Links(Links), Side(Side), First(First) {}
    const unsigned *Links;
    unsigned Side;
    unsigned First;
  };

  const std::vector<DepEdge> &edges() const { return Edges; }
  EdgeRange succs(unsigned I) const {
    return {Links.data(), 0, Nodes[I].FirstSucc};
  }
  EdgeRange preds(unsigned I) const {
    return {Links.data(), 1, Nodes[I].FirstPred};
  }

  /// Strongly connected components under edges of any omega, in
  /// topological order of the condensation (every edge goes from an
  /// earlier to a later component, cycles being intra-component).
  SCCList sccs() const;

  /// The same components as one vector per component.
  std::vector<std::vector<unsigned>> stronglyConnectedComponents() const;

  /// Total uses of each resource by one iteration (for ResMII).
  std::vector<uint64_t>
  totalResourceUse(const MachineDescription &MD) const;

private:
  static constexpr unsigned None = ~0u;
  struct NodeLinks {
    unsigned FirstSucc = None, LastSucc = None;
    unsigned FirstPred = None, LastPred = None;
  };

  std::shared_ptr<const std::vector<ScheduleUnit>> Units;
  std::vector<DepEdge> Edges;
  std::vector<NodeLinks> Nodes;
  /// Links[2e] = next edge leaving e's source, Links[2e + 1] = next edge
  /// entering e's destination (None at the end of a list).
  std::vector<unsigned> Links;
};

} // namespace swp

#endif // SWP_DDG_DEPGRAPH_H
