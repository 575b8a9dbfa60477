//===- SmallVecTests.cpp - inline-first vector ------------------------------===//
//
// Part of warp-swp.
//
// SmallVec keeps an operation's short lists (operands, subscript terms,
// predicates) inside the operation and spills to the heap past its inline
// capacity. These cases walk both states and every transition between
// them: growth past N, copy and move construction and assignment across
// each inline/spilled pairing, self-assignment, insert/erase/==, and an
// argument that aliases the storage being regrown. The suite carries the
// "compile" label, so the asan preset runs the spill paths under the
// address and UB sanitizers.
//
//===----------------------------------------------------------------------===//

#include "swp/Codegen/VLIWProgram.h"
#include "swp/DDG/ScheduleUnit.h"
#include "swp/Support/SmallVec.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

using namespace swp;

namespace {

using Vec = SmallVec<int, 3>;

/// A vector holding Base, Base+1, ...: two elements (inline) or five
/// (spilled).
Vec make(bool Spilled, int Base) {
  Vec V;
  for (int I = 0; I < (Spilled ? 5 : 2); ++I)
    V.push_back(Base + I);
  EXPECT_EQ(V.onHeap(), Spilled);
  return V;
}

std::vector<int> elems(const Vec &V) { return {V.begin(), V.end()}; }

const char *state(bool Spilled) { return Spilled ? "spilled" : "inline"; }

TEST(SmallVec, PushPastInlineCapacitySpills) {
  Vec V;
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.capacity(), 3u);
  for (int I = 0; I < 3; ++I)
    V.push_back(I);
  EXPECT_FALSE(V.onHeap());
  V.push_back(3);
  EXPECT_TRUE(V.onHeap());
  EXPECT_GE(V.capacity(), 4u);
  for (int I = 4; I < 100; ++I)
    V.emplace_back(I);
  ASSERT_EQ(V.size(), 100u);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(V[I], I);
  EXPECT_EQ(V.front(), 0);
  EXPECT_EQ(V.back(), 99);
  EXPECT_EQ(V.data(), &V[0]);
  V.pop_back();
  EXPECT_EQ(V.back(), 98);

  // clear() keeps the block for reuse, like std::vector.
  size_t Cap = V.capacity();
  V.clear();
  EXPECT_TRUE(V.empty());
  EXPECT_TRUE(V.onHeap());
  EXPECT_EQ(V.capacity(), Cap);
  V.push_back(7);
  EXPECT_EQ(elems(V), std::vector<int>{7});
}

TEST(SmallVec, ConstructReserveResize) {
  Vec A = {1, 2};
  EXPECT_EQ(elems(A), (std::vector<int>{1, 2}));
  EXPECT_FALSE(A.onHeap());
  std::vector<int> Src = {5, 6, 7, 8};
  Vec B(Src.begin(), Src.end());
  EXPECT_EQ(elems(B), Src);
  EXPECT_TRUE(B.onHeap());
  B = {9};
  EXPECT_EQ(elems(B), std::vector<int>{9});

  Vec C;
  C.reserve(3);
  EXPECT_FALSE(C.onHeap()) << "reserving within N stays inline";
  C.reserve(10);
  EXPECT_TRUE(C.onHeap());
  EXPECT_EQ(C.capacity(), 10u);
  C.resize(4, 2);
  EXPECT_EQ(elems(C), (std::vector<int>{2, 2, 2, 2}));
  C.resize(1);
  EXPECT_EQ(elems(C), std::vector<int>{2});
  C.resize(3);
  EXPECT_EQ(elems(C), (std::vector<int>{2, 0, 0}));

  // Sizes past the 31-bit count are refused before anything is allocated.
  EXPECT_THROW(C.reserve(size_t{1} << 31), std::length_error);
  EXPECT_EQ(elems(C), (std::vector<int>{2, 0, 0}));

  // Aggregates construct in place, as with std::vector::emplace_back.
  SmallVec<AffineExpr::Term, 2> Terms;
  Terms.emplace_back(3u, int64_t{-4});
  EXPECT_EQ(Terms[0].LoopId, 3u);
  EXPECT_EQ(Terms[0].Coef, -4);
}

TEST(SmallVec, CopyAndMoveAcrossInlineAndSpilled) {
  for (bool SrcSpilled : {false, true}) {
    SCOPED_TRACE(state(SrcSpilled));
    const Vec Src = make(SrcSpilled, 10);
    const std::vector<int> Want = elems(Src);

    Vec Copy(Src);
    EXPECT_EQ(elems(Copy), Want);
    EXPECT_EQ(Copy.onHeap(), SrcSpilled);
    Copy[0] = -1; // A deep copy: the source does not see this.
    EXPECT_EQ(elems(Src), Want);

    Vec Donor(Src);
    Vec Moved(std::move(Donor));
    EXPECT_EQ(elems(Moved), Want);
    EXPECT_EQ(Moved.onHeap(), SrcSpilled);
    EXPECT_TRUE(Donor.empty());
    EXPECT_FALSE(Donor.onHeap()) << "a moved-from vector is empty and inline";
    Donor.push_back(1); // and usable.
    EXPECT_EQ(elems(Donor), std::vector<int>{1});

    for (bool DstSpilled : {false, true}) {
      SCOPED_TRACE(state(DstSpilled));
      Vec CopyDst = make(DstSpilled, 100);
      CopyDst = Src;
      EXPECT_EQ(elems(CopyDst), Want);
      EXPECT_EQ(elems(Src), Want);

      Vec MoveDst = make(DstSpilled, 100);
      Vec MoveSrc(Src);
      MoveDst = std::move(MoveSrc);
      EXPECT_EQ(elems(MoveDst), Want);
      EXPECT_TRUE(MoveSrc.empty());
      MoveSrc = MoveDst; // A moved-from vector takes assignment.
      EXPECT_EQ(elems(MoveSrc), Want);
    }
  }

  // A spilled vector shrunk back within N copies into inline storage.
  Vec Shrunk = make(true, 0);
  while (Shrunk.size() > 2)
    Shrunk.pop_back();
  Vec Small(Shrunk);
  EXPECT_FALSE(Small.onHeap());
  EXPECT_EQ(elems(Small), (std::vector<int>{0, 1}));
}

TEST(SmallVec, SelfAssignmentKeepsContents) {
  for (bool Spilled : {false, true}) {
    SCOPED_TRACE(state(Spilled));
    Vec V = make(Spilled, 20);
    const std::vector<int> Want = elems(V);
    Vec &Alias = V;
    V = Alias;
    EXPECT_EQ(elems(V), Want);
    V = std::move(Alias);
    EXPECT_EQ(elems(V), Want);
    EXPECT_EQ(V.onHeap(), Spilled);
  }
}

TEST(SmallVec, InsertEraseAndEquality) {
  for (bool Spilled : {false, true}) {
    SCOPED_TRACE(state(Spilled));
    Vec V = make(Spilled, 1);
    std::vector<int> Ref = elems(V);

    EXPECT_EQ(*V.insert(V.begin(), 0), 0);
    Ref.insert(Ref.begin(), 0);
    EXPECT_EQ(*V.insert(V.begin() + 2, 42), 42);
    Ref.insert(Ref.begin() + 2, 42);
    V.insert(V.end(), 9);
    Ref.push_back(9);
    EXPECT_EQ(elems(V), Ref);
    EXPECT_TRUE(V.onHeap()) << "the inserts ran past N";

    EXPECT_EQ(*V.erase(V.begin() + 2), Ref[3]);
    Ref.erase(Ref.begin() + 2);
    Vec::iterator AtEnd = V.erase(V.end() - 1);
    EXPECT_EQ(AtEnd, V.end());
    Ref.pop_back();
    V.erase(V.begin(), V.begin() + 2);
    Ref.erase(Ref.begin(), Ref.begin() + 2);
    EXPECT_EQ(elems(V), Ref);
  }

  // Equality compares elements, not storage.
  Vec Inline = {1, 2};
  Vec Spilled = make(true, 1);
  while (Spilled.size() > 2)
    Spilled.pop_back();
  ASSERT_TRUE(Spilled.onHeap());
  EXPECT_TRUE(Inline == Spilled);
  Spilled.push_back(3);
  EXPECT_FALSE(Inline == Spilled);
  Spilled = {1, 5};
  EXPECT_TRUE(Inline != Spilled);
  EXPECT_TRUE(Vec() == Vec());
}

// An argument that names an element of the vector being regrown must be
// read before the old storage is freed (ASan reports a use after free
// otherwise).
TEST(SmallVec, AliasingArgumentSurvivesGrowth) {
  Vec V = {1, 2, 3};
  V.push_back(V[0]);
  EXPECT_EQ(elems(V), (std::vector<int>{1, 2, 3, 1}));
  while (V.size() < V.capacity())
    V.push_back(0);
  V.insert(V.begin(), V.back());
  EXPECT_EQ(V[0], 0);
  EXPECT_EQ(V[1], 1);
  Vec W = {4, 5, 6};
  W.resize(5, W[2]);
  EXPECT_EQ(elems(W), (std::vector<int>{4, 5, 6, 6, 6}));
}

// The inline lists keep the owning types compact: no larger than the
// std::vector header for the 4-byte-element lists, and the IR and
// machine ops within the figures recorded in DESIGN.md section 5.
TEST(SmallVec, InlineListsKeepTheTypesCompact) {
  EXPECT_LE(sizeof(SmallVec<VReg, 3>), sizeof(std::vector<VReg>));
  EXPECT_LE(sizeof(SmallVec<PredTerm, 1>), sizeof(std::vector<PredTerm>));
  EXPECT_LE(sizeof(SmallVec<PredPhys, 1>), sizeof(std::vector<PredPhys>));
  EXPECT_LE(sizeof(MachOp), 152u);
  EXPECT_LE(sizeof(Operation), 120u);
  EXPECT_LE(sizeof(UnitOp), 144u);
}

} // namespace
