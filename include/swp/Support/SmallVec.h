//===- swp/Support/SmallVec.h - Vector with inline storage ------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md section 5.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SmallVec<T, N>: a vector that keeps up to N elements inside the object
/// and moves them to one heap block only past N. An operation's lists are
/// short (0-3 operands, 0-2 subscript terms, 0-1 predicates), and as
/// std::vectors each non-empty one was a heap block of its own, so
/// building, copying and freeing a program or a compile result paid one
/// allocation per list. Held inline they cost nothing beyond their owner.
/// N is the common case, not a limit: loop and conditional nesting are
/// unbounded, and a longer list spills to the heap.
///
/// Elements must be trivially copyable (register ids, subscript terms,
/// predicate terms): storage moves by memcpy and is never destroyed
/// element by element. The interface is the std::vector subset the tree
/// uses, so readers keep `for (x : V)`, `V.size()` and `V[i]`.
///
/// Layout: a 32-bit word (the size, with the top bit set once the
/// elements live on the heap), then a buffer that holds either the N
/// inline elements or the heap pointer and its capacity. A
/// SmallVec<PhysReg, 3> is 28 bytes; a std::vector of three PhysRegs is
/// a 24-byte header plus a 32-byte heap chunk.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SUPPORT_SMALLVEC_H
#define SWP_SUPPORT_SMALLVEC_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace swp {

template <typename T, unsigned N> class SmallVec {
  static_assert(N > 0, "SmallVec needs room for at least one element");
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec moves its elements by memcpy");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "SmallVec spills through plain operator new");

public:
  using value_type = T;
  using size_type = size_t;
  using reference = T &;
  using const_reference = const T &;
  using iterator = T *;
  using const_iterator = const T *;

  SmallVec() = default;
  SmallVec(std::initializer_list<T> IL) { append(IL.begin(), IL.end()); }
  template <std::forward_iterator It> SmallVec(It First, It Last) {
    append(First, Last);
  }
  SmallVec(const SmallVec &O) {
    if (O.onHeap())
      append(O.begin(), O.end());
    else
      copyInline(O);
  }
  SmallVec(SmallVec &&O) noexcept { take(O); }
  ~SmallVec() { release(); }

  SmallVec &operator=(const SmallVec &O) {
    if (this == &O)
      return *this;
    if (!onHeap() && !O.onHeap())
      copyInline(O);
    else
      assign(O.begin(), O.end());
    return *this;
  }
  SmallVec &operator=(SmallVec &&O) noexcept {
    if (this != &O) {
      release();
      take(O);
    }
    return *this;
  }
  SmallVec &operator=(std::initializer_list<T> IL) {
    assign(IL.begin(), IL.end());
    return *this;
  }

  size_t size() const { return Bits & ~HeapBit; }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return onHeap() ? heapCap() : N; }
  /// True once the elements have spilled to a heap block.
  bool onHeap() const { return (Bits & HeapBit) != 0; }

  T *data() { return onHeap() ? heapPtr() : inlinePtr(); }
  const T *data() const { return onHeap() ? heapPtr() : inlinePtr(); }
  iterator begin() { return data(); }
  iterator end() { return data() + size(); }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }

  T &operator[](size_t I) {
    assert(I < size() && "SmallVec index out of range");
    return data()[I];
  }
  const T &operator[](size_t I) const {
    assert(I < size() && "SmallVec index out of range");
    return data()[I];
  }
  T &front() { return (*this)[0]; }
  const T &front() const { return (*this)[0]; }
  T &back() { return (*this)[size() - 1]; }
  const T &back() const { return (*this)[size() - 1]; }

  void push_back(const T &V) { emplace_back(V); }
  template <typename... As> T &emplace_back(As &&...Args) {
    // Build first: an argument may refer into storage that growing frees.
    T V(std::forward<As>(Args)...);
    if (size() == capacity())
      grow(2 * capacity());
    T *Slot = ::new (data() + size()) T(V);
    ++Bits;
    return *Slot;
  }
  void pop_back() {
    assert(!empty() && "pop_back on an empty SmallVec");
    --Bits;
  }
  /// Drops every element; a heap block stays for reuse, as in std::vector.
  void clear() { Bits &= HeapBit; }

  void reserve(size_t Cap) {
    if (Cap > capacity())
      grow(Cap);
  }
  void resize(size_t Count, const T &V = T()) {
    T Copy = V;
    reserve(Count);
    for (size_t I = size(); I < Count; ++I)
      ::new (data() + I) T(Copy);
    setSize(Count);
  }

  iterator insert(const_iterator Pos, const T &V) {
    size_t At = static_cast<size_t>(Pos - begin());
    assert(At <= size() && "insert position out of range");
    T Copy = V;
    if (size() == capacity())
      grow(2 * capacity());
    T *P = data();
    std::memmove(static_cast<void *>(P + At + 1), P + At,
                 (size() - At) * sizeof(T));
    ::new (P + At) T(Copy);
    ++Bits;
    return P + At;
  }
  iterator erase(const_iterator Pos) { return erase(Pos, Pos + 1); }
  iterator erase(const_iterator First, const_iterator Last) {
    T *P = data();
    size_t From = static_cast<size_t>(First - P);
    size_t To = static_cast<size_t>(Last - P);
    assert(From <= To && To <= size() && "erase range out of range");
    std::memmove(static_cast<void *>(P + From), P + To,
                 (size() - To) * sizeof(T));
    setSize(size() - (To - From));
    return P + From;
  }

  friend bool operator==(const SmallVec &A, const SmallVec &B) {
    return std::equal(A.begin(), A.end(), B.begin(), B.end());
  }

private:
  static constexpr uint32_t HeapBit = 1u << 31;
  static constexpr size_t HeapBytes = sizeof(T *) + sizeof(uint32_t);
  static constexpr size_t BufBytes = std::max(N * sizeof(T), HeapBytes);

  T *inlinePtr() { return reinterpret_cast<T *>(Buf); }
  const T *inlinePtr() const { return reinterpret_cast<const T *>(Buf); }
  // On the heap, Buf holds the block pointer then its capacity. Buf is
  // aligned for T only, so both go through memcpy.
  T *heapPtr() const {
    T *P = nullptr;
    std::memcpy(&P, Buf, sizeof(P));
    return P;
  }
  uint32_t heapCap() const {
    uint32_t C = 0;
    std::memcpy(&C, Buf + sizeof(T *), sizeof(C));
    return C;
  }
  void setSize(size_t S) {
    Bits = (Bits & HeapBit) | static_cast<uint32_t>(S);
  }

  /// Moves the elements into a heap block of \p Cap elements.
  void grow(size_t Cap) {
    if (Cap >= HeapBit)
      throw std::length_error("SmallVec size overflow");
    T *P = static_cast<T *>(::operator new(Cap * sizeof(T)));
    if (size())
      std::memcpy(static_cast<void *>(P), data(), size() * sizeof(T));
    release();
    auto C = static_cast<uint32_t>(Cap);
    std::memcpy(Buf, &P, sizeof(P));
    std::memcpy(Buf + sizeof(T *), &C, sizeof(C));
    Bits |= HeapBit;
  }

  /// Replaces the contents with [First, Last), which must not alias this
  /// vector's own storage.
  template <typename It> void assign(It First, It Last) {
    clear();
    append(First, Last);
  }

  template <typename It> void append(It First, It Last) {
    size_t Add = static_cast<size_t>(std::distance(First, Last));
    reserve(size() + Add);
    std::uninitialized_copy(First, Last, end());
    setSize(size() + Add);
  }

  /// Frees the heap block, if any; the size word keeps its count.
  void release() {
    if (onHeap())
      ::operator delete(heapPtr());
    Bits &= ~HeapBit;
  }

  /// Copies inline \p O whole: a fixed-size copy of the buffer is a few
  /// moves, where copying size() elements would call memmove. This
  /// vector holds no heap block.
  void copyInline(const SmallVec &O) {
    Bits = O.Bits;
    std::memcpy(Buf, O.Buf, sizeof(Buf));
  }

  /// Takes \p O's elements (its heap block, or a copy of its inline ones)
  /// and leaves \p O empty and inline. This vector holds no heap block.
  void take(SmallVec &O) {
    copyInline(O);
    O.Bits = 0;
  }

  uint32_t Bits = 0; ///< Size; HeapBit once spilled.
  /// The inline elements, or the heap pointer and capacity once spilled.
  /// Zeroed at construction, so whole-buffer copies read no
  /// indeterminate bytes.
  alignas(T) unsigned char Buf[BufBytes] = {};
};

} // namespace swp

#endif // SWP_SUPPORT_SMALLVEC_H
