//===- swp/Support/Fingerprint.h - Content fingerprints ---------*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md section 10.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable 128-bit content fingerprints: the key ingredients of
/// CompileService's whole-result memo and single-flight dedup (see
/// CompileService::jobKey). A job key covers everything a CompileResult
/// depends on and nothing else:
///
///   - the program, exactly: statements in order plus raw vreg/array ids
///     and the full symbol tables (emitted code embeds ids, so only
///     id-identical programs may share a result; names are excluded);
///   - the MachineDescription's resource table and per-opcode latency /
///     reservation data (not its display name or clock rate);
///   - every schedule-relevant CompilerOptions field (not ChaosSeed,
///     verification, explanation, or thread-count knobs: those change how
///     the answer is obtained or reported, never the answer itself —
///     SearchThreads in particular is contractually bit-identical).
///
/// The hash itself is a fixed, platform-independent function (splitmix64
/// finalization over absorbed 64-bit words), so equal inputs fingerprint
/// equal across processes.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SUPPORT_FINGERPRINT_H
#define SWP_SUPPORT_FINGERPRINT_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace swp {

class MachineDescription;
struct CompilerOptions;
class Program;

/// A 128-bit content fingerprint. Value type; totally ordered and
/// hashable so it can key maps.
struct Fingerprint {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  friend bool operator==(const Fingerprint &A, const Fingerprint &B) {
    return A.Hi == B.Hi && A.Lo == B.Lo;
  }
  friend bool operator!=(const Fingerprint &A, const Fingerprint &B) {
    return !(A == B);
  }
  friend bool operator<(const Fingerprint &A, const Fingerprint &B) {
    return A.Hi != B.Hi ? A.Hi < B.Hi : A.Lo < B.Lo;
  }
};

/// Hash functor for unordered containers keyed by Fingerprint.
struct FingerprintHash {
  size_t operator()(const Fingerprint &F) const {
    return static_cast<size_t>(F.Hi ^ (F.Lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Order-sensitive 128-bit hasher over 64-bit words. Deterministic and
/// platform-independent; no seeding, so equal absorb sequences always
/// produce equal fingerprints across processes.
class FingerprintHasher {
public:
  void absorb(uint64_t W) {
    ++Count;
    S0 = mix(S0 ^ (W * 0x9e3779b97f4a7c15ULL));
    S1 = mix(S1 + rotl(W, 29) + Count * 0xbf58476d1ce4e5b9ULL);
  }
  void absorb(const Fingerprint &F) {
    absorb(F.Hi);
    absorb(F.Lo);
  }
  void absorbSigned(int64_t W) { absorb(static_cast<uint64_t>(W)); }
  void absorbDouble(double D) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(D));
    std::memcpy(&Bits, &D, sizeof(Bits));
    absorb(Bits);
  }
  void absorbBytes(const void *Data, size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    uint64_t W = 0;
    size_t I = 0;
    for (; I + 8 <= Len; I += 8) {
      std::memcpy(&W, P + I, 8);
      absorb(W);
    }
    W = 0;
    for (size_t B = 0; I + B < Len; ++B)
      W |= static_cast<uint64_t>(P[I + B]) << (8 * B);
    absorb(W);
    absorb(Len);
  }

  Fingerprint finish() const {
    return {mix(S0 + 0x94d049bb133111ebULL * Count), mix(S1 ^ S0)};
  }

  /// splitmix64 finalizer: the full-avalanche mixing step.
  static uint64_t mix(uint64_t X) {
    X ^= X >> 30;
    X *= 0xbf58476d1ce4e5b9ULL;
    X ^= X >> 27;
    X *= 0x94d049bb133111ebULL;
    X ^= X >> 31;
    return X;
  }

private:
  static uint64_t rotl(uint64_t X, unsigned R) {
    return (X << R) | (X >> (64 - R));
  }
  uint64_t S0 = 0x6a09e667f3bcc908ULL; ///< frac(sqrt(2)); arbitrary fixed IV.
  uint64_t S1 = 0xbb67ae8584caa73bULL; ///< frac(sqrt(3)).
  uint64_t Count = 0;
};

/// Fingerprints the scheduling-relevant machine model: resource names and
/// unit counts, per-opcode legality / latency / reservation usage /
/// operand shape, and register-file sizes. Excludes the display name and
/// clock rate (they scale reporting, not schedules).
Fingerprint fingerprintMachine(const MachineDescription &MD);

/// Fingerprints every CompilerOptions field that can change emitted loop
/// code: EnablePipelining, MVE, MaxUnroll, EfficiencyThreshold,
/// MaxLoopLenToPipeline, ScalarOptimizations, PipelineConditionalLoops,
/// MinLadderRung, and the search policy (Sched.BinarySearch,
/// Sched.MaxStages, Sched.MaxII). Excludes SearchThreads (bit-identical
/// by contract), budgets, chaos seeds, and report-shaping flags.
Fingerprint fingerprintScheduleOptions(const CompilerOptions &Opts);

/// Id-sensitive whole-program fingerprint: raw vreg/array ids plus the
/// full symbol tables. Two programs share it only when they are the same
/// IR modulo names — the safe key for whole-result memoization, where
/// emitted code embeds ids (array addressing, live-in register deposits).
Fingerprint fingerprintProgramExact(const Program &P);

} // namespace swp

#endif // SWP_SUPPORT_FINGERPRINT_H
