//===- swp/Service/CompileService.h - Memoizing compile service -*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md section 10.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service-level front end over compileProgram: one reuse layer, an
/// in-memory memo of finished CompileResults keyed by the (program,
/// machine, options) fingerprint of jobKey. A warm repeat request costs
/// a fingerprint walk plus a copy, no compilation at all. A copied
/// result shares its instruction list (InstList) with the compile that
/// produced it, so the memo and its hits hold one copy of the code; each
/// keeps its own report, error string and live-in map.
///
/// compileOne is thread-safe, and callers bring their own concurrency
/// (the session API runs requests on its pool); two concurrent misses on
/// one key may both compile, and the later insert replaces the earlier.
///
/// Determinism contract: compileProgram is a pure function of (program,
/// machine, options), so memoized results are bit-identical to serial
/// one-at-a-time compiles. Tests enforce this. Budgeted or chaos-armed
/// jobs are compiled directly and never memoized (their outcome is a
/// function of wall-clock or injected faults, not content).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SERVICE_COMPILESERVICE_H
#define SWP_SERVICE_COMPILESERVICE_H

#include "swp/Codegen/Compiler.h"
#include "swp/Support/Fingerprint.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace swp {

/// One compile request. The factory is invoked once per actual compile
/// (compileProgram mutates its input, so every compile needs a fresh
/// instance); a request whose instance fingerprints equal to a memoized
/// one is served from the memo. A factory that throws fails its request
/// with Ok = false and an error naming the failure; that result is never
/// memoized.
struct CompileJob {
  std::function<std::unique_ptr<Program>()> Make;
  const MachineDescription *MD = nullptr;
  CompilerOptions Opts;
  /// Precomputed jobKey(instance, *MD, Opts) for this request. When set,
  /// a memo hit is served without materializing the program at all — the
  /// factory runs only when a compile is actually needed. The caller owns
  /// the contract that the key matches what Make produces; a wrong key
  /// returns the wrong program's code.
  std::optional<Fingerprint> Key;
  /// Per-request budget/cancellation tracker (not owned; the session API
  /// arms one per submission). A tracker-armed job still hits the memo,
  /// and its result is memoized only when the tracker never tripped. A
  /// tracker whose budget carries real ceilings makes the job wall-clock
  /// dependent, so it compiles directly like an inline-budgeted one.
  BudgetTracker *Tracker = nullptr;
};

/// Service counters (monotonic since construction).
struct ServiceStats {
  uint64_t Requests = 0; ///< Jobs submitted.
  uint64_t Compiles = 0; ///< compileProgram actually ran.
  uint64_t MemoHits = 0; ///< Served from the finished-result memo.
  /// Always 0 since API 7.0 (the service has no in-flight dedup); kept
  /// for readers built against earlier releases.
  uint64_t Coalesced = 0;

  /// Compact sorted-key JSON object.
  std::string toJson() const;
};

class CompileService {
public:
  struct Config {
    size_t MemoMaxEntries = 1024;
    size_t MemoMaxBytes = 256u << 20;
    unsigned MemoShards = 8;
  };

  CompileService() : CompileService(Config()) {}
  explicit CompileService(Config C);

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Compiles one job through the memo. Thread-safe.
  CompileResult compileOne(const CompileJob &Job);

  ServiceStats stats() const;

  /// The key compileOne memoizes on (exposed for tests): program structure,
  /// machine model, and every code- or report-shaping option.
  static Fingerprint jobKey(const Program &P, const MachineDescription &MD,
                            const CompilerOptions &Opts);

  /// The bytes the memo charges \p R against Config::MemoMaxBytes (exposed
  /// for tests): the result, its instruction list's bytes (counted once
  /// when the list was built, see InstList::bytes), the live-in map and
  /// the loop reports. Constant time: it walks no code.
  static size_t resultBytes(const CompileResult &R);

private:
  struct MemoShard {
    std::mutex Mu;
    std::list<std::pair<Fingerprint, CompileResult>> Lru;
    std::unordered_map<
        Fingerprint, std::list<std::pair<Fingerprint, CompileResult>>::iterator,
        FingerprintHash>
        Map;
    size_t Bytes = 0;
  };

  bool memoLookup(const Fingerprint &Key, CompileResult &Out);
  void memoInsert(const Fingerprint &Key, const CompileResult &R);

  /// Compiles \p P, first building it with Job.Make when it is null. A
  /// factory that throws leaves \p P null and yields Ok = false with an
  /// error naming the failure, which callers must not memoize.
  CompileResult runCompile(const CompileJob &Job, std::unique_ptr<Program> &P);

  Config Cfg;
  std::vector<MemoShard> Memo;

  mutable std::atomic<uint64_t> Requests{0};
  mutable std::atomic<uint64_t> Compiles{0};
  mutable std::atomic<uint64_t> MemoHits{0};
};

} // namespace swp

#endif // SWP_SERVICE_COMPILESERVICE_H
