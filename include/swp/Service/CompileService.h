//===- swp/Service/CompileService.h - Batched compile front end -*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md section 10.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service-level front end over compileProgram: accepts batches of
/// compile jobs, deduplicates identical requests by whole-program
/// fingerprint, and shards independent compiles across a thread pool
/// (the process-wide ThreadPool::global() unless one is injected).
///
/// Two layers of reuse, both keyed by the (program, machine, options)
/// fingerprint of jobKey:
///  - an in-memory memo of finished CompileResults — a warm repeat
///    request costs a fingerprint walk plus a copy, no compilation at all;
///  - single-flight dedup of in-flight work: concurrent requests for the
///    same fingerprint wait on the one running compile and copy its
///    result instead of racing.
/// A copied result shares its instruction list (InstList) with the
/// compile that produced it, so the memo, its hits and the followers of
/// one flight hold one copy of the code; each keeps its own report,
/// error string and live-in map.
///
/// Determinism contract: compileProgram is a pure function of (program,
/// machine, options), so memoized, coalesced, and batched results are
/// bit-identical to serial one-at-a-time compiles. Tests enforce this.
/// Budgeted or chaos-armed jobs are compiled directly and never memoized
/// (their outcome is a function of wall-clock or injected faults, not
/// content).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SERVICE_COMPILESERVICE_H
#define SWP_SERVICE_COMPILESERVICE_H

#include "swp/Codegen/Compiler.h"
#include "swp/Support/Fingerprint.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace swp {

class ThreadPool;

/// One compile request. The factory is invoked once per actual compile
/// (compileProgram mutates its input, so every compile needs a fresh
/// instance); requests whose instances fingerprint equal are served by
/// one compilation. A factory that throws fails its request, and every
/// request coalesced onto it, with Ok = false and an error naming the
/// failure; that result is never memoized.
struct CompileJob {
  std::function<std::unique_ptr<Program>()> Make;
  const MachineDescription *MD = nullptr;
  CompilerOptions Opts;
  /// Precomputed jobKey(instance, *MD, Opts) for this request. When set,
  /// memoized and coalesced requests are served without materializing the
  /// program at all — the factory runs only when a compile is actually
  /// needed. The caller owns the contract that the key matches what Make
  /// produces; a wrong key returns the wrong program's code.
  std::optional<Fingerprint> Key;
  /// Per-request budget/cancellation tracker (not owned; the session API
  /// arms one per submission). A tracker-armed job still hits the memo
  /// but never joins or leads a single-flight group — a cancelled leader
  /// must not hand its aborted result to innocent followers — and its
  /// result is memoized only when the tracker never tripped. A tracker
  /// whose budget carries real ceilings makes the job wall-clock
  /// dependent, so it compiles directly like an inline-budgeted one.
  BudgetTracker *Tracker = nullptr;
};

/// Service counters (monotonic since construction).
struct ServiceStats {
  uint64_t Requests = 0; ///< Jobs submitted.
  uint64_t Compiles = 0; ///< compileProgram actually ran.
  uint64_t MemoHits = 0; ///< Served from the finished-result memo.
  uint64_t Coalesced = 0;///< Waited on an identical in-flight compile.

  /// Compact sorted-key JSON object.
  std::string toJson() const;
};

class CompileService {
public:
  struct Config {
    /// Pool for compileBatch; null = ThreadPool::global(). Injected pools
    /// let tests pin widths.
    ThreadPool *Pool = nullptr;
    /// Whole-result memoization (off leaves only single-flight dedup).
    bool MemoizeResults = true;
    size_t MemoMaxEntries = 1024;
    size_t MemoMaxBytes = 256u << 20;
    unsigned MemoShards = 8;
  };

  CompileService() : CompileService(Config()) {}
  explicit CompileService(Config C);

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Compiles one job through the memo / single-flight stack.
  CompileResult compileOne(const CompileJob &Job);

  /// Compiles a batch across the pool; results come back in job order and
  /// are bit-identical to calling compileOne serially (which is itself
  /// bit-identical to bare compileProgram calls).
  std::vector<CompileResult> compileBatch(const std::vector<CompileJob> &Jobs);

  ServiceStats stats() const;

  /// The key compileOne dedups on (exposed for tests): program structure,
  /// machine model, and every code- or report-shaping option.
  static Fingerprint jobKey(const Program &P, const MachineDescription &MD,
                            const CompilerOptions &Opts);

  /// The bytes the memo charges \p R against Config::MemoMaxBytes (exposed
  /// for tests): the result, its instruction list's bytes (counted once
  /// when the list was built, see InstList::bytes), the live-in map and
  /// the loop reports. Constant time: it walks no code.
  static size_t resultBytes(const CompileResult &R);

private:
  struct Flight {
    std::mutex Mu;
    std::condition_variable Ready;
    bool Done = false;
    CompileResult Result;
  };

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
  std::mutex FlightsMu;
  std::unordered_map<Fingerprint, std::shared_ptr<Flight>, FingerprintHash>
      Flights;

  mutable std::atomic<uint64_t> Requests{0};
  mutable std::atomic<uint64_t> Compiles{0};
  mutable std::atomic<uint64_t> MemoHits{0};
  mutable std::atomic<uint64_t> Coalesced{0};
};

} // namespace swp

#endif // SWP_SERVICE_COMPILESERVICE_H
