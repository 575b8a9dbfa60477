//===- swp/Codegen/Compiler.h - Program-to-VLIW compilation -----*- C++ -*-===//
//
// Part of warp-swp. See DESIGN.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation driver: walks a structured program and emits VLIW code.
/// Innermost loops go through the software pipeliner (hierarchical
/// reduction of conditionals, modulo scheduling, modulo variable
/// expansion, prolog/kernel/epilog emission with the paper's dual-version
/// trip-count dispatch); everything else is locally compacted with the
/// list scheduler. Policy knobs reproduce the paper's engineering: loops
/// beyond a length threshold are not pipelined (kernel 22), loops whose II
/// lower bound is within a hair of the unpipelined length are not worth
/// pipelining (kernels 16 and 20), and register-file overflow falls back
/// to the unpipelined schedule (section 2.3).
///
/// CompilerOptions owns the full option surface — including the modulo
/// scheduler search knobs and the MVE policy — behind one validated
/// finalize(); compilation returns a structured CompileReport instead of
/// per-loop strings (see CompileReport.h).
///
//===----------------------------------------------------------------------===//

#ifndef SWP_CODEGEN_COMPILER_H
#define SWP_CODEGEN_COMPILER_H

#include "swp/Codegen/CompileReport.h"
#include "swp/Codegen/VLIWProgram.h"
#include "swp/IR/Program.h"
#include "swp/Pipeliner/ModuloScheduler.h"
#include "swp/Pipeliner/ModuloVariableExpansion.h"
#include "swp/Support/Diagnostics.h"

#include <string>
#include <vector>

namespace swp {

class BudgetTracker;

/// Machine-checkable reasons CompilerOptions::validate() can reject an
/// option set. Each kind names one contradictory (or meaningless) combo;
/// the paired message explains it to a human. Stable: the public API
/// surfaces these to remote callers.
enum class OptionErrorKind : uint8_t {
  BadMaxUnroll,          ///< MaxUnroll == 0.
  BadLoopLenCap,         ///< MaxLoopLenToPipeline == 0.
  BadEfficiencyThreshold,///< EfficiencyThreshold outside (0, 1].
  BadLadderRung,         ///< MinLadderRung > 2.
  ChaosCompiledOut,      ///< ChaosSeed set but faults compiled out.
  ExplainWithoutPipelining, ///< Explain set but EnablePipelining off.
  DuplicateBudget,       ///< Both Tracker and Budget ceilings set.
};

/// Stable identifier string for an OptionErrorKind ("duplicate-budget").
const char *optionErrorKindText(OptionErrorKind K);

/// One typed option-validation finding.
struct OptionDiag {
  OptionErrorKind Kind;
  std::string Message;
};

/// Compilation policy.
struct CompilerOptions {
  /// Master switch: false gives the locally-compacted baseline everywhere.
  bool EnablePipelining = true;
  /// Modulo variable expansion policy (Disabled for ablation A1).
  MVEPolicy MVE = MVEPolicy::MinCodeSize;
  /// Do not attempt to pipeline loops whose locally compacted iteration
  /// exceeds this many instructions (the paper's scheduler refused kernel
  /// 22 at 331 instructions).
  unsigned MaxLoopLenToPipeline = 300;
  /// Skip pipelining when MII >= EfficiencyThreshold * unpipelined length
  /// (the paper skipped kernels 16 and 20 at 99%).
  double EfficiencyThreshold = 0.99;
  /// Cap on the lcm-policy unroll degree before falling back to
  /// MinCodeSize.
  unsigned MaxUnroll = 64;
  /// Run the scalar pre-scheduling optimizations (loop-invariant code
  /// motion, dead code elimination) the W2 compiler applied. They affect
  /// baseline and pipelined builds alike.
  bool ScalarOptimizations = true;
  /// Allow software pipelining of loops containing conditionals (i.e. use
  /// hierarchical reduction). Off reproduces a pipeliner without
  /// section 3 (ablation A3).
  bool PipelineConditionalLoops = true;
  /// Re-check every emitted schedule with the independent verifier
  /// (swp/Verify): dependence edges, modulo reservation rows, MVE
  /// lifetimes, and the emitted prolog/kernel/epilog structure. A finding
  /// fails the compilation (and lands in CompileReport::VerifyErrors and
  /// the DiagnosticEngine, when one is passed).
  bool ParanoidVerify = false;
  /// Fill LoopReport::ExplainText for every pipelined loop: the flat
  /// kernel schedule plus the modulo reservation table, the "explain this
  /// schedule" view behind `w2c --explain`.
  bool Explain = false;
  /// Hard ceilings for the whole compilation (wall-clock, candidate
  /// intervals, node placements; 0 = unlimited). When a ceiling trips,
  /// affected loops walk down the degradation ladder — modulo schedule,
  /// then a two-iteration unrolled list schedule, then one operation at a
  /// time — instead of hanging or failing; the compile stays correct and
  /// reports Degraded decisions with cause BudgetExhausted.
  CompileBudget Budget;
  /// Deterministic fault-injection seed (see swp/Support/FaultInject.h);
  /// 0 = no fault. Armed for the duration of this compileProgram call.
  uint64_t ChaosSeed = 0;
  /// Testing knob for the degradation ladder: the lowest rung innermost
  /// loops may use. 0 = normal compilation, 1 = at most the unrolled list
  /// schedule, 2 = sequential only. Nonzero values exist to prove every
  /// rung end-to-end (bit-identical to the interpreter).
  unsigned MinLadderRung = 0;
  /// External budget/cancellation tracker (not owned; null = none). The
  /// async session API arms one per request so a caller can cancel a
  /// compile mid-flight: the scheduler polls the tracker's token exactly
  /// as it does for an internal budget, and the compile backs out
  /// cooperatively. Mutually exclusive with Budget ceilings — the
  /// tracker carries its own CompileBudget; setting both is rejected by
  /// validate() (OptionErrorKind::DuplicateBudget). A tracker whose
  /// budget has no ceilings is a pure cancellation token and never
  /// perturbs schedules unless tripped.
  BudgetTracker *Tracker = nullptr;
  /// Search options forwarded to the modulo scheduler.
  ModuloScheduleOptions Sched;

  /// Validates the combined option set, returning every contradictory or
  /// meaningless combination as a typed finding (empty when coherent):
  /// degenerate knobs (MaxUnroll == 0, a threshold outside (0, 1]),
  /// silently-ignored combos the async API exposes (Explain with
  /// pipelining disabled, an external Tracker alongside inline Budget
  /// ceilings), and knobs whose support was compiled out (ChaosSeed
  /// without SWP_FAULTS_ENABLED).
  std::vector<OptionDiag> validate() const;

  /// Convenience wrapper over validate(): the first finding's message,
  /// or an empty string when the option set is coherent. compileProgram()
  /// runs this itself and refuses incoherent options, so hand-assembled
  /// combos cannot skew an experiment silently.
  std::string finalize();
};

/// Result of compiling one program.
struct CompileResult {
  bool Ok = false;
  std::string Error;
  VLIWProgram Code;
  /// Structured per-loop decisions and whole-program aggregates.
  CompileReport Report;
};

/// Compiles \p P for \p MD. The program is mutated (library expansion and
/// induction-variable materialization); clone it first if the original
/// matters. Programs must verify cleanly. \p Diags, when non-null,
/// receives compile errors and ParanoidVerify findings.
///
/// This free function is the synchronous one-shot wrapper over the
/// compiler core; swp::Session (swp/API/Session.h) is the primary public
/// façade — it adds named targets, async submission with priorities and
/// cancellation, per-session defaults, and result reuse, and produces
/// results bit-identical to calling this function directly (tests
/// enforce the equivalence). Use compileProgram for a single local
/// compile; use a Session for anything repeated, concurrent, or
/// multi-target.
CompileResult compileProgram(Program &P, const MachineDescription &MD,
                             const CompilerOptions &Opts = {},
                             DiagnosticEngine *Diags = nullptr);

} // namespace swp

#endif // SWP_CODEGEN_COMPILER_H
