//===- Differential.cpp - Interp-vs-sim differential testing --------------------===//
//
// Part of warp-swp. See Differential.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Verify/Differential.h"

#include "swp/Interp/Interpreter.h"
#include "swp/Sim/Simulator.h"

#include <sstream>

using namespace swp;

namespace {

/// One compile + simulate + interpret pass in one pipelining mode.
/// The interpreter runs on the post-compile program: compilation mutates
/// the IR (library expansion, scalar cleanups), but those rewrites must
/// preserve sequential semantics, so interpreting the mutated program is
/// itself part of what the differential checks.
struct ModeRun {
  bool Ok = false;
  std::string Error;
  bool Pipelined = false;
  uint64_t Cycles = 0;
  std::unique_ptr<Program> Prog;
  ProgramState SimState;
};

ModeRun runMode(const WorkloadSpec &Spec, const MachineDescription &MD,
                CompilerOptions Opts, bool Pipeline, const char *ModeName) {
  ModeRun M;
  Opts.EnablePipelining = Pipeline;
  Opts.ParanoidVerify = true;

  BuiltWorkload W = Spec.Make();
  CompileResult CR = compileProgram(*W.Prog, MD, Opts);
  if (!CR.Ok) {
    M.Error = std::string(ModeName) + ": compile failed: " + CR.Error;
    return M;
  }
  if (!CR.Report.VerifyErrors.empty()) {
    M.Error = std::string(ModeName) +
              ": schedule verifier rejected emitted code: " +
              CR.Report.VerifyErrors.front();
    return M;
  }
  M.Pipelined = CR.Report.numPipelined() != 0;

  SimResult Sim = simulate(CR.Code, *W.Prog, MD, W.Input);
  if (!Sim.State.Ok) {
    M.Error = std::string(ModeName) + ": simulation failed: " +
              Sim.State.Error;
    return M;
  }

  ProgramState Golden = interpret(*W.Prog, W.Input);
  if (!Golden.Ok) {
    M.Error = std::string(ModeName) + ": interpreter failed: " +
              Golden.Error;
    return M;
  }
  std::string Mismatch = compareStates(*W.Prog, Golden, Sim.State);
  if (!Mismatch.empty()) {
    M.Error = std::string(ModeName) + ": interp vs sim: " + Mismatch;
    return M;
  }

  M.Ok = true;
  M.Cycles = Sim.Cycles;
  M.Prog = std::move(W.Prog);
  M.SimState = std::move(Sim.State);
  return M;
}

} // namespace

DiffOutcome swp::runDifferential(const WorkloadSpec &Spec,
                                 const MachineDescription &MD,
                                 const CompilerOptions &Base) {
  DiffOutcome D;
  D.Name = Spec.Name;

  ModeRun Pipe = runMode(Spec, MD, Base, /*Pipeline=*/true, "pipelined");
  if (!Pipe.Ok) {
    D.Error = std::move(Pipe.Error);
    return D;
  }
  ModeRun Seq = runMode(Spec, MD, Base, /*Pipeline=*/false, "baseline");
  if (!Seq.Ok) {
    D.Error = std::move(Seq.Error);
    return D;
  }

  // Both modes matched their own interpreter run; close the triangle by
  // comparing the two simulations against each other (array metadata is
  // identical across the two Make() instances).
  std::string Cross =
      compareStates(*Pipe.Prog, Pipe.SimState, Seq.SimState);
  if (!Cross.empty()) {
    D.Error = "pipelined vs baseline sim: " + Cross;
    return D;
  }

  D.Ok = true;
  D.Pipelined = Pipe.Pipelined;
  D.CyclesPipelined = Pipe.Cycles;
  D.CyclesBaseline = Seq.Cycles;
  return D;
}

std::string swp::FuzzSummary::str() const {
  std::ostringstream OS;
  for (const DiffOutcome &F : Failures)
    OS << F.Name << ": " << F.Error << "\n";
  return OS.str();
}

FuzzSummary swp::runDifferentialFuzz(const FuzzOptions &Opts,
                                     const MachineDescription &MD,
                                     const CompilerOptions &Base) {
  FuzzSummary Sum;
  for (unsigned I = 0; I != Opts.Count; ++I) {
    WorkloadSpec Spec = randomLoopSpec(Opts.Seed + I, Opts.Gen);
    DiffOutcome D = runDifferential(Spec, MD, Base);
    ++Sum.Ran;
    if (D.Pipelined)
      ++Sum.Pipelined;
    if (!D.Ok)
      Sum.Failures.push_back(std::move(D));
  }
  return Sum;
}
