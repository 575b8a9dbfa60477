//===- Fingerprint.cpp - Content fingerprints -----------------------------===//
//
// Part of warp-swp. See Fingerprint.h and DESIGN.md section 10.
//
//===----------------------------------------------------------------------===//

#include "swp/Support/Fingerprint.h"

#include "swp/Codegen/Compiler.h"
#include "swp/IR/Program.h"
#include "swp/Machine/MachineDescription.h"

using namespace swp;

//===----------------------------------------------------------------------===//
// Machine and options fingerprints
//===----------------------------------------------------------------------===//

Fingerprint swp::fingerprintMachine(const MachineDescription &MD) {
  FingerprintHasher H;
  H.absorb(MD.numResources());
  for (unsigned R = 0; R != MD.numResources(); ++R) {
    const Resource &Res = MD.resource(R);
    H.absorbBytes(Res.Name.data(), Res.Name.size());
    H.absorb(Res.Units);
  }
  for (unsigned O = 0; O != NumOpcodes; ++O) {
    Opcode Opc = static_cast<Opcode>(O);
    const OpcodeInfo &Info = MD.opcodeInfoAllowIllegal(Opc);
    H.absorb(Info.Legal ? 1u : 0u);
    if (!Info.Legal)
      continue;
    H.absorb(Info.Latency);
    H.absorb(static_cast<uint64_t>(Info.Result));
    H.absorb(Info.NumOperands);
    H.absorb(Info.IsFlop ? 1u : 0u);
    H.absorb(Info.Uses.size());
    for (const ResourceUse &U : Info.Uses) {
      H.absorb(U.ResId);
      H.absorb(U.Cycle);
      H.absorb(U.Units);
    }
  }
  H.absorb(MD.registerFileSize(RegClass::Float));
  H.absorb(MD.registerFileSize(RegClass::Int));
  // Name and ClockMHz deliberately excluded: they label reports and scale
  // MFLOPS, never schedules.
  return H.finish();
}

Fingerprint swp::fingerprintScheduleOptions(const CompilerOptions &Opts) {
  FingerprintHasher H;
  H.absorb(Opts.EnablePipelining ? 1u : 0u);
  H.absorb(static_cast<uint64_t>(Opts.MVE));
  H.absorb(Opts.MaxLoopLenToPipeline);
  H.absorbDouble(Opts.EfficiencyThreshold);
  H.absorb(Opts.MaxUnroll);
  H.absorb(Opts.ScalarOptimizations ? 1u : 0u);
  H.absorb(Opts.PipelineConditionalLoops ? 1u : 0u);
  H.absorb(Opts.MinLadderRung);
  H.absorb(Opts.Sched.BinarySearch ? 1u : 0u);
  H.absorb(Opts.Sched.MaxStages);
  H.absorb(Opts.Sched.MaxII);
  // Deliberately excluded: Sched.SearchThreads (bit-identical to serial
  // by contract), Budget and ChaosSeed (budgeted and chaos-armed compiles
  // bypass the memo), ParanoidVerify / Explain (report shape, not code;
  // jobKey folds them back in).
  return H.finish();
}

//===----------------------------------------------------------------------===//
// Whole-program fingerprint
//===----------------------------------------------------------------------===//

namespace {

/// Streaming structural hash of a program that keeps raw vreg/array ids
/// and hashes the full symbol tables in declaration order. Exactness is
/// the point: emitted code embeds ids (memory ops address arrays by id,
/// LiveInRegs is keyed by vreg id), so only id-identical programs may
/// share a memoized CompileResult.
class ProgramHasher {
public:
  explicit ProgramHasher(const Program &P) : P(P) {}

  Fingerprint run() {
    H.absorb(P.numLoops());
    H.absorb(P.numVRegs());
    for (unsigned I = 0; I != P.numVRegs(); ++I) {
      const VRegInfo &Info = P.vregInfo(VReg(I));
      H.absorb(static_cast<uint64_t>(Info.RC));
      H.absorb(Info.IsLiveIn ? 1u : 0u);
    }
    H.absorb(P.numArrays());
    for (unsigned I = 0; I != P.numArrays(); ++I) {
      const ArrayInfo &Info = P.arrayInfo(I);
      H.absorb(static_cast<uint64_t>(Info.Elem));
      H.absorbSigned(Info.Size);
      H.absorb(Info.NoAlias ? 1u : 0u);
    }
    walk(P.Body);
    return H.finish();
  }

private:
  void absorbVReg(VReg R) { H.absorb(R.isValid() ? R.Id : ~uint64_t(0)); }

  void absorbBound(const LoopBound &B) {
    H.absorb(B.IsImm ? 1u : 0u);
    if (B.IsImm)
      H.absorbSigned(B.Imm);
    else
      absorbVReg(B.Reg);
  }

  void walk(const StmtList &List) {
    H.absorb(List.size());
    for (const StmtPtr &S : List) {
      switch (S->kind()) {
      case Stmt::Kind::Op: {
        const Operation &Op = static_cast<const OpStmt &>(*S).Op;
        H.absorb(1);
        H.absorb(static_cast<uint64_t>(Op.Opc));
        absorbVReg(Op.Def);
        H.absorb(Op.Operands.size());
        for (VReg R : Op.Operands)
          absorbVReg(R);
        H.absorb(Op.Mem.isValid() ? 1u : 0u);
        if (Op.Mem.isValid()) {
          H.absorb(Op.Mem.ArrayId);
          H.absorb(Op.Mem.Index.Terms.size());
          for (const AffineExpr::Term &T : Op.Mem.Index.Terms) {
            H.absorb(T.LoopId);
            H.absorbSigned(T.Coef);
          }
          H.absorbSigned(Op.Mem.Index.Const);
          absorbVReg(Op.Mem.Index.Addend);
        }
        H.absorbSigned(Op.IImm);
        H.absorbDouble(Op.FImm);
        H.absorbSigned(Op.Queue);
        break;
      }
      case Stmt::Kind::For: {
        const ForStmt &For = static_cast<const ForStmt &>(*S);
        H.absorb(2);
        H.absorb(For.LoopId);
        absorbVReg(For.IndVar);
        absorbBound(For.Lo);
        absorbBound(For.Hi);
        walk(For.Body);
        break;
      }
      case Stmt::Kind::If: {
        const IfStmt &If = static_cast<const IfStmt &>(*S);
        H.absorb(3);
        absorbVReg(If.Cond);
        walk(If.Then);
        walk(If.Else);
        break;
      }
      }
    }
  }

  const Program &P;
  FingerprintHasher H;
};

} // namespace

Fingerprint swp::fingerprintProgramExact(const Program &P) {
  return ProgramHasher(P).run();
}
