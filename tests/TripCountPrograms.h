//===- TripCountPrograms.h - loops reaching every dispatch -*- C++ -*-===//
//
// Part of warp-swp.
//
// The compiler picks a loop's code shape from its trip count: nothing for
// a static zero trip, a plain counted run for a trip count too short to
// fill the pipeline, a remainder split for a static or runtime count, and
// a guard around the whole loop for a runtime outer bound. The shipped
// workloads reach some of these shapes rarely or never, so the emitted-code
// golden and the differential suite compile these two small programs too.
//
//===----------------------------------------------------------------------===//

#ifndef SWP_TESTS_TRIPCOUNTPROGRAMS_H
#define SWP_TESTS_TRIPCOUNTPROGRAMS_H

#include "swp/IR/IRBuilder.h"
#include "swp/Workloads/Workloads.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// c[i] = 3 a[i] + 1 for i in [0, N). On the Warp cell it modulo-schedules
/// at II 2 with 9 stages and unroll 1, so it pipelines from 9 trips on.
inline swp::WorkloadSpec scaleAddSpec(int64_t N) {
  swp::WorkloadSpec Spec;
  Spec.Name = "scale-add-n" + std::to_string(N);
  Spec.Make = [N] {
    using namespace swp;
    BuiltWorkload W;
    W.Prog = std::make_unique<Program>();
    Program &P = *W.Prog;
    IRBuilder B(P);
    unsigned A = P.createArray("a", RegClass::Float, 16);
    unsigned C = P.createArray("c", RegClass::Float, 16);
    VReg Three = B.fconst(3.0);
    VReg One = B.fconst(1.0);
    ForStmt *I = B.beginForImm(0, N - 1);
    B.fstore(C, B.ix(I), B.fadd(B.fmul(Three, B.fload(A, B.ix(I))), One));
    B.endFor();
    for (int K = 0; K != 16; ++K)
      W.Input.FloatArrays[A].push_back(0.5f * K - 1.0f);
    return W;
  };
  return Spec;
}

/// FOR i := 1 TO n, n a live-in integer set to \p N, around the 16-trip
/// inner loop c[16(i-1) + j] = 3 a[16(i-1) + j] + 1. The code does not
/// depend on \p N; only the input does.
inline swp::WorkloadSpec runtimeOuterSpec(int64_t N) {
  swp::WorkloadSpec Spec;
  Spec.Name = "runtime-outer-n" + std::to_string(N);
  Spec.Make = [N] {
    using namespace swp;
    BuiltWorkload W;
    W.Prog = std::make_unique<Program>();
    Program &P = *W.Prog;
    IRBuilder B(P);
    unsigned A = P.createArray("a", RegClass::Float, 64);
    unsigned C = P.createArray("c", RegClass::Float, 64);
    VReg Count = P.createVReg(RegClass::Int, "n", /*LiveIn=*/true);
    VReg Three = B.fconst(3.0);
    VReg One = B.fconst(1.0);
    ForStmt *I = B.beginFor(LoopBound::imm(1), LoopBound::reg(Count));
    ForStmt *J = B.beginForImm(0, 15);
    AffineExpr Sub = B.ix(I, 16, -16) + B.ix(J);
    B.fstore(C, Sub, B.fadd(B.fmul(Three, B.fload(A, Sub)), One));
    B.endFor();
    B.endFor();
    W.Input.IntScalars[Count.Id] = N;
    for (int K = 0; K != 64; ++K)
      W.Input.FloatArrays[A].push_back(0.25f * K - 2.0f);
    return W;
  };
  return Spec;
}

/// One program per dispatch shape: scale-add at 0, 1, 2, 3 and 5 trips,
/// and the runtime outer loop at n = 3.
inline std::vector<swp::WorkloadSpec> tripCountPrograms() {
  std::vector<swp::WorkloadSpec> Specs;
  for (int64_t N : {0, 1, 2, 3, 5})
    Specs.push_back(scaleAddSpec(N));
  Specs.push_back(runtimeOuterSpec(3));
  return Specs;
}

#endif // SWP_TESTS_TRIPCOUNTPROGRAMS_H
