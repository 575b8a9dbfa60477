//===- DecodedCode.h - code whose every word the simulator decodes -*- C++ -*-===//
//
// Part of warp-swp.
//
// The simulator steps over idle words (InstList::isIdle) without decoding
// them. The suites that check that path run each program twice: as
// compiled, and with every idle word made inert but not idle, which sends
// the simulator down the ordinary decode path for every word. Both runs
// must agree on every SimResult field.
//
//===----------------------------------------------------------------------===//

#ifndef SWP_TESTS_DECODEDCODE_H
#define SWP_TESTS_DECODEDCODE_H

#include "swp/Codegen/VLIWProgram.h"

#include <vector>

/// \p Code with each idle word given a jump target but no control kind:
/// it still does nothing, but it is no longer idle.
inline std::vector<swp::VLIWInst>
decodeEveryWord(std::vector<swp::VLIWInst> Code) {
  for (swp::VLIWInst &I : Code)
    if (swp::InstList::idle(I))
      I.Ctrl.Target = 1;
  return Code;
}

/// \p Prog with decodeEveryWord applied to its code.
inline swp::VLIWProgram decodeEveryWord(const swp::VLIWProgram &Prog) {
  swp::VLIWProgram Out = Prog;
  Out.Insts = decodeEveryWord(Prog.Insts.expand());
  return Out;
}

#endif // SWP_TESTS_DECODEDCODE_H
