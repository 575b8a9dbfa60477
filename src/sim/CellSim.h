//===- src/sim/CellSim.h - Steppable single-cell simulator ------*- C++ -*-===//
//
// Part of warp-swp. Internal to the sim library: the cycle-steppable cell
// used by both the single-cell simulate() entry point and the array
// co-simulator. See swp/Sim/Simulator.h for the timing rules.
//
//===----------------------------------------------------------------------===//

#ifndef SWP_SIM_CELLSIM_H
#define SWP_SIM_CELLSIM_H

#include "swp/Sim/Simulator.h"

#include <array>
#include <span>

namespace swp {
namespace simdetail {

/// A FIFO channel between cells (or between a cell and the outside).
/// Capacity bounds the backlog of unconsumed words, like Warp's 512-word
/// queues.
struct Channel {
  std::vector<float> Data;
  size_t ReadCursor = 0;
  size_t Capacity = SIZE_MAX;
  /// No producer will ever push again (array input, or the upstream cell
  /// halted): a pop on empty is then a hard error, not a stall.
  bool Closed = false;

  size_t backlog() const { return Data.size() - ReadCursor; }
  bool canPop(size_t N) const { return backlog() >= N; }
  bool canPush(size_t N) const { return backlog() + N <= Capacity; }
};

/// One cell, advanced cycle by cycle. In-flight results and resource
/// reservations live in rings sized once from the MachineDescription, and
/// the per-opcode timing is looked up in a table, so once the reusable
/// vectors reach their working size a cycle allocates nothing.
class CellSim {
public:
  CellSim(const VLIWProgram &Code, const Program &P,
          const MachineDescription &MD, const ProgramInput &Input,
          Channel *In, Channel *Out);

  enum class Status { Running, Stalled, Halted, Failed };

  /// Runs until the cell halts or fails, or until cycles() reaches
  /// \p Until, whichever comes first. Each cycle issues one instruction
  /// or stalls on channel flow control; an idle instruction (see
  /// InstList) only lands the cycle's writebacks and moves on.
  Status run(uint64_t Until);
  /// Advances one cycle (or stalls on channel flow control).
  Status step() { return run(Cycle + 1); }

  Status status() const { return Current; }
  uint64_t cycles() const { return Cycle; }
  uint64_t stallCycles() const { return Stalls; }

  /// Drains in-flight writes and finalizes counters/MFLOPS.
  SimResult takeResult();

private:
  void fail(const std::string &Msg);
  bool predsHold(const MachOp &Op) const;
  void scheduleWrite(PhysReg Reg, unsigned Latency, float FV, int64_t IV);
  void applyWritebacks(uint64_t At);
  int64_t evalIndex(const MachOp &Op) const;
  void auditResources(std::span<const ResourceUse> Uses);
  void execOp(const MachOp &Op);

  const VLIWProgram &Code;
  const Program &P;
  const MachineDescription &MD;

  /// What executing an opcode needs from the machine, indexed by opcode.
  struct OpTiming {
    unsigned Latency = 1;
    bool IsFlop = false;
    std::span<const ResourceUse> Uses; ///< Into MD's reservation pattern.
  };
  std::array<OpTiming, NumOpcodes> Timing;

  SimResult Result;
  std::vector<float> FRegs;
  std::vector<int64_t> IRegs;
  std::vector<int64_t> LoopVars;
  struct PendingWrite {
    PhysReg Reg;
    float FVal;
    int64_t IVal;
  };
  /// Results in flight: those landing at execution cycle At sit in slot
  /// At & PendingMask. The ring has more slots than the largest latency,
  /// so an issue never lands in the slot being applied.
  std::vector<std::vector<PendingWrite>> Pending;
  uint64_t PendingMask = 0;
  /// Per register, 1 + the execution cycle of its latest writeback: a
  /// second landing with the same stamp is a write-write collision.
  std::vector<uint64_t> FStamp;
  std::vector<uint64_t> IStamp;
  /// Units reserved per cycle and resource: row At & ResMask, NumRes
  /// wide. Rows cover the longest reservation offset and are zeroed when
  /// Exec moves past them.
  std::vector<unsigned> ResUse;
  uint64_t ResMask = 0;
  unsigned NumRes = 0;
  /// Per-resource busy unit-cycles accumulated over the run, for the
  /// dynamic UtilizationReport. Indexed by resource id.
  std::vector<uint64_t> UtilBusy;
  Channel *In;
  Channel *Out;

  /// Wall-clock cycles (stalls included) and the execution clock that
  /// only advances when the cell is not frozen: a queue stall freezes the
  /// whole cell, in-flight pipelines included, exactly like the hardware
  /// flow control — otherwise results would land "early" relative to the
  /// schedule and break its anti-dependences.
  uint64_t Cycle = 0;
  uint64_t Exec = 0;
  uint64_t Stalls = 0;
  uint64_t InputStalls = 0;
  uint64_t OutputStalls = 0;
  size_t PC = 0;
  Status Current = Status::Running;

  struct StoreCommit {
    unsigned ArrayId;
    int64_t Index;
    float FVal;
    int64_t IVal;
    bool IsFloat;
  };
  std::vector<StoreCommit> StoresThisCycle;
  std::vector<float> SendsThisCycle;
};

} // namespace simdetail
} // namespace swp

#endif // SWP_SIM_CELLSIM_H
