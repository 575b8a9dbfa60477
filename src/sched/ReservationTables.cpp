//===- ReservationTables.cpp - Resource bookkeeping --------------------------===//
//
// Part of warp-swp. See ReservationTables.h.
//
//===----------------------------------------------------------------------===//

#include "swp/Sched/ReservationTables.h"

using namespace swp;

bool ReservationTable::canPlace(const ScheduleUnit &U, int T) const {
  assert(T >= 0 && "straight-line schedules start at cycle 0");
  const size_t NumRes = MD.numResources();
  for (const ResourceUse &Use : U.reservation()) {
    size_t Slot = (static_cast<size_t>(T) + Use.Cycle) * NumRes + Use.ResId;
    if (Slot >= Rows.size())
      continue; // Untouched cycles are free.
    if (Rows[Slot] + Use.Units > MD.resource(Use.ResId).Units)
      return false;
  }
  return true;
}

void ReservationTable::place(const ScheduleUnit &U, int T) {
  assert(canPlace(U, T) && "placing an over-subscribed unit");
  const size_t NumRes = MD.numResources();
  for (const ResourceUse &Use : U.reservation()) {
    size_t Cycle = static_cast<size_t>(T) + Use.Cycle;
    if ((Cycle + 1) * NumRes > Rows.size())
      Rows.resize((Cycle + 1) * NumRes, 0);
    Rows[Cycle * NumRes + Use.ResId] += Use.Units;
  }
}

unsigned ReservationTable::usedAt(int T, unsigned Res) const {
  if (T < 0 || T >= horizon())
    return 0;
  return Rows[static_cast<size_t>(T) * MD.numResources() + Res];
}

ModuloReservationTable::ModuloReservationTable(const MachineDescription &MD,
                                               unsigned S)
    : MD(MD), S(S), Rows(static_cast<size_t>(S) * MD.numResources(), 0),
      Scratch(Rows.size(), 0) {
  assert(S >= 1 && "initiation interval must be positive");
}

bool ModuloReservationTable::canPlace(const ResourceUse *Uses, size_t NumUses,
                                      int T) const {
  // A unit longer than the interval folds onto itself; accumulate per-row
  // increments first so self-collisions are counted correctly. The
  // accumulation runs in Scratch (cleared via the Touched list), making
  // the whole query linear in the number of uses.
  Touched.clear();
  for (size_t I = 0; I != NumUses; ++I) {
    const ResourceUse &Use = Uses[I];
    size_t Slot = static_cast<size_t>(rowOf(T, Use.Cycle)) *
                      MD.numResources() +
                  Use.ResId;
    if (Scratch[Slot] == 0)
      Touched.push_back(static_cast<unsigned>(Slot));
    Scratch[Slot] += Use.Units;
  }
  bool Ok = true;
  for (unsigned Slot : Touched) {
    unsigned Res = Slot % MD.numResources();
    if (Rows[Slot] + Scratch[Slot] > MD.resource(Res).Units)
      Ok = false;
    Scratch[Slot] = 0;
  }
  return Ok;
}

void ModuloReservationTable::place(const ResourceUse *Uses, size_t NumUses,
                                   int T) {
  assert(canPlace(Uses, NumUses, T) && "placing an over-subscribed unit");
  for (size_t I = 0; I != NumUses; ++I)
    Rows[static_cast<size_t>(rowOf(T, Uses[I].Cycle)) * MD.numResources() +
         Uses[I].ResId] += Uses[I].Units;
}

void ModuloReservationTable::remove(const ScheduleUnit &U, int T) {
  for (const ResourceUse &Use : U.reservation()) {
    unsigned &Slot = Rows[static_cast<size_t>(rowOf(T, Use.Cycle)) *
                              MD.numResources() +
                          Use.ResId];
    assert(Slot >= Use.Units && "removing a unit that was not placed");
    Slot -= Use.Units;
  }
}

unsigned ModuloReservationTable::usedAt(int Row, unsigned Res) const {
  assert(Row >= 0 && static_cast<unsigned>(Row) < S && "row out of range");
  return Rows[static_cast<size_t>(Row) * MD.numResources() + Res];
}
