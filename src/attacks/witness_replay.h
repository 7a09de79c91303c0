// Concrete replay of ptsym witness traces. A WitnessTrace is the solver's
// claim that a ptlint/ptflow diagnostic is a real program behaviour: an
// initial register file, a set of memory cells to poke, and the exact pc
// sequence from an analysis root to the flagged instruction. This harness
// builds the same System the backend under analysis runs on, loads the
// analysed image, seeds the witness state, and single-steps the core
// op-for-op down the path — any divergence (wrong pc, unexpected trap)
// fails the replay and the driver downgrades the verdict to UNKNOWN.
//
// Replay runs with PMP secure-enforcement off and satp in Bare mode: the
// point is to demonstrate the *software path* the static analysis flagged
// actually executes and performs the predicted access, not to re-test the
// hardware defence that would contain it (attacks/scenarios.cpp covers
// that side). Addresses the witness touches outside DRAM are backed by
// scratch MMIO pages so out-of-region stores retire instead of faulting on
// unbacked memory.
#pragma once

#include <string>
#include <vector>

#include "analysis/image.h"
#include "analysis/symexec/witness.h"
#include "kernel/kconfig.h"

namespace ptstore::attacks {

struct WitnessReplayReport {
  bool ok = false;         ///< Path followed and final check verified.
  std::string detail;      ///< What verified, or first divergence.
  u64 steps = 0;           ///< Instructions actually retired.
};

/// The pages holding the bytes [addr, addr + len), in ascending order; the
/// range is clamped to the top of the address space, never wrapped to page
/// 0. Empty when len == 0.
std::vector<u64> pages_spanned(u64 addr, u64 len);

/// Replay `t` (a witness for a diagnostic in `img`) on a fresh System
/// configured for `backend`. Returns ok only when every pc on the path is
/// reached in order with no unexpected stop AND the final architectural
/// check (store EA/value, load EA, satp read-back, PMP write attempt,
/// tainted argument register) holds.
WitnessReplayReport replay_witness(const analysis::Image& img,
                                   const analysis::symexec::WitnessTrace& t,
                                   BackendKind backend);

}  // namespace ptstore::attacks
