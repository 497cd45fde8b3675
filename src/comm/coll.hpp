#pragma once

// Combining-tree arity for the SPMD communicator's collectives
// (docs/SCALING.md, "Collective engine").
//
// Every collective rendezvous runs over a hierarchical combining tree:
// ranks meet in leaf blocks of `arity` consecutive ranks and only the
// last arrival of each block ascends to the parent slot, so contention
// is O(arity) per level and wakeups are targeted per block. The arity
// also fixes the canonical combine schedule (see communicator.cpp), so
// it changes floating-point reduction bit patterns but never virtual
// times. bench/ablation_collectives gates identity across arities and
// scheduler backends.
//
// The default is read when a world group is created; changing it does
// not affect live communicators.

namespace insitu::comm {

/// Fan-in per combining-tree level (leaf block width and interior slot
/// width).
inline constexpr int kDefaultCollArity = 64;
inline constexpr int kMinCollArity = 2;

/// Process default arity: kDefaultCollArity unless overridden by
/// set_default_coll_arity.
int default_coll_arity();

/// Override the process default (tests and ablation_collectives). Values
/// below kMinCollArity are clamped.
void set_default_coll_arity(int arity);

}  // namespace insitu::comm
