#pragma once

// Distributed image compositing.
//
// §4.1.3: "there is a costly compositing operation that involves
// communication of image-sized buffers among a hierarchical set of ranks
// to ultimately produce a final composite image on a single rank ...
// Catalyst and Libsim use different compositing algorithms, but both
// perform essentially the same task."
//
// Two algorithms are provided: a binomial-tree composite (full image per
// stage — the Catalyst-like default here) and binary swap (halving image
// regions per stage — the Libsim-like default). Both really move pixels
// between rank threads, so both their results and their virtual-time cost
// structures are exercised. bench/ablation_compositing compares them.
//
// Messages carry only the box a rank drew, as IceT sends each rank's
// screen-space bounding box. Every image records its drawn box (image.hpp):
// the rasterizer grows it by the box of each triangle that wrote a
// fragment, and a merge grows it by the box it received. A message for the
// pixel range [begin, end) is a 32-byte header (begin, end, and the box
// clipped to the rows the range reaches), then the colors and then the
// depths of each box row clipped to the range, in image order. Touching
// rows form one run, so a full-width box is a single run. The sender
// writes each byte once and scans nothing; the receiver derives the same
// runs from the header and makes one depth_composite call per run. A
// range the box misses, and any range of a blank image, sends no bytes.
// The result is bit-identical to a dense exchange: outside the box every
// pixel is the background at +inf, which depth_composite's strict `<`
// never lets win. Binary swap's final gather stays dense, with the whole
// range as its box: its strips replace rank 0's pixels instead of merging.
//
// A local image may be blank (image.hpp): sized, with a background, but
// with no planes. render_local() hands the compositor one whenever the
// rank's geometry writes no fragment, so a rank with no geometry never
// allocates a framebuffer and one that draws nothing holds none while
// compositing. Every range of a blank local packs to no bytes; a
// receiver materializes its blank local (background, +inf depth) only on
// the first merge that brings pixels; a blank owner of a binary-swap
// strip packs that dense strip from its background.
// Merges land in the local image itself, never in a copy of it. Rank 0's
// result is always dense.
//
// Virtual time does not depend on content. Each message is charged the
// transit of its dense range (Communicator::send with `modeled_bytes`),
// and each merge the blend of its whole range, so a blank image costs
// exactly what a fully covered one does. comm.bytes_sent and
// kernels.depth_composite count the work actually done.

#include "comm/communicator.hpp"
#include "render/image.hpp"
#include "render/rasterizer.hpp"

namespace insitu::render {

enum class CompositeAlgorithm { kTree, kBinarySwap };

/// Depth-composite each rank's `local` image; the full, dense composite
/// lands on rank 0 (other ranks receive an empty Image). Collective. All
/// ranks must pass identically-sized images with the same background;
/// any of them may be blank. The composite is built in place in `local`,
/// so a caller that moves its framebuffer in holds no second copy, and a
/// rank that drops out parks its planes in its pool on return.
Image composite(comm::Communicator& comm, Image local,
                CompositeAlgorithm algorithm);

Image composite_tree(comm::Communicator& comm, Image local);
Image composite_binary_swap(comm::Communicator& comm, Image local);

/// Rasterize this rank's share of a distributed render and charge its
/// fragments at the machine's blend rate. The result is blank unless a
/// fragment lands.
Image render_local(comm::Communicator& comm,
                   const analysis::TriangleMesh& mesh,
                   const RenderConfig& config);

}  // namespace insitu::render
