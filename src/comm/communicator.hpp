#pragma once

// SPMD communicator over in-process ranks (threads).
//
// The API deliberately mirrors the MPI subset the paper's software stack
// uses: point-to-point send/recv with tags, broadcast, reduce, allreduce,
// gather(v), allgather, exclusive scan, barrier, and communicator split.
// Collectives must be invoked by every rank of the communicator in the
// same order (standard SPMD contract).
//
// Every operation advances the calling rank's VirtualClock using the
// communicator's MachineModel, so algorithms written against this API are
// simultaneously *executed* (data is really exchanged between threads) and
// *performance-modeled* (virtual time reproduces cluster cost shapes).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "comm/machine_model.hpp"
#include "comm/virtual_clock.hpp"
#include "obs/metrics.hpp"
#include "pal/rng.hpp"

namespace insitu::comm {

namespace detail {
class Group;  // shared state for one communicator (mailboxes + collectives)
}

/// Immutable blob published into a gather/allgather. A contributor copies
/// its data exactly once; every reader aliases that copy through the
/// shared pointer instead of receiving a deep copy of all P blobs.
using Blob = std::vector<std::byte>;
using BlobPtr = std::shared_ptr<const Blob>;

/// Rank-indexed table of published blobs; one shared instance per
/// collective round, aliased by every reader.
using BlobTable = std::vector<BlobPtr>;
using BlobTablePtr = std::shared_ptr<const BlobTable>;

/// Element-wise combination used by reduce/allreduce/scan.
enum class ReduceOp { kSum, kMin, kMax, kProd };

template <typename T>
void combine_values(ReduceOp op, const T* in, T* acc, std::size_t count) {
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < count; ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < count; ++i) {
        if (in[i] < acc[i]) acc[i] = in[i];
      }
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < count; ++i) {
        if (in[i] > acc[i]) acc[i] = in[i];
      }
      break;
    case ReduceOp::kProd:
      for (std::size_t i = 0; i < count; ++i) acc[i] *= in[i];
      break;
  }
}

class Communicator {
 public:
  Communicator(std::shared_ptr<detail::Group> group, int rank,
               VirtualClock* clock, const MachineModel* machine,
               pal::Rng* rng);

  int rank() const { return rank_; }
  int size() const;
  bool is_root() const { return rank_ == 0; }

  VirtualClock& clock() { return *clock_; }
  const VirtualClock& clock() const { return *clock_; }
  const MachineModel& machine() const { return *machine_; }
  pal::Rng& rng() { return *rng_; }

  /// Advance this rank's virtual clock by a modeled compute duration.
  void advance_compute(double seconds) { clock_->advance(seconds); }

  // ---- point to point ----

  /// Buffered (eager) send; never blocks.
  void send(int dest, int tag, std::span<const std::byte> data);

  /// Buffered send that moves `payload` into the receiver's mailbox and
  /// charges virtual transit for `modeled_bytes` instead of its size.
  /// comm.bytes_sent counts the payload actually moved. Lets an encoded
  /// message (a sparse image span) cost what its dense form would.
  void send(int dest, int tag, std::vector<std::byte>&& payload,
            std::size_t modeled_bytes);

  /// Blocking receive matching (src, tag) in FIFO order.
  std::vector<std::byte> recv(int src, int tag);

  /// Blocking receive matching any source with the given tag.
  std::vector<std::byte> recv_any(int tag, int* src_out = nullptr);

  /// True if a matching message is already queued (non-advancing probe).
  bool probe(int src, int tag) const;

  template <typename T>
  void send_values(int dest, int tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dest, tag, std::as_bytes(values));
  }

  template <typename T>
  std::vector<T> recv_values(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> raw = recv(src, tag);
    std::vector<T> values;
    assign_bytes(values, raw.data(), raw.size());
    return values;
  }

  // ---- collectives ----

  void barrier();

  /// Broadcast `data` from `root`; resized on non-root ranks.
  template <typename T>
  void broadcast(std::vector<T>& data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> blob =
        coll_bcast(std::as_bytes(std::span<const T>(data)), root);
    if (rank_ != root) assign_bytes(data, blob.data(), blob.size());
  }

  template <typename T>
  void broadcast_value(T& value, int root) {
    std::vector<T> one(1, value);
    broadcast(one, root);
    value = one[0];
  }

  /// Element-wise reduction to `root`. `in` and `out` must have the same
  /// length on every rank; `out` is only meaningful at the root.
  template <typename T>
  void reduce(std::span<const T> in, std::span<T> out, ReduceOp op,
              int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    coll_reduce(
        in.data(), out.data(), in.size() * sizeof(T), root,
        /*all=*/false, [op](void* acc, const void* contrib, std::size_t bytes) {
          combine_values(op, static_cast<const T*>(contrib),
                         static_cast<T*>(acc), bytes / sizeof(T));
        });
  }

  template <typename T>
  T reduce_value(T value, ReduceOp op, int root) {
    T out{};
    reduce(std::span<const T>(&value, 1), std::span<T>(&out, 1), op, root);
    return out;
  }

  /// Element-wise reduction delivered to all ranks.
  template <typename T>
  void allreduce(std::span<T> values, ReduceOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> in(values.begin(), values.end());
    coll_reduce(
        in.data(), values.data(), in.size() * sizeof(T), /*root=*/0,
        /*all=*/true, [op](void* acc, const void* contrib, std::size_t bytes) {
          combine_values(op, static_cast<const T*>(contrib),
                         static_cast<T*>(acc), bytes / sizeof(T));
        });
  }

  template <typename T>
  T allreduce_value(T value, ReduceOp op) {
    allreduce(std::span<T>(&value, 1), op);
    return value;
  }

  /// Variable-size gather: every rank contributes a blob; the root receives
  /// all blobs in rank order (empty elsewhere).
  template <typename T>
  std::vector<std::vector<T>> gatherv(std::span<const T> mine, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    BlobTablePtr table = coll_gather(std::as_bytes(mine), root);
    std::vector<std::vector<T>> out;
    if (rank_ != root) return out;
    out.reserve(table->size());
    for (const BlobPtr& blob : *table) {
      assign_bytes(out.emplace_back(), blob->data(), blob->size());
    }
    return out;
  }

  /// Allgather of one value per rank, returned in rank order on all ranks.
  template <typename T>
  std::vector<T> allgather_value(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    BlobTablePtr table =
        coll_exchange(std::as_bytes(std::span<const T>(&value, 1)));
    std::vector<T> out(table->size());
    for (std::size_t r = 0; r < table->size(); ++r) {
      std::memcpy(&out[r], (*table)[r]->data(), sizeof(T));
    }
    return out;
  }

  /// Variable-size allgather.
  template <typename T>
  std::vector<std::vector<T>> allgatherv(std::span<const T> mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    BlobTablePtr table = coll_exchange(std::as_bytes(mine));
    std::vector<std::vector<T>> out;
    out.reserve(table->size());
    for (const BlobPtr& blob : *table) {
      assign_bytes(out.emplace_back(), blob->data(), blob->size());
    }
    return out;
  }

  /// Zero-copy allgather: publishes `mine` once and returns the shared
  /// rank-indexed blob table. Every rank's table aliases the same
  /// per-contributor copies, so the data volume is O(total bytes), not
  /// O(P * total bytes). Table and blobs are immutable and stay valid as
  /// long as the caller holds the pointer.
  BlobTablePtr allgather_blobs(std::span<const std::byte> mine);

  /// Exclusive prefix scan (rank 0 receives the identity-initialized T{}).
  template <typename T>
  T exscan_value(T value, ReduceOp op) {
    std::vector<T> all = allgather_value(value);
    T acc{};
    if (op == ReduceOp::kProd) acc = T{1};
    if (op == ReduceOp::kMin || op == ReduceOp::kMax) acc = all[0];
    for (int r = 0; r < rank_; ++r) {
      combine_values(op, &all[r], &acc, 1);
    }
    // Rank 0 of min/max has no prefix; keep its own value as identity.
    return acc;
  }

  /// Partition ranks by `color`; ranks sharing a color form a new
  /// communicator ordered by (key, old rank). Collective.
  Communicator split(int color, int key);

  /// Same group, rank, and machine, but advancing `clock` (and drawing
  /// from `rng`, when given) instead of this communicator's. The async
  /// execution engine hands analysis-plane collectives to worker threads
  /// on a worker-owned clock so overlapped analysis does not advance
  /// simulation time; pair with split() so the worker plane also gets its
  /// own rendezvous state. Not collective.
  Communicator sibling(VirtualClock* clock, pal::Rng* rng = nullptr) const;

 private:
  /// Replaces `out` with the whole elements in `bytes`. An empty payload
  /// skips the memcpy: an empty vector's data() may be null, and memcpy
  /// requires valid pointers even for zero bytes.
  template <typename T>
  static void assign_bytes(std::vector<T>& out, const void* bytes,
                           std::size_t size) {
    out.resize(size / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), bytes, out.size() * sizeof(T));
  }

  std::vector<std::byte> coll_bcast(std::span<const std::byte> data, int root);
  void coll_reduce(
      const void* in, void* out, std::size_t bytes, int root, bool all,
      const std::function<void(void*, const void*, std::size_t)>& combine);
  BlobTablePtr coll_gather(std::span<const std::byte> mine, int root);
  BlobTablePtr coll_exchange(std::span<const std::byte> mine);
  /// Bumps comm.collective.{calls,wait.seconds,contended} for one
  /// finished collective. `op` indexes coll_metrics_ (detail::CollOp).
  void record_coll_stats(int op, double wait_seconds, std::int64_t contended);

  /// The op= label of comm.bytes_sent for a collective contribution.
  enum CollBytesOp {
    kBcastBytes,
    kAllreduceBytes,
    kReduceBytes,
    kGatherBytes,
    kAllgatherBytes,
    kNumCollBytesOps
  };
  /// comm.bytes_sent{op=...} for this rank's collective contributions,
  /// bound on first use like the handles below.
  obs::Counter& collective_bytes(CollBytesOp op);

  std::shared_ptr<detail::Group> group_;
  int rank_;
  VirtualClock* clock_;
  const MachineModel* machine_;
  pal::Rng* rng_;

  // p2p metrics handles, bound lazily to the calling rank's registry so
  // the hot send/recv path skips the registry lookup after first use.
  obs::Counter* bytes_sent_ = nullptr;
  obs::Counter* msgs_sent_ = nullptr;
  obs::Counter* bytes_recv_ = nullptr;

  // Collective metrics handles, one set per collective op, bound lazily
  // like the p2p handles above, so the rendezvous hot path never
  // rebuilds label vectors or touches the registry maps.
  struct CollMetricHandles {
    obs::Counter* calls = nullptr;
    obs::Histogram* wait = nullptr;
    obs::Counter* contended = nullptr;
  };
  static constexpr int kNumCollOps = 6;
  CollMetricHandles coll_metrics_[kNumCollOps];
  obs::Counter* coll_bytes_[kNumCollBytesOps] = {};
};

}  // namespace insitu::comm
