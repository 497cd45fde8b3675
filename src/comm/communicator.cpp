#include "comm/communicator.hpp"

#include "comm/coll.hpp"
#include "comm/group_factory.hpp"
#include "exec/fiber.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <utility>

namespace insitu::comm {
namespace detail {

class Group;

namespace {

struct Message {
  int src = 0;
  int tag = 0;
  double arrival_vtime = 0.0;
  std::uint64_t seq = 0;  // mailbox arrival order (any-source FIFO)
  std::vector<std::byte> payload;
};

// ---- mailbox wakeup keys ----
//
// Receivers waiting on an exact (src, tag) pair register under
// exact_key, any-source receivers under any_key, and a delivery notifies
// both — so a deep queue never wakes receivers its message cannot match.
// Keys only filter wakeups (the predicate loop re-checks the queue), but
// the packing below is injective for valid ranks/tags anyway: exact keys
// carry src+1 in the high word, any keys leave it zero.

std::uint64_t exact_key(int src, int tag) {
  return ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) + 1)
          << 32) |
         static_cast<std::uint32_t>(tag);
}

std::uint64_t any_key(int tag) { return static_cast<std::uint32_t>(tag); }

// ---- collective rounds ----

/// Element-wise combiner for one reduce round (same signature the public
/// API takes). All ranks of a round pass the same operation.
using CombineFn = std::function<void(void*, const void*, std::size_t)>;

enum class CollOp { kBarrier, kBcast, kReduce, kGather, kExchange, kSplit };

const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kBarrier: return "barrier";
    case CollOp::kBcast: return "bcast";
    case CollOp::kReduce: return "reduce";
    case CollOp::kGather: return "gather";
    case CollOp::kExchange: return "allgather";
    case CollOp::kSplit: return "split";
  }
  return "?";
}

/// Per-rank input to one collective round. Pointer fields refer into the
/// calling rank's frame and stay valid for the whole call.
struct CollInput {
  CollOp op = CollOp::kBarrier;
  double entry = 0.0;  ///< the rank's virtual clock at the rendezvous
  // reduce
  const std::byte* reduce_data = nullptr;
  std::size_t reduce_bytes = 0;
  const CombineFn* combine = nullptr;
  // bcast (root rank only)
  bool bcast_root = false;
  const std::byte* bcast_data = nullptr;
  std::size_t bcast_bytes = 0;
  // gather / allgather
  BlobPtr blob;
  // split
  int split_color = 0;
  int split_size = 0;
};

/// Execution-side cost of one collective call on the calling rank
/// (wall-clock, not virtual time): seconds parked at rendezvous points
/// and slot-lock acquisitions that found the lock held.
struct CollStats {
  double wait_seconds = 0.0;
  std::int64_t contended = 0;
};

/// Folds `items` (each `bytes` long) with the canonical blocked
/// schedule: consecutive blocks of `arity` fold left to right, and the
/// block partials fold recursively under the same rule. The schedule
/// depends only on (item count, arity) — never on arrival order — which
/// is what makes floating-point reductions bit-identical across runs,
/// sched backends, and engines: the tree engine's per-slot folds compose
/// to exactly this schedule, and the flat engine calls it directly when
/// its single slot completes.
void canonical_fold(std::span<const std::byte* const> items, std::size_t bytes,
                    int arity, const CombineFn& combine,
                    std::vector<std::byte>& out) {
  const std::size_t n = items.size();
  assert(n > 0);
  if (bytes == 0) {
    out.clear();
    return;
  }
  if (n <= static_cast<std::size_t>(arity)) {
    out.assign(items[0], items[0] + bytes);
    for (std::size_t i = 1; i < n; ++i) combine(out.data(), items[i], bytes);
    return;
  }
  const std::size_t blocks = (n + static_cast<std::size_t>(arity) - 1) /
                             static_cast<std::size_t>(arity);
  std::vector<std::vector<std::byte>> partials(blocks);
  std::vector<const std::byte*> heads(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * static_cast<std::size_t>(arity);
    const std::size_t hi =
        std::min(n, lo + static_cast<std::size_t>(arity));
    canonical_fold(items.subspan(lo, hi - lo), bytes, arity, combine,
                   partials[b]);
    heads[b] = partials[b].data();
  }
  canonical_fold(heads, bytes, arity, combine, out);
}

}  // namespace

/// Result of one collective round, produced once by the rank that
/// completes the root slot and shared read-only by every rank of the
/// round. Field meaning depends on the operation; unused fields stay
/// empty.
struct CollOutcome {
  double max_entry = 0.0;   ///< max virtual entry time across ranks
  double root_entry = 0.0;  ///< bcast: the root rank's entry time
  std::vector<std::byte> reduce;  ///< reduce: folded bytes; bcast: payload
  BlobTable table;                ///< gather/allgather: rank-indexed blobs
  std::size_t total_bytes = 0;    ///< sum of table blob sizes
  std::size_t max_blob = 0;       ///< largest table blob
  std::map<int, std::shared_ptr<Group>> split_groups;  ///< split: per color
};

/// Shared state for one communicator: per-rank mailboxes plus the
/// collective rendezvous slots. Thread-safe; one instance is shared by
/// all rank threads/fibers of the communicator.
///
/// Collectives execute over a combining tree of rendezvous slots. Ranks
/// deposit their contribution into a leaf slot shared by a block of
/// `arity` consecutive ranks; the last arrival of each slot folds the
/// block and ascends to the parent slot, so only one rank per block ever
/// touches the next level. The rank completing the root slot finalizes
/// the shared CollOutcome and publishes it back down the slots it
/// completed. Each parked member left a landing record on its own stack;
/// publish writes the outcome pointer into every record before a
/// generation-tagged targeted notify, so a woken member reads its record
/// without re-taking the slot lock, and the slot is reusable as soon as
/// publish returns. The flat engine is the
/// degenerate single-slot tree (every rank serializes through one mutex
/// and one wake herd — kept as the measurable baseline), but it folds
/// with the same canonical schedule, so both engines produce identical
/// bits.
///
/// Blocking here must be fiber-aware: under the M:N scheduler a rank
/// that waits on an unmatched receive or an incomplete rendezvous parks
/// its continuation and frees the carrier worker instead of blocking an
/// OS thread. exec::WaitSet degrades to a plain condition variable for
/// thread-backed ranks and the async bridge's OS workers.
class Group {
 public:
  Group(int size, CollEngine engine, int arity)
      : size_(size),
        engine_(engine),
        arity_(std::max(arity, kMinCollArity)),
        mailboxes_(static_cast<std::size_t>(size)) {
    build_topology();
  }

  int size() const { return size_; }
  CollEngine engine() const { return engine_; }
  int arity() const { return arity_; }

  // ---- point to point ----

  void deliver(int dest, Message msg) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dest)];
    std::lock_guard<std::mutex> lock(box.mutex);
    msg.seq = box.next_seq++;
    box.by_tag[msg.tag].emplace(msg.seq, msg.src);
    const std::uint64_t exact = exact_key(msg.src, msg.tag);
    const std::uint64_t any = any_key(msg.tag);
    box.buckets[{msg.src, msg.tag}].push_back(std::move(msg));
    box.cv.notify_key(exact);
    box.cv.notify_key(any);
  }

  Message take(int dest, int src, int tag) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dest)];
    std::unique_lock<std::mutex> lock(box.mutex);
    for (;;) {
      if (src >= 0) {
        auto it = box.buckets.find({src, tag});
        if (it != box.buckets.end()) return pop_bucket(box, it);
      } else {
        auto ti = box.by_tag.find(tag);
        if (ti != box.by_tag.end()) {
          // Oldest matching arrival across all sources.
          const int oldest_src = ti->second.begin()->second;
          return pop_bucket(box, box.buckets.find({oldest_src, tag}));
        }
      }
      box.cv.wait_key(lock, src >= 0 ? exact_key(src, tag) : any_key(tag));
    }
  }

  bool probe(int dest, int src, int tag) const {
    const Mailbox& box = mailboxes_[static_cast<std::size_t>(dest)];
    std::lock_guard<std::mutex> lock(box.mutex);
    if (src >= 0) return box.buckets.count({src, tag}) > 0;
    return box.by_tag.count(tag) > 0;
  }

  // ---- collectives ----

  /// Runs one collective round for `rank`. Blocks until the round's
  /// outcome is available; wall-clock costs land in `stats`.
  std::shared_ptr<const CollOutcome> collective(int rank, const CollInput& in,
                                                CollStats& stats) {
    Carry carry;
    carry.contrib.max_entry = in.entry;
    carry.contrib.has_root = in.bcast_root;
    carry.contrib.root_entry = in.entry;
    carry.contrib.reduce_data = in.reduce_data;
    carry.contrib.bcast_data = in.bcast_data;
    carry.contrib.bcast_bytes = in.bcast_bytes;
    if (in.op == CollOp::kGather || in.op == CollOp::kExchange) {
      carry.contrib.blobs.push_back(in.blob);
    }
    if (in.op == CollOp::kSplit) {
      carry.contrib.colors[in.split_color] = in.split_size;
    }

    int slot_idx = rank / leaf_block_;
    int member = rank % leaf_block_;
    std::shared_ptr<const CollOutcome> outcome;
    // Slots this rank completed on the way up; their members stay parked
    // until we publish the outcome back down.
    std::vector<int> completed;
    // The flat engine keeps the original wakeup discipline — broadcast
    // notify_all herds that every waiter re-checks — so the ablation
    // measures what targeted wakeups actually buy. The tree engine tags
    // every wait with a key only the matching state change notifies.
    const bool targeted = engine_ == CollEngine::kTree;

    for (;;) {
      Slot& slot = slots_[static_cast<std::size_t>(slot_idx)];
      std::unique_lock<std::mutex> lock(slot.mutex, std::try_to_lock);
      if (!lock.owns_lock()) {
        ++stats.contended;
        lock.lock();
      }
      if (slot.arrived == 0) {
        slot.contribs.assign(static_cast<std::size_t>(slot.expected),
                             Contribution{});
      }
      slot.contribs[static_cast<std::size_t>(member)] =
          std::move(carry.contrib);
      ++slot.arrived;
      if (slot.arrived < slot.expected) {
        // Park until publish hands the round's outcome to our landing
        // record. The wait is tagged with the generation we joined, so
        // publishes for other rounds never wake us, and it returns with
        // the slot unlocked: the record is all we read.
        Landing landing;
        landing.next = slot.landings;
        slot.landings = &landing;
        const auto start = std::chrono::steady_clock::now();
        slot.cv.wait_flag(lock,
                          targeted ? generation_key(slot.generation)
                                   : exec::WaitSet::kAnyKey,
                          landing.ready);
        stats.wait_seconds += std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
        outcome = std::move(landing.outcome);
        break;
      }
      // Last arrival: fold this slot in canonical member order, then
      // ascend — or finalize the round if this is the root slot.
      fold_slot(slot, in, carry);
      if (slot.parent < 0) {
        outcome = finalize(std::move(carry), in);
        publish(slot, outcome);
        break;
      }
      completed.push_back(slot_idx);
      member = slot.index_in_parent;
      slot_idx = slot.parent;
    }

    // Publish down the chain of slots we completed (top-down; members of
    // each are parked on their tagged generation wait).
    for (auto it = completed.rbegin(); it != completed.rend(); ++it) {
      Slot& slot = slots_[static_cast<std::size_t>(*it)];
      std::lock_guard<std::mutex> lock(slot.mutex);
      publish(slot, outcome);
    }
    return outcome;
  }

 private:
  struct Mailbox {
    mutable std::mutex mutex;
    exec::WaitSet cv;
    std::uint64_t next_seq = 0;
    // Per-(src, tag) FIFO buckets plus a per-tag arrival index: exact
    // receives match their bucket's front, any-source receives take the
    // globally oldest message of the tag — the same match order the old
    // single-deque scan produced, without O(queue) rescans per wakeup.
    std::map<std::pair<int, int>, std::deque<Message>> buckets;
    std::map<int, std::map<std::uint64_t, int>> by_tag;  // tag->seq->src
  };

  /// What one member deposits into a slot: at a leaf, the rank's own
  /// input; at an interior slot, the folded partial of the child block
  /// the member completed. Pointers refer into a member's frame; the
  /// member stays inside the round (parked or ascending) until the
  /// outcome reaches it, so they outlive every fold that reads them.
  struct Contribution {
    double max_entry = 0.0;
    bool has_root = false;
    double root_entry = 0.0;
    const std::byte* reduce_data = nullptr;
    const std::byte* bcast_data = nullptr;
    std::size_t bcast_bytes = 0;
    std::vector<BlobPtr> blobs;  ///< rank-order blobs of the subtree
    std::map<int, int> colors;   ///< split: color -> member count
  };

  /// Ascender-local fold state. `partial` owns the reduce bytes that
  /// contrib.reduce_data points at after a fold.
  struct Carry {
    Contribution contrib;
    std::vector<std::byte> partial;
  };

  /// Where a parked member receives its round's outcome. It lives on the
  /// member's stack for the length of the wait; publish fills `outcome`,
  /// then sets `ready` (release), after which only the member touches it.
  struct Landing {
    std::shared_ptr<const CollOutcome> outcome;
    std::atomic<bool> ready{false};
    Landing* next = nullptr;  ///< next parked member of the same round
  };

  /// One rendezvous slot of the combining tree. Leaf slots serve a block
  /// of consecutive ranks; interior slots serve the last arrivals of a
  /// block of child slots.
  struct Slot {
    std::mutex mutex;
    exec::WaitSet cv;
    long generation = 0;
    int arrived = 0;
    int expected = 0;  ///< members rendezvousing here
    int parent = -1;   ///< parent slot index; -1 at the root
    int index_in_parent = 0;
    std::vector<Contribution> contribs;  ///< per member, reset each round
    Landing* landings = nullptr;  ///< members parked on this round
  };

  // Round members park under the generation they joined.
  static std::uint64_t generation_key(long generation) {
    return static_cast<std::uint64_t>(generation);
  }

  void build_topology() {
    leaf_block_ = engine_ == CollEngine::kFlat ? size_ : arity_;
    // Level sizes: ceil(P / block) leaf slots over consecutive rank
    // blocks, then arity-wide levels until a single root remains.
    std::vector<int> levels;
    int n = (size_ + leaf_block_ - 1) / leaf_block_;
    levels.push_back(n);
    while (n > 1) {
      n = (n + arity_ - 1) / arity_;
      levels.push_back(n);
    }
    int total = 0;
    std::vector<int> offset(levels.size());
    for (std::size_t l = 0; l < levels.size(); ++l) {
      offset[l] = total;
      total += levels[l];
    }
    slots_ = std::vector<Slot>(static_cast<std::size_t>(total));
    for (std::size_t l = 0; l < levels.size(); ++l) {
      for (int i = 0; i < levels[l]; ++i) {
        Slot& slot = slots_[static_cast<std::size_t>(offset[l] + i)];
        slot.expected =
            l == 0 ? std::min(leaf_block_, size_ - i * leaf_block_)
                   : std::min(arity_, levels[l - 1] - i * arity_);
        if (l + 1 < levels.size()) {
          slot.parent = offset[l + 1] + i / arity_;
          slot.index_in_parent = i % arity_;
        }
      }
    }
  }

  /// Folds a completed slot's contributions into `carry`. Members are
  /// indexed in rank order, so the fold order is canonical by
  /// construction; the reduce fold uses the canonical blocked schedule,
  /// which makes the flat single slot (expected == P) bit-compatible
  /// with the composed tree folds.
  void fold_slot(Slot& slot, const CollInput& in, Carry& carry) {
    auto& contribs = slot.contribs;
    Contribution folded;
    folded.max_entry = contribs[0].max_entry;
    for (std::size_t i = 1; i < contribs.size(); ++i) {
      folded.max_entry = std::max(folded.max_entry, contribs[i].max_entry);
    }
    for (const Contribution& c : contribs) {
      if (c.has_root) {
        folded.has_root = true;
        folded.root_entry = c.root_entry;
        folded.bcast_data = c.bcast_data;
        folded.bcast_bytes = c.bcast_bytes;
      }
    }
    switch (in.op) {
      case CollOp::kReduce: {
        std::vector<const std::byte*> items;
        items.reserve(contribs.size());
        for (const Contribution& c : contribs) items.push_back(c.reduce_data);
        std::vector<std::byte> out;
        canonical_fold(items, in.reduce_bytes, arity_, *in.combine, out);
        carry.partial = std::move(out);
        folded.reduce_data = carry.partial.data();
        break;
      }
      case CollOp::kGather:
      case CollOp::kExchange: {
        std::size_t total = 0;
        for (const Contribution& c : contribs) total += c.blobs.size();
        folded.blobs.reserve(total);
        for (Contribution& c : contribs) {
          for (BlobPtr& blob : c.blobs) folded.blobs.push_back(std::move(blob));
        }
        break;
      }
      case CollOp::kSplit: {
        // Same-color proposals agree on the count; last write wins.
        for (const Contribution& c : contribs) {
          for (const auto& [color, count] : c.colors) {
            folded.colors[color] = count;
          }
        }
        break;
      }
      default: break;
    }
    carry.contrib = std::move(folded);
  }

  std::shared_ptr<const CollOutcome> finalize(Carry&& carry,
                                              const CollInput& in) {
    auto outcome = std::make_shared<CollOutcome>();
    outcome->max_entry = carry.contrib.max_entry;
    outcome->root_entry = carry.contrib.root_entry;
    switch (in.op) {
      case CollOp::kReduce:
        outcome->reduce = std::move(carry.partial);
        break;
      case CollOp::kBcast:
        // Copy the root's payload exactly once. The root rank is still
        // inside the round (parked or ascending) here, so its pointer is
        // valid; readers then alias the outcome's copy.
        if (carry.contrib.bcast_bytes > 0) {
          outcome->reduce.assign(
              carry.contrib.bcast_data,
              carry.contrib.bcast_data + carry.contrib.bcast_bytes);
        }
        break;
      case CollOp::kGather:
      case CollOp::kExchange:
        outcome->table = std::move(carry.contrib.blobs);
        for (const BlobPtr& blob : outcome->table) {
          outcome->total_bytes += blob->size();
          outcome->max_blob = std::max(outcome->max_blob, blob->size());
        }
        break;
      case CollOp::kSplit:
        for (const auto& [color, count] : carry.contrib.colors) {
          outcome->split_groups.emplace(
              color, std::make_shared<Group>(count, engine_, arity_));
        }
        break;
      case CollOp::kBarrier:
        break;
    }
    return outcome;
  }

  /// Publishes a round's outcome to a slot's parked members (lock held):
  /// hands it to each landing record, bumps the generation, and wakes
  /// exactly the members parked on it. Woken members read only their
  /// record, so the slot is free for the next round on return.
  void publish(Slot& slot, const std::shared_ptr<const CollOutcome>& outcome) {
    for (Landing* landing = slot.landings; landing != nullptr;) {
      Landing* next = landing->next;  // the record is the member's after ready
      landing->outcome = outcome;
      landing->ready.store(true, std::memory_order_release);
      landing = next;
    }
    slot.landings = nullptr;
    slot.arrived = 0;
    const long generation = slot.generation++;
    if (slot.expected > 1) slot.cv.notify_key(generation_key(generation));
  }

  static Message pop_bucket(
      Mailbox& box,
      std::map<std::pair<int, int>, std::deque<Message>>::iterator it) {
    Message msg = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) box.buckets.erase(it);
    auto ti = box.by_tag.find(msg.tag);
    ti->second.erase(msg.seq);
    if (ti->second.empty()) box.by_tag.erase(ti);
    return msg;
  }

  int size_;
  CollEngine engine_;
  int arity_;
  int leaf_block_ = 1;  ///< ranks per leaf slot (P for the flat engine)
  std::vector<Mailbox> mailboxes_;
  std::vector<Slot> slots_;  ///< leaf level first, root slot last
};

std::shared_ptr<Group> make_group(int size) {
  return std::make_shared<Group>(size, default_coll_engine(),
                                 default_coll_arity());
}

}  // namespace detail

using detail::Group;

Communicator::Communicator(std::shared_ptr<detail::Group> group, int rank,
                           VirtualClock* clock, const MachineModel* machine,
                           pal::Rng* rng)
    : group_(std::move(group)),
      rank_(rank),
      clock_(clock),
      machine_(machine),
      rng_(rng) {}

int Communicator::size() const { return group_->size(); }

/// Bytes contributed to a collective by the calling rank.
obs::Counter& Communicator::collective_bytes(CollBytesOp op) {
  static constexpr const char* kLabels[kNumCollBytesOps] = {
      "bcast", "allreduce", "reduce", "gather", "allgather"};
  obs::Counter*& handle = coll_bytes_[op];
  if (handle == nullptr) {
    handle = &obs::metrics().counter("comm.bytes_sent", {{"op", kLabels[op]}});
  }
  return *handle;
}

/// Execution-side collective accounting (wall-clock, per rank): calls,
/// seconds parked at the rendezvous, and contended slot-lock
/// acquisitions. Labeled by op and engine so flat/tree ablations show up
/// side by side in perf_report's collectives table. Handles are bound
/// once per op and cached, matching the p2p bytes_sent_ idiom.
void Communicator::record_coll_stats(int op, double wait_seconds,
                                     std::int64_t contended) {
  assert(op >= 0 && op < kNumCollOps);
  CollMetricHandles& h = coll_metrics_[op];
  if (h.calls == nullptr) {
    const obs::Labels labels = {
        {"engine", to_string(group_->engine())},
        {"op", detail::coll_op_name(static_cast<detail::CollOp>(op))}};
    auto& registry = obs::metrics();
    h.calls = &registry.counter("comm.collective.calls", labels);
    h.wait = &registry.histogram("comm.collective.wait.seconds", labels);
    h.contended = &registry.counter("comm.collective.contended", labels);
  }
  h.calls->add(1);
  if (wait_seconds > 0.0) h.wait->record(wait_seconds);
  if (contended > 0) h.contended->add(contended);
}

void Communicator::send(int dest, int tag, std::span<const std::byte> data) {
  send(dest, tag, std::vector<std::byte>(data.begin(), data.end()),
       data.size());
}

void Communicator::send(int dest, int tag, std::vector<std::byte>&& payload,
                        std::size_t modeled_bytes) {
  assert(dest >= 0 && dest < size());
  if (bytes_sent_ == nullptr) {
    bytes_sent_ = &obs::metrics().counter("comm.bytes_sent", {{"op", "p2p"}});
    msgs_sent_ = &obs::metrics().counter("comm.messages_sent");
  }
  bytes_sent_->add(static_cast<std::int64_t>(payload.size()));
  msgs_sent_->add(1);
  detail::Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.payload = std::move(payload);
  // Sender-side injection overhead, then in-flight transit.
  const double inject = machine_->alpha * 0.5;
  clock_->advance(inject);
  msg.arrival_vtime = clock_->now() + machine_->ptp_time(modeled_bytes);
  group_->deliver(dest, std::move(msg));
}

std::vector<std::byte> Communicator::recv(int src, int tag) {
  obs::TraceScope span(obs::Category::kComm, "comm.recv");
  detail::Message msg = group_->take(rank_, src, tag);
  clock_->observe(msg.arrival_vtime);
  if (bytes_recv_ == nullptr) {
    bytes_recv_ = &obs::metrics().counter("comm.bytes_recv", {{"op", "p2p"}});
  }
  bytes_recv_->add(static_cast<std::int64_t>(msg.payload.size()));
  span.arg("bytes", static_cast<double>(msg.payload.size()));
  return std::move(msg.payload);
}

std::vector<std::byte> Communicator::recv_any(int tag, int* src_out) {
  obs::TraceScope span(obs::Category::kComm, "comm.recv");
  detail::Message msg = group_->take(rank_, /*src=*/-1, tag);
  clock_->observe(msg.arrival_vtime);
  if (bytes_recv_ == nullptr) {
    bytes_recv_ = &obs::metrics().counter("comm.bytes_recv", {{"op", "p2p"}});
  }
  bytes_recv_->add(static_cast<std::int64_t>(msg.payload.size()));
  span.arg("bytes", static_cast<double>(msg.payload.size()));
  if (src_out != nullptr) *src_out = msg.src;
  return std::move(msg.payload);
}

bool Communicator::probe(int src, int tag) const {
  return group_->probe(rank_, src, tag);
}

void Communicator::barrier() {
  obs::TraceScope span(obs::Category::kComm, "comm.barrier");
  detail::CollInput in;
  in.op = detail::CollOp::kBarrier;
  in.entry = clock_->now();
  detail::CollStats stats;
  const auto outcome = group_->collective(rank_, in, stats);
  record_coll_stats(static_cast<int>(in.op), stats.wait_seconds,
                    stats.contended);
  clock_->observe(outcome->max_entry + machine_->barrier_time(size()));
}

std::vector<std::byte> Communicator::coll_bcast(
    std::span<const std::byte> data, int root) {
  obs::TraceScope span(obs::Category::kComm, "comm.bcast");
  if (rank_ == root) {
    collective_bytes(kBcastBytes).add(static_cast<std::int64_t>(data.size()));
    span.arg("bytes", static_cast<double>(data.size()));
  }
  detail::CollInput in;
  in.op = detail::CollOp::kBcast;
  in.entry = clock_->now();
  if (rank_ == root) {
    in.bcast_root = true;
    in.bcast_data = data.data();
    in.bcast_bytes = data.size();
  }
  detail::CollStats stats;
  const auto outcome = group_->collective(rank_, in, stats);
  record_coll_stats(static_cast<int>(in.op), stats.wait_seconds,
                    stats.contended);
  std::vector<std::byte> result;
  if (rank_ != root) {
    result.assign(outcome->reduce.begin(), outcome->reduce.end());
  }
  const std::size_t bytes = rank_ == root ? data.size() : result.size();
  clock_->observe(outcome->root_entry + machine_->bcast_time(size(), bytes));
  return result;
}

void Communicator::coll_reduce(
    const void* in_data, void* out_data, std::size_t bytes, int root, bool all,
    const std::function<void(void*, const void*, std::size_t)>& combine) {
  obs::TraceScope span(obs::Category::kComm,
                       all ? "comm.allreduce" : "comm.reduce");
  span.arg("bytes", static_cast<double>(bytes));
  collective_bytes(all ? kAllreduceBytes : kReduceBytes)
      .add(static_cast<std::int64_t>(bytes));
  detail::CollInput in;
  in.op = detail::CollOp::kReduce;
  in.entry = clock_->now();
  in.reduce_data = static_cast<const std::byte*>(in_data);
  in.reduce_bytes = bytes;
  in.combine = &combine;
  detail::CollStats stats;
  const auto outcome = group_->collective(rank_, in, stats);
  record_coll_stats(static_cast<int>(in.op), stats.wait_seconds,
                    stats.contended);
  if ((all || rank_ == root) && bytes > 0) {
    std::memcpy(out_data, outcome->reduce.data(), bytes);
  }
  if (all) {
    clock_->observe(outcome->max_entry +
                    machine_->allreduce_time(size(), bytes));
  } else if (rank_ == root) {
    clock_->observe(outcome->max_entry + machine_->reduce_time(size(), bytes));
  } else {
    // Non-root ranks participate in the tree but do not wait for the root's
    // final combine.
    clock_->advance(machine_->reduce_time(size(), bytes));
  }
}

BlobTablePtr Communicator::coll_gather(std::span<const std::byte> mine,
                                       int root) {
  obs::TraceScope span(obs::Category::kComm, "comm.gather");
  span.arg("bytes", static_cast<double>(mine.size()));
  collective_bytes(kGatherBytes).add(static_cast<std::int64_t>(mine.size()));
  detail::CollInput in;
  in.op = detail::CollOp::kGather;
  in.entry = clock_->now();
  in.blob = std::make_shared<Blob>(mine.begin(), mine.end());
  detail::CollStats stats;
  const auto outcome = group_->collective(rank_, in, stats);
  record_coll_stats(static_cast<int>(in.op), stats.wait_seconds,
                    stats.contended);
  if (rank_ == root) {
    clock_->observe(outcome->max_entry +
                    machine_->gather_time(size(), outcome->max_blob));
  } else {
    clock_->advance(machine_->ptp_time(mine.size()));
  }
  return BlobTablePtr(outcome, &outcome->table);
}

BlobTablePtr Communicator::coll_exchange(std::span<const std::byte> mine) {
  obs::TraceScope span(obs::Category::kComm, "comm.allgather");
  span.arg("bytes", static_cast<double>(mine.size()));
  collective_bytes(kAllgatherBytes).add(static_cast<std::int64_t>(mine.size()));
  detail::CollInput in;
  in.op = detail::CollOp::kExchange;
  in.entry = clock_->now();
  in.blob = std::make_shared<Blob>(mine.begin(), mine.end());
  detail::CollStats stats;
  const auto outcome = group_->collective(rank_, in, stats);
  record_coll_stats(static_cast<int>(in.op), stats.wait_seconds,
                    stats.contended);
  // Allgather ~ gather to a virtual root + broadcast of the concatenation.
  clock_->observe(outcome->max_entry +
                  machine_->gather_time(size(), mine.size()) +
                  machine_->bcast_time(size(), outcome->total_bytes));
  if (group_->engine() == CollEngine::kFlat) {
    // The flat engine keeps the original fan-out cost: every rank
    // materializes its own copy of all P contributions — O(P^2) bytes
    // and allocations per allgather across the group. The tree engine
    // returns an aliased view of the shared table instead, which is the
    // zero-copy half of the ablation (docs/SCALING.md).
    auto copy = std::make_shared<BlobTable>();
    copy->reserve(outcome->table.size());
    for (const BlobPtr& blob : outcome->table) {
      copy->push_back(std::make_shared<Blob>(*blob));
    }
    return copy;
  }
  return BlobTablePtr(outcome, &outcome->table);
}

BlobTablePtr Communicator::allgather_blobs(std::span<const std::byte> mine) {
  return coll_exchange(mine);
}

Communicator Communicator::split(int color, int key) {
  struct Entry {
    int color;
    int key;
    int old_rank;
  };
  const Entry mine{color, key, rank_};
  BlobTablePtr table =
      coll_exchange(std::as_bytes(std::span<const Entry>(&mine, 1)));

  // Deterministically order the members of my color group.
  std::vector<Entry> members;
  for (const BlobPtr& blob : *table) {
    Entry e;
    std::memcpy(&e, blob->data(), sizeof e);
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.old_rank < b.old_rank;
  });
  int new_rank = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].old_rank == rank_) new_rank = static_cast<int>(i);
  }

  // Registry round: leaf contributions carry {color -> size} maps that
  // merge up the tree, and the finalizer creates one Group per color, so
  // all members of a color alias the same shared state.
  detail::CollInput in;
  in.op = detail::CollOp::kSplit;
  in.entry = clock_->now();
  in.split_color = color;
  in.split_size = static_cast<int>(members.size());
  detail::CollStats stats;
  const auto outcome = group_->collective(rank_, in, stats);
  record_coll_stats(static_cast<int>(in.op), stats.wait_seconds,
                    stats.contended);
  clock_->observe(clock_->now() + machine_->barrier_time(size()));
  return Communicator(outcome->split_groups.at(color), new_rank, clock_,
                      machine_, rng_);
}

Communicator Communicator::sibling(VirtualClock* clock, pal::Rng* rng) const {
  return Communicator(group_, rank_, clock, machine_,
                      rng != nullptr ? rng : rng_);
}

}  // namespace insitu::comm
