// Sharded parallel probe (ROADMAP: "runs as fast as the hardware allows").
// The paper scaled by running one probe process per PoP link (§2.1); this
// scales one link's software pipeline across cores by hashing the customer
// address into N independent Probe shards — each with its own flow table,
// DPI state and DN-Hunter cache — drained by one worker thread per shard.
//
// Handoff: ingest() swaps the caller's frame buffer with the recycled
// buffer in the next slot of its shard's staging burst, and the feeder
// hands the burst over with one SPSC push once it holds kBurstFrames frames
// (fewer for small rings, see burst_limit_). The worker handles the burst
// frame by frame in seq order, then returns it — buffers and all — on a
// per-shard recycle ring. So a push (and the futex wake it may pay) is
// amortised over a burst, and the buffers circulate caller → burst →
// worker → recycle ring → caller: the feeder copies no frame, and no
// buffer is freed across threads. try_ingest() copies instead, so a
// refused frame stays with the caller for its retry.
// queue_capacity stays denominated in frames: staged plus ringed frames of
// a shard never exceed it. Staged bursts are flushed before every control
// event, snapshot()/restore() barrier and finish(); abandon() drops them.
//
// Why the customer address is the shard key: every analytics dimension of
// the paper is per-subscription, and DN-Hunter's cache is per-client by
// construction (IMC'12: the name a *client* resolved right before opening
// *its* flow). Routing both the customer's flows and the DNS responses
// travelling to that customer onto the same shard preserves DN-Hunter's
// per-client semantics exactly — a shard sees the same packets for its
// clients that a single-threaded probe would, in the same order.
//
// Determinism: the feeder stamps every frame with a global arrival
// sequence number; the flow table records the stamp of the packet that
// created each flow in `FlowRecord::ingest_seq`. Because one packet
// creates at most one flow and every packet has exactly one global seq,
// the tag is unique per record and independent of the shard count.
// finish() merges the per-shard export buffers by that tag, yielding a
// record stream (creation order) that is byte-identical for N = 1, 4, 8, …
// and equal, as a re-ordering, to the single-threaded probe's stream.
// Three documented exceptions, all absent from the paper's deployment:
// packet sampling is applied at the feeder (globally, like the serial
// probe) so shards never sample; per-shard max_flows force-eviction can
// split flows differently than a single shared table once the aggregate
// cap is exceeded; and a flow whose idle deadline falls between its
// shard's last packet timestamp and the stream's may report kProbeFlush
// where the serial probe reports kIdleTimeout (each shard's clock only
// advances on its own packets).
//
// Supervision hooks (runtime::Supervisor, DESIGN §11): the feeder can
// probe ring occupancy (try_ingest + queue_depth) to drive overload-aware
// shedding, read per-shard heartbeats for stall detection, quarantine a
// frame whose processing throws (restoring the shard's probe from its last
// good in-memory checkpoint instead of killing the process), and run
// coordinated snapshot/restore barriers through the rings so a pipeline
// checkpoint captures every shard at exactly the same stream position.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/result.hpp"
#include "core/spsc_queue.hpp"
#include "flow/record.hpp"
#include "net/packet.hpp"
#include "probe/probe.hpp"

namespace edgewatch::probe {

/// Thrown by a frame inspector (or anything reached from Probe::process)
/// to signal that the shard's probe state may be half-mutated and must be
/// rolled back to its last good snapshot, not merely skipped past. Any
/// other exception thrown *before* processing starts leaves the probe
/// untouched, so the worker only quarantines the frame.
struct StateSuspectError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ShardedProbeConfig {
  /// Template for every shard. `sample_rate` is honoured globally at the
  /// feeder (shards never sample); `flow.max_flows` is divided across
  /// shards so the aggregate memory bound is unchanged.
  ProbeConfig probe;
  std::size_t shards = 4;
  /// Frames buffered per shard — staged in the feeder's burst plus pushed
  /// to the ring and not yet started — before the feeder blocks
  /// (backpressure keeps memory bounded when one shard falls behind).
  /// Rounded up to a power of two (minimum 2).
  std::size_t queue_capacity = 1024;

  /// Invoked on the worker thread for every frame, before it reaches the
  /// shard's probe. The hook where payload-touching extensions plug in —
  /// and where the chaos harness injects poison (throw) and stalls
  /// (block). May throw: a plain exception quarantines the frame (probe
  /// state untouched); StateSuspectError additionally restores the shard
  /// from its last snapshot.
  std::function<void(std::uint64_t seq, const net::Frame&)> frame_inspector;
  /// Invoked on the worker thread when a frame is quarantined.
  /// `state_restored` tells whether the shard rolled back to a snapshot.
  std::function<void(std::uint64_t seq, const net::Frame&, bool state_restored)> poison_sink;
  /// Worker-local frames between automatic probe snapshots (the "last good
  /// state" a poison rollback restores). 0 disables snapshots — a poison
  /// frame then resets the shard to empty.
  std::uint64_t snapshot_interval = 0;
};

/// Coordinated state capture of the whole sharded pipeline at one stream
/// position: every shard's EWCP image, plus all records exported so far
/// (drained, merged in creation order). Taken via ShardedProbe::snapshot().
struct PipelineSnapshot {
  std::uint64_t next_seq = 0;                       ///< First unassigned frame seq.
  std::vector<std::vector<std::byte>> shard_state;  ///< One EWCP image per shard.
  std::vector<flow::FlowRecord> records;            ///< Exported so far, by ingest_seq.
};

class ShardedProbe {
 public:
  explicit ShardedProbe(ShardedProbeConfig config);
  ~ShardedProbe();

  ShardedProbe(const ShardedProbe&) = delete;
  ShardedProbe& operator=(const ShardedProbe&) = delete;

  /// Feed one captured frame (single feeder thread). Blocks while the
  /// owning shard buffers queue_capacity() frames. Nothing is copied: the
  /// frame's buffer is swapped with the recycled buffer of its burst slot,
  /// so `frame` comes back holding a buffer some earlier frame used (empty
  /// until the shard's first burst has been recycled; stale bytes after
  /// that). Refill it and ingest it again — net::read_pcap does — and a
  /// frame costs no allocation. A caller that still needs its frame passes
  /// a copy: `ingest(net::Frame(f))`.
  void ingest(net::Frame&& frame);

  /// Non-blocking ingest for overload-aware feeders: false when the owning
  /// shard buffers queue_capacity() frames (no sequence number is consumed
  /// — the caller may retry, reroute or shed it). The bytes are copied, so
  /// `frame` is left intact either way: the supervisor retries the same
  /// frame after a refusal. Accepted frames keep stream order with frames
  /// staged by ingest().
  [[nodiscard]] bool try_ingest(net::Frame& frame);

  /// Control events ride the same rings as frames, so they take effect at
  /// exactly the same stream position on every shard (upgrade events C/F,
  /// outage windows of §2.3). Staged bursts are flushed first.
  void set_classifier_options(dpi::ClassifierOptions options);
  void begin_outage();
  void end_outage();

  /// Checkpoint barrier: flush the staged bursts, wait for every shard to
  /// drain its ring, then capture each probe's state and hand over all
  /// exported records. After it returns, the pipeline keeps running — this
  /// is the supervisor's periodic pipeline checkpoint, not a shutdown.
  [[nodiscard]] PipelineSnapshot snapshot();

  /// Restore barrier: replace every shard's probe state with the given
  /// EWCP images (one per shard, from PipelineSnapshot::shard_state) and
  /// reset the feeder's frame sequence to `next_seq`. Must run before any
  /// frame is ingested. Fails with kUnsupported on a shard-count mismatch;
  /// a shard whose image fails to decode is left reset and reported.
  core::Result<void> restore(const std::vector<std::vector<std::byte>>& shard_state,
                             std::uint64_t next_seq);

  /// Flush the staged bursts, drain every ring, flush every shard's open
  /// flows, join the workers, and return all exported records merged by
  /// `ingest_seq` (deterministic creation order, independent of the shard
  /// count). Idempotent; after the first call the probe accepts no more
  /// frames.
  [[nodiscard]] std::vector<flow::FlowRecord> finish();

  /// Simulated hard kill (chaos harness): stop the workers without
  /// flushing open flows or exporting anything — in-memory state, staged
  /// bursts included, dies exactly as it would with SIGKILL. Idempotent
  /// with finish().
  void abandon();

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }

  /// Most frames one ring push hands over.
  static constexpr std::size_t kBurstFrames = 64;

  /// --- Observability for the supervision layer (any thread) ---
  /// Frames pushed to shard `i`'s ring that its worker has not started.
  /// Frames still staged on the feeder are not counted: the worker cannot
  /// see them, so a heartbeat standing still over them is no stall.
  [[nodiscard]] std::size_t queue_depth(std::size_t i) const noexcept;
  /// Frames a shard may buffer (staged plus ringed), see queue_capacity.
  [[nodiscard]] std::size_t queue_capacity() const noexcept { return capacity_; }
  /// Heartbeat: frames and control items shard `i`'s worker has fully
  /// handled. A shard whose heartbeat stands still while its ring is
  /// non-empty is stalled.
  [[nodiscard]] std::uint64_t heartbeat(std::size_t i) const noexcept;
  /// Frames quarantined (processing threw) per shard / total.
  [[nodiscard]] std::uint64_t quarantined(std::size_t i) const noexcept;
  [[nodiscard]] std::uint64_t quarantined_total() const noexcept;
  /// Poison rollbacks that restored a shard from its last snapshot.
  [[nodiscard]] std::uint64_t state_restores() const noexcept;

  /// Aggregated per-shard counters plus the feeder's frame/sampling
  /// counts. Only meaningful after finish() (shard state is thread-owned
  /// while the workers run).
  [[nodiscard]] Probe::Counters counters() const;

 private:
  /// Filled by the worker at a snapshot/restore barrier item.
  struct BarrierSlot {
    std::vector<std::byte> state_in;     ///< kRestore: image to apply.
    std::vector<std::byte> state_out;    ///< kSnapshot: captured image.
    std::vector<flow::FlowRecord> records;  ///< kSnapshot: drained exports.
    core::Errc errc = core::Errc::kOk;
    std::atomic<bool> done{false};
  };

  /// Up to burst_limit_ frames with their global seqs. Bursts circulate
  /// feeder → ring → worker → recycle ring → feeder. ingest() trades slot
  /// buffers for the caller's, so the set of buffers in circulation stays
  /// fixed and steady state allocates nothing.
  struct Burst {
    std::size_t size = 0;
    std::vector<std::uint64_t> seqs;
    std::vector<net::Frame> frames;
  };

  struct Item {
    enum class Kind : std::uint8_t {
      kBurst,
      kClassifier,
      kBeginOutage,
      kEndOutage,
      kSnapshot,
      kRestore,
    };
    Kind kind = Kind::kBurst;
    std::unique_ptr<Burst> burst;
    dpi::ClassifierOptions options;
    std::shared_ptr<BarrierSlot> barrier;
  };

  struct Shard {
    Shard(std::size_t ring_slots, std::size_t recycle_slots)
        : queue(ring_slots), recycle(recycle_slots) {}
    core::SpscQueue<Item> queue;
    core::SpscQueue<std::unique_ptr<Burst>> recycle;
    std::unique_ptr<Probe> probe;
    std::vector<flow::FlowRecord> records;  ///< Written by worker, read after join.
    std::thread worker;
    // Feeder-owned staging state.
    std::unique_ptr<Burst> staged;
    std::uint64_t started_seen = 0;  ///< Last read of `started` (a lower bound).
    // Worker-owned poison-recovery state.
    std::vector<std::byte> last_snapshot;
    std::uint64_t frames_since_snapshot = 0;
    // Cross-thread counters; each has a single writer. pushed - started is
    // the ring depth in frames.
    alignas(64) std::atomic<std::uint64_t> pushed{0};  ///< Feeder: frames pushed.
    alignas(64) std::atomic<std::uint64_t> started{0};  ///< Worker: frames started.
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<std::uint64_t> quarantined{0};
    std::atomic<std::uint64_t> restores{0};
  };

  [[nodiscard]] std::size_t shard_of(const net::Frame& frame) const noexcept;
  /// Staged plus ringed frames of `shard` are below capacity_.
  [[nodiscard]] bool has_room(Shard& shard) noexcept;
  /// Put `frame` in the next slot of the shard's staged burst: `copy` copies
  /// its bytes, otherwise its buffer is swapped with the slot's.
  void stage(Shard& shard, net::Frame& frame, bool copy);
  /// Hand the staged burst to the worker. `block` waits for a ring slot;
  /// otherwise a full ring leaves the burst staged.
  void flush(Shard& shard, bool block);
  void flush_all();
  void broadcast(Item::Kind kind, dpi::ClassifierOptions options = {});
  /// Push one barrier item per shard and wait for every worker to mark its
  /// slot done. Returns the slots for harvesting.
  std::vector<std::shared_ptr<BarrierSlot>> barrier(
      Item::Kind kind, const std::vector<std::vector<std::byte>>* state_in);
  void worker_loop(Shard& shard);
  void run_burst(Shard& shard, Burst& burst);
  void handle_frame(Shard& shard, std::uint64_t seq, const net::Frame& frame);
  void join_workers();

  ShardedProbeConfig config_;
  std::size_t capacity_ = 0;     ///< Frames per shard (queue_capacity, rounded).
  std::size_t burst_limit_ = 0;  ///< Frames per burst.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t feeder_frames_ = 0;
  std::uint64_t feeder_sampled_out_ = 0;
  std::atomic<bool> abandoned_{false};
  bool finished_ = false;
};

}  // namespace edgewatch::probe
