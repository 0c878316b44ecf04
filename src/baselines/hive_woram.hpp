// Baseline 3: HIVE-style write-only ORAM block device [15].
//
// HIVE hides *which* logical block a write touches: every logical write
// updates k uniformly random physical slots (the real block lands in a free
// one, the others are re-encrypted in place), so the physical write pattern
// is independent of the logical access pattern and a multi-snapshot
// adversary learns nothing. The costs that Table I reports (99.55% overhead
// on a SATA SSD) come from:
//   * k-fold physical write amplification at random locations,
//   * stash spills when no sampled slot is free,
//   * position-map I/O (the map exceeds RAM and lives on disk), and
//   * a durability barrier per logical write.
// All four are reproduced here; the device is fully functional (round-trip
// correct) so the same workloads run on it.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "blockdev/block_device.hpp"
#include "crypto/modes.hpp"
#include "crypto/random.hpp"
#include "util/sim_clock.hpp"

namespace mobiceal::baselines {

class HiveWoOram final : public blockdev::BlockDevice {
 public:
  struct Config {
    /// Physical slots per logical block (HIVE: 2N physical for N logical).
    double space_blowup = 2.0;
    /// Slots sampled (and rewritten) per logical write (HIVE: k = 3).
    std::uint32_t k = 3;
    /// Position-map I/Os charged per logical access (B-tree levels).
    std::uint32_t posmap_ios = 4;
    /// HIVE keeps map+data crash-consistent: a durability barrier follows
    /// every physical slot write (this, not bandwidth, dominates its cost).
    bool sync_every_physical_write = true;
    std::uint32_t max_stash = 128;
    std::uint64_t rng_seed = 3;
  };

  /// `phys` provides the physical slots; the logical capacity is
  /// phys->num_blocks() / space_blowup.
  HiveWoOram(std::shared_ptr<blockdev::BlockDevice> phys, util::ByteSpan key,
             const Config& config,
             std::shared_ptr<util::SimClock> clock = nullptr);

  std::size_t block_size() const noexcept override {
    return phys_->block_size();
  }
  std::uint64_t num_blocks() const noexcept override { return logical_; }
  void flush() override { phys_->flush(); }

  std::size_t stash_size() const noexcept { return stash_.size(); }
  /// Physical writes issued per logical write so far (amplification).
  double write_amplification() const noexcept;

 protected:
  /// Vectored reads (queue_depth() > 1): every mapped slot of the range is
  /// submitted as its own async request — the slots are uniformly random,
  /// so runs rarely coalesce, but the fetches overlap under the device
  /// queue. Position-map charges and results are identical to the
  /// per-block path, which runs at queue depth 1.
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  /// Block by block: every logical write samples its own k slots.
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

 private:
  /// The per-block paths: one logical block through the ORAM.
  void read_logical(std::uint64_t index, util::MutByteSpan out);
  void write_logical(std::uint64_t index, util::ByteSpan data);

  void charge_posmap();
  /// First cipher sector of `slot` under its current generation.
  std::uint64_t slot_sector(std::uint64_t slot) const;
  /// Writes `plain` into physical `slot` under a fresh generation.
  void write_slot(std::uint64_t slot, util::ByteSpan plain);
  /// Reads and decrypts the current content of `slot`.
  util::Bytes read_slot(std::uint64_t slot);
  void rerandomise_slot(std::uint64_t slot);

  /// Queues `ct` for physical `slot`. When the device keeps multiple
  /// requests in flight (queue_depth() > 1) the k slot writes of one
  /// logical write batch here and go out as coalesced-where-contiguous
  /// submit() runs, with ONE durability barrier for the batch (the logical
  /// write's map+data sync); at queue depth 1 the slot is written — and,
  /// per config, synced — immediately, exactly the historical trace.
  /// Slot decisions, RNG draws and ciphertext are computed identically on
  /// both paths (the k sampled slots are distinct, so deferring the data
  /// movement changes nothing an adversary can observe).
  void emit_slot_write(std::uint64_t slot, util::Bytes ct);
  /// Flushes queued slot writes: coalesced async submissions + drain.
  void flush_slot_writes();

  std::shared_ptr<blockdev::BlockDevice> phys_;
  std::unique_ptr<crypto::SectorCipher> cipher_;
  Config config_;
  std::shared_ptr<util::SimClock> clock_;
  std::uint64_t logical_ = 0;
  std::uint64_t physical_ = 0;

  /// logical -> physical slot; kNone sentinel when unmapped/free.
  std::vector<std::uint64_t> pos_map_;
  std::vector<std::uint64_t> slot_owner_;
  std::vector<std::uint32_t> gens_;
  /// Stash of versions waiting for a free slot. An ORDERED map: the drain
  /// path pops begin(), and with an unordered container that choice — and
  /// therefore the physical device image — would depend on the standard
  /// library's hash layout. std::map pins it to "smallest logical index
  /// first" on every platform (regression-tested; also lint rule
  /// unordered-iteration).
  std::map<std::uint64_t, util::Bytes> stash_;

  crypto::SecureRandom rng_;
  std::uint64_t logical_writes_ = 0;
  std::uint64_t physical_writes_ = 0;
  /// Slot writes queued for the current logical write (queue_depth > 1).
  std::vector<std::pair<std::uint64_t, util::Bytes>> pending_slots_;
  bool batching_ = false;
};

}  // namespace mobiceal::baselines
