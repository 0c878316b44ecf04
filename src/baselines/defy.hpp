// Baseline 4: DEFY-style log-structured deniable device [33].
//
// DEFY builds deniability into a YAFFS-derived log-structured flash
// filesystem: every write appends a freshly (re-)encrypted page plus
// metadata pages (tnode/chunk-group updates re-encrypted along the way),
// and secure deletion re-keys whole key chains. Its measured cost (Table I:
// 800 -> 50 MB/s on nandsim, 93.75% overhead) is dominated by cryptographic
// work and metadata write amplification, not the medium.
//
// We reproduce it at the block level: a functional log-structured translator
// with per-write metadata amplification and a heavy per-page crypto charge,
// plus threshold-triggered garbage collection that relocates live pages.
#pragma once

#include <memory>
#include <vector>

#include "blockdev/block_device.hpp"
#include "crypto/modes.hpp"
#include "crypto/random.hpp"
#include "util/sim_clock.hpp"

namespace mobiceal::baselines {

class DefyDevice final : public blockdev::BlockDevice {
 public:
  struct Config {
    /// Extra metadata pages appended per data page (tnodes, headers).
    std::uint32_t metadata_amp = 2;
    /// Per-page cryptographic cost (multiple AES passes + KDF chain walk on
    /// the desktop CPU DEFY was evaluated on, ~200 MB/s AES), charged per
    /// page actually written or read.
    std::uint64_t crypto_ns_per_page = 20'000;
    /// Start GC when free space falls below this fraction.
    double gc_threshold = 0.15;
    std::uint64_t rng_seed = 4;
  };

  /// The logical capacity is a fraction of the physical log (DEFY reserves
  /// space for stale versions): logical = phys * 0.5.
  DefyDevice(std::shared_ptr<blockdev::BlockDevice> phys, util::ByteSpan key,
             const Config& config,
             std::shared_ptr<util::SimClock> clock = nullptr);

  std::size_t block_size() const noexcept override {
    return phys_->block_size();
  }
  std::uint64_t num_blocks() const noexcept override { return logical_; }
  void flush() override { phys_->flush(); }

  std::uint64_t gc_runs() const noexcept { return gc_runs_; }

 protected:
  /// When the physical device keeps multiple requests in flight
  /// (queue_depth() > 1), a multi-page call is batched: appended pages —
  /// data and metadata — are encrypted into a staging buffer and issued as
  /// coalesced vectored submit() runs (the log head makes them mostly
  /// contiguous), and reads fan mapped-page runs out through submit(). At
  /// queue depth 1, and for one-page calls at any depth, the per-page
  /// helpers run page by page (a one-page batch would time differently).
  /// Bookkeeping, RNG draws and crypto charges are order-identical on both
  /// paths, so device state is bit-identical at every depth.
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

 private:
  /// Batches physical page writes for one vectored call: pages land in a
  /// staging buffer and flush as coalesced async submissions.
  struct PageBatch;

  /// The per-page paths: one logical page through the log.
  void read_page(std::uint64_t index, util::MutByteSpan out);
  void write_page(std::uint64_t index, util::ByteSpan data);

  /// Appends into `batch` when non-null, else writes through directly.
  void append_page(std::uint64_t logical, util::ByteSpan data,
                   PageBatch* batch = nullptr);
  void append_metadata_pages(PageBatch* batch = nullptr);
  void garbage_collect();
  std::uint64_t log_advance();
  /// First cipher sector of `page` under its current generation.
  std::uint64_t page_sector(std::uint64_t page) const;

  std::shared_ptr<blockdev::BlockDevice> phys_;
  std::unique_ptr<crypto::SectorCipher> cipher_;
  Config config_;
  std::shared_ptr<util::SimClock> clock_;
  std::uint64_t logical_ = 0;
  std::uint64_t physical_ = 0;

  std::vector<std::uint64_t> map_;        // logical -> physical page
  std::vector<std::uint64_t> page_owner_; // physical -> logical (or free)
  std::vector<std::uint32_t> gens_;
  std::uint64_t head_ = 0;
  std::uint64_t live_pages_ = 0;
  std::uint64_t gc_runs_ = 0;
  crypto::SecureRandom rng_;
};

}  // namespace mobiceal::baselines
