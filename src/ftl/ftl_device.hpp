// Flash-translation-layer device — the layer *below* the block interface.
//
// Every PDE scheme in this repo defends the block device it is handed. "The
// Block-based Mobile PDE Systems Are Not Secure" (arXiv 2203.16349) breaks
// such schemes by imaging the raw NAND underneath: the FTL writes
// out-of-place, so a logical overwrite leaves the old page content intact
// (as a stale page) until garbage collection erases it, and the
// logical->physical map plus program sequence numbers reveal *where* and
// *in what order* data landed — information the block-level snapshot
// adversary never sees. ftl::FtlDevice reproduces exactly the mechanisms
// that leak: page-level mapping over erase blocks, out-of-place programs,
// greedy GC with configurable over-provisioning, wear-leveling counters,
// and read/program/erase timing asymmetry on the shared virtual clock.
//
// The device is a normal blockdev::BlockDevice, so it can sit under any
// stack that api::stack_device_for builds (single, striped, mirrored,
// fault-injected). Its *medium* is another BlockDevice (physical pages +
// out-of-band mapping metadata + erase counters), which is what the
// raw-flash adversary images via snapshot_raw_flash() and what survives a
// power cut: attach() rebuilds the full mapping from the medium alone.
//
// Medium layout, in medium blocks of cfg.block_size bytes:
//   [0, phys_pages)        data pages, one page per medium block
//   [oob_start, +oob)      OOB entries, 16 bytes per page:
//                            [u64 logical][u64 seq], all-0xFF = erased/free
//   [meta_start, +meta)    erase counters, 8 bytes per erase block
// A program writes the data page first, then its OOB entry — a power cut
// between the two leaves an unacknowledged page that the attach() scan
// classifies as garbage (its OOB is still erased), never as valid data.
// GC relocation gives the copy a higher sequence number, so after a crash
// the highest-seq OOB entry per logical page wins and stale originals lose.
//
// Determinism: no randomness anywhere — allocation picks the lowest-wear
// (then lowest-index) free erase block, GC picks the min-valid (then
// lowest-index) sealed victim, and all time is virtual. Replays are exact.
//
// Thread safety: per-instance serialized, like MemBlockDevice/TimedDevice.
// Under a striped stack each stripe gets its own FtlDevice, serialized by
// the stripe's submit queue.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "blockdev/block_device.hpp"
#include "util/sim_clock.hpp"

namespace mobiceal::ftl {

/// Per-operation NAND service times (nanoseconds). Unlike
/// blockdev::TimingModel — a black-box device-level fit — these are the
/// *mechanism* costs: a logical write may charge several programs, page
/// reads, and block erases when it triggers garbage collection.
struct FlashTimingModel {
  /// Command decode / controller overhead per host request.
  std::uint64_t cmd_ns = 4'000;
  /// One page read (cell sense + transfer).
  std::uint64_t read_page_ns = 80'000;
  /// One page program.
  std::uint64_t program_page_ns = 600'000;
  /// One erase-block erase.
  std::uint64_t erase_block_ns = 3'000'000;

  /// MLC-class NAND: ~50 MB/s page reads, ~7 MB/s single-die programs,
  /// millisecond erases — the asymmetry the paper's attacks exploit.
  static FlashTimingModel mlc_nand();
};

/// Geometry/config of one FTL instance. All knobs reachable through
/// api::StackConfig (--ftl, --ftl-over-provision, --ftl-pages-per-block).
struct FtlConfig {
  /// Logical capacity exported to the stack above, in pages (= blocks).
  std::uint64_t logical_blocks = 0;
  /// Page size in bytes; one logical block maps to one flash page.
  std::size_t block_size = 4096;
  /// Pages per erase block.
  std::uint32_t pages_per_block = 64;
  /// Extra physical capacity beyond logical, in percent. The physical pool
  /// is never smaller than logical + 4 erase blocks (GC needs slack).
  std::uint32_t over_provision_pct = 7;
  FlashTimingModel timing;
};

/// Sentinel: logical page not mapped / OOB slot erased.
inline constexpr std::uint64_t kUnmappedPage = ~std::uint64_t{0};

/// Bytes per OOB entry on the medium: [u64 logical][u64 seq].
inline constexpr std::size_t kOobEntrySize = 16;

/// Derived medium layout (see file comment). Pure function of FtlConfig.
struct FtlGeometry {
  std::size_t block_size = 0;
  std::uint64_t logical_pages = 0;
  std::uint32_t pages_per_block = 0;
  std::uint64_t erase_blocks = 0;  ///< physical erase-block count
  std::uint64_t phys_pages = 0;    ///< erase_blocks * pages_per_block
  std::uint64_t oob_start_block = 0;
  std::uint64_t oob_blocks = 0;
  std::uint64_t meta_start_block = 0;
  std::uint64_t meta_blocks = 0;
  std::uint64_t medium_blocks = 0;  ///< total medium capacity required

  static FtlGeometry compute(const FtlConfig& cfg);

  std::uint64_t erase_block_of(std::uint64_t phys_page) const noexcept {
    return phys_page / pages_per_block;
  }
  /// Medium block holding the OOB entry of `phys_page`, and the byte
  /// offset of the entry within that block.
  std::uint64_t oob_block_of(std::uint64_t phys_page) const noexcept {
    return oob_start_block + phys_page / (block_size / kOobEntrySize);
  }
  std::size_t oob_offset_of(std::uint64_t phys_page) const noexcept {
    return (phys_page % (block_size / kOobEntrySize)) * kOobEntrySize;
  }
  /// Medium block / byte offset of erase counter for `erase_block`.
  std::uint64_t meta_block_of(std::uint64_t erase_block) const noexcept {
    return meta_start_block + erase_block / (block_size / 8);
  }
  std::size_t meta_offset_of(std::uint64_t erase_block) const noexcept {
    return (erase_block % (block_size / 8)) * 8;
  }
};

/// Physical page classification as the raw-flash adversary sees it.
enum class PageState : std::uint8_t {
  kFree,   ///< erased, OOB sentinel
  kValid,  ///< highest-seq copy of its logical page
  kStale,  ///< superseded copy — old content still readable until erased
};

/// A raw-flash image plus everything the adversary (and attach()) can
/// parse out of it. Parsing is a pure function of the medium image and the
/// geometry config — the adversary needs no cooperation from the FTL.
struct RawFlashSnapshot {
  struct Page {
    std::uint64_t logical = kUnmappedPage;  ///< kUnmappedPage when free
    std::uint64_t seq = 0;                  ///< program sequence number
    PageState state = PageState::kFree;
  };

  FtlGeometry geometry;
  util::Bytes medium_image;               ///< full raw medium
  std::vector<Page> pages;                ///< indexed by physical page
  std::vector<std::uint64_t> map;         ///< logical -> phys or kUnmappedPage
  std::vector<std::uint64_t> erase_counts;  ///< per erase block
  std::uint64_t max_seq = 0;

  /// Parses a raw medium image. Malformed OOB entries (e.g. a power cut
  /// mid-GC left a logical index out of range) are classified kStale with
  /// logical == kUnmappedPage rather than rejected. Throws util::IoError
  /// if the image is smaller than the geometry requires.
  static RawFlashSnapshot parse(util::Bytes medium_image,
                                const FtlConfig& cfg);

  /// Raw content of one physical page.
  util::ByteSpan page_data(std::uint64_t phys_page) const;

  /// Logical image reconstructed through the parsed map (unmapped pages
  /// read as zeros) — byte-comparable against a block-level Snapshot.
  util::Bytes logical_image() const;
};

/// Lifetime counters. programs/page_reads/erases count flash operations
/// (host plus GC); host_* count what the stack above asked for.
struct FtlStats {
  std::uint64_t host_reads = 0;   ///< pages read by the host
  std::uint64_t host_writes = 0;  ///< pages written by the host
  std::uint64_t programs = 0;     ///< pages programmed (host + GC)
  std::uint64_t page_reads = 0;   ///< pages read from flash (host + GC)
  std::uint64_t gc_relocations = 0;
  std::uint64_t erases = 0;
  std::uint64_t gc_runs = 0;

  double write_amplification() const noexcept {
    return host_writes == 0
               ? 0.0
               : static_cast<double>(programs) /
                     static_cast<double>(host_writes);
  }
};

/// The FTL device proper. Construct with create() (formats a fresh medium)
/// or attach() (rebuilds the mapping from an existing medium's OOB region —
/// the power-cut recovery path).
class FtlDevice final : public blockdev::BlockDevice {
 public:
  /// Formats `medium` (erases everything) and returns a device exporting
  /// cfg.logical_blocks. Pass medium == nullptr to auto-create a
  /// MemBlockDevice of the required physical size. Throws util::IoError if
  /// a provided medium is too small or has the wrong block size.
  static std::shared_ptr<FtlDevice> create(
      const FtlConfig& cfg, std::shared_ptr<util::SimClock> clock,
      std::shared_ptr<blockdev::BlockDevice> medium = nullptr);

  /// Rebuilds the logical->physical map from the medium's OOB region
  /// (highest sequence number per logical page wins; unacknowledged or
  /// malformed pages become garbage for the next GC). No data is moved.
  static std::shared_ptr<FtlDevice> attach(
      const FtlConfig& cfg, std::shared_ptr<util::SimClock> clock,
      std::shared_ptr<blockdev::BlockDevice> medium);

  ~FtlDevice() override;

  FtlDevice(const FtlDevice&) = delete;
  FtlDevice& operator=(const FtlDevice&) = delete;

  std::size_t block_size() const noexcept override {
    return geometry_.block_size;
  }
  std::uint64_t num_blocks() const noexcept override {
    return geometry_.logical_pages;
  }
  /// NAND has no volatile write cache in this model: flush is a pure
  /// barrier (drains in-flight requests, charges one command).
  void flush() override;

  // -- raw-flash adversary hook -------------------------------------------

  /// Images the medium and parses it — the raw-flash analogue of
  /// BlockDevice::snapshot(). Charges no virtual time (the adversary
  /// images a seized, powered-off chip).
  RawFlashSnapshot snapshot_raw_flash();

  // -- untimed logical access (parity checks, bench plumbing) -------------

  /// Reads logical blocks through the map without charging virtual time or
  /// stats. Unmapped blocks read as zeros.
  void read_logical_untimed(std::uint64_t first, std::uint64_t count,
                            util::MutByteSpan out);

  /// Full logical image via read_logical_untimed.
  util::Bytes logical_image();

  // -- introspection ------------------------------------------------------

  const FtlConfig& config() const noexcept { return cfg_; }
  const FtlGeometry& geometry() const noexcept { return geometry_; }
  const FtlStats& stats() const noexcept { return stats_; }
  const std::vector<std::uint64_t>& erase_counts() const noexcept {
    return erase_counts_;
  }
  /// Currently erased (programmable) pages across the pool.
  std::uint64_t free_pages() const noexcept;
  blockdev::BlockDevice& medium() noexcept { return *medium_; }

 protected:
  /// Serial flash channel: one command at a time, in submission order.
  /// queue_depth() is advisory and ignored — a single die has no
  /// overlapped transfer slots. Data moves at submit time; the completion
  /// lands when the channel frees up plus the full mechanism cost
  /// (including any GC the write triggered).
  std::uint64_t do_submit(const blockdev::IoRequest& req) override;
  std::uint64_t completion_cutoff() const noexcept override;
  void do_drain() override;
  void do_wait_until(std::uint64_t cutoff) override;
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

 private:
  FtlDevice(const FtlConfig& cfg, std::shared_ptr<util::SimClock> clock,
            std::shared_ptr<blockdev::BlockDevice> medium);

  /// Formats the medium: 0xFF over data + OOB (erased flash), zeroed
  /// erase counters.
  void format();
  /// Rebuilds in-memory state from the medium (attach path).
  void load_from_medium();

  // Untimed mechanism primitives; each adds its flash cost to accrued_ns_.
  void service_read(std::uint64_t first, std::uint64_t count,
                    util::MutByteSpan out);
  void service_write(std::uint64_t first, util::ByteSpan data);
  /// Programs `data` as the new copy of `logical`; invalidates the old
  /// copy. May trigger GC while opening a fresh erase block.
  void program_logical(std::uint64_t logical, util::ByteSpan data);
  /// Next programmable page of the host stream (opens blocks, runs GC).
  std::uint64_t alloc_host_page();
  /// Next programmable page of the GC relocation stream (never recurses
  /// into GC; consumes the reserved free blocks).
  std::uint64_t alloc_gc_page();
  /// Lowest-wear (then lowest-index) fully-free erase block, or
  /// kUnmappedPage if none. `exclude_open` skips the two stream blocks.
  std::uint64_t pick_free_block() const;
  /// Greedy victim: min valid pages (then lowest index) among sealed,
  /// non-empty blocks with something to reclaim. kUnmappedPage if none.
  std::uint64_t pick_victim() const;
  /// Relocates the victim's valid pages into the GC stream and erases it.
  void gc_once(std::uint64_t victim);
  /// Runs GC until the free-block reserve is restored (or no victim).
  void maybe_gc();
  /// Erases one block: 0xFF data + OOB, persisted erase counter bump.
  void erase_block(std::uint64_t erase_block);
  /// Writes the OOB entry of `phys_page` (read-modify-write of its block).
  void write_oob(std::uint64_t phys_page, std::uint64_t logical,
                 std::uint64_t seq);

  std::uint64_t fully_free_blocks() const noexcept;
  bool is_open_block(std::uint64_t erase_block) const noexcept;

  /// Barrier for the sync paths: advance the clock past the busy channel.
  void advance_to_idle();

  FtlConfig cfg_;
  FtlGeometry geometry_;
  FlashTimingModel timing_;
  std::shared_ptr<util::SimClock> clock_;
  std::shared_ptr<blockdev::BlockDevice> medium_;

  std::vector<std::uint64_t> map_;           // logical -> phys
  std::vector<std::uint64_t> page_logical_;  // phys -> logical
  std::vector<PageState> page_state_;        // phys -> state
  std::vector<std::uint64_t> erase_counts_;  // per erase block
  std::vector<std::uint32_t> used_pages_;    // programmed pages per block
  std::vector<std::uint32_t> valid_pages_;   // valid pages per block
  std::uint64_t seq_ = 0;                    // last program sequence number

  // Two program streams: host writes and GC relocations (cold/hot split).
  std::uint64_t host_block_ = kUnmappedPage;
  std::uint32_t host_next_page_ = 0;
  std::uint64_t gc_block_ = kUnmappedPage;
  std::uint32_t gc_next_page_ = 0;

  FtlStats stats_;
  std::uint64_t accrued_ns_ = 0;  // mechanism cost of the current request

  /// Serial command channel on the virtual clock; absolute ns, zeroed by
  /// the clock reset hook (bench repetitions reset the timeline).
  std::uint64_t busy_until_ = 0;
  util::SimClock::ResetHookId reset_hook_ = 0;
};

/// Read-only *logical* view of an FtlDevice that charges no virtual time —
/// the parity/snapshot handle the bench harness exposes as the stack's
/// "raw" image when the FTL is enabled (the block-level adversary sees the
/// logical array; the raw-flash adversary uses snapshot_raw_flash()).
/// Writes and flushes throw util::PolicyError.
class FtlLogicalView final : public blockdev::BlockDevice {
 public:
  explicit FtlLogicalView(std::shared_ptr<FtlDevice> ftl)
      : ftl_(std::move(ftl)) {}

  std::size_t block_size() const noexcept override {
    return ftl_->block_size();
  }
  std::uint64_t num_blocks() const noexcept override {
    return ftl_->num_blocks();
  }

 protected:
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

 private:
  std::shared_ptr<FtlDevice> ftl_;
};

}  // namespace mobiceal::ftl
