#include "ftl/ftl_device.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace mobiceal::ftl {

namespace {

/// Medium blocks erased/formatted per vectored write while filling 0xFF.
constexpr std::uint64_t kFormatBatchBlocks = 256;

void fill_ff(blockdev::BlockDevice& dev, std::uint64_t first,
             std::uint64_t count) {
  const std::size_t bs = dev.block_size();
  util::Bytes batch(static_cast<std::size_t>(
                        std::min<std::uint64_t>(count, kFormatBatchBlocks)) *
                        bs,
                    0xFF);
  std::uint64_t at = first;
  std::uint64_t left = count;
  while (left > 0) {
    const std::uint64_t n = std::min<std::uint64_t>(left, kFormatBatchBlocks);
    dev.write_blocks(at, util::ByteSpan(batch.data(), n * bs));
    at += n;
    left -= n;
  }
}

}  // namespace

FlashTimingModel FlashTimingModel::mlc_nand() {
  FlashTimingModel m;
  // MLC NAND, single die: ~80 µs page read (~50 MB/s at 4 KiB pages),
  // ~600 µs page program (~7 MB/s), ~3 ms block erase. The program/read
  // asymmetry plus erase amplification is what GC pressure surfaces.
  m.cmd_ns = 4'000;
  m.read_page_ns = 80'000;
  m.program_page_ns = 600'000;
  m.erase_block_ns = 3'000'000;
  return m;
}

FtlGeometry FtlGeometry::compute(const FtlConfig& cfg) {
  if (cfg.logical_blocks == 0)
    throw util::IoError("ftl: logical_blocks must be > 0");
  if (cfg.block_size < kOobEntrySize || cfg.block_size % kOobEntrySize != 0)
    throw util::IoError("ftl: block_size must be a multiple of 16");
  if (cfg.pages_per_block == 0)
    throw util::IoError("ftl: pages_per_block must be > 0");

  FtlGeometry g;
  g.block_size = cfg.block_size;
  g.logical_pages = cfg.logical_blocks;
  g.pages_per_block = cfg.pages_per_block;

  const std::uint64_t ppb = cfg.pages_per_block;
  const std::uint64_t logical_eb = (g.logical_pages + ppb - 1) / ppb;
  // Over-provisioned physical pool; GC needs slack even at 0% OP: two
  // reserved stream blocks plus room for at least one sealed victim to be
  // rewritten, so enforce a floor of logical + 4 erase blocks.
  const std::uint64_t op_pages =
      g.logical_pages * cfg.over_provision_pct / 100;
  std::uint64_t eb = (g.logical_pages + op_pages + ppb - 1) / ppb;
  eb = std::max(eb, logical_eb + 4);
  g.erase_blocks = eb;
  g.phys_pages = eb * ppb;

  const std::uint64_t oob_per_block = cfg.block_size / kOobEntrySize;
  g.oob_start_block = g.phys_pages;
  g.oob_blocks = (g.phys_pages + oob_per_block - 1) / oob_per_block;
  const std::uint64_t meta_per_block = cfg.block_size / 8;
  g.meta_start_block = g.oob_start_block + g.oob_blocks;
  g.meta_blocks = (g.erase_blocks + meta_per_block - 1) / meta_per_block;
  g.medium_blocks = g.meta_start_block + g.meta_blocks;
  return g;
}

// -- RawFlashSnapshot ---------------------------------------------------------

RawFlashSnapshot RawFlashSnapshot::parse(util::Bytes medium_image,
                                         const FtlConfig& cfg) {
  RawFlashSnapshot s;
  s.geometry = FtlGeometry::compute(cfg);
  const FtlGeometry& g = s.geometry;
  if (medium_image.size() < g.medium_blocks * g.block_size)
    throw util::IoError("ftl: medium image smaller than geometry");
  s.medium_image = std::move(medium_image);

  s.pages.assign(g.phys_pages, Page{});
  s.map.assign(g.logical_pages, kUnmappedPage);
  s.erase_counts.assign(g.erase_blocks, 0);

  const std::uint8_t* img = s.medium_image.data();
  for (std::uint64_t p = 0; p < g.phys_pages; ++p) {
    const std::uint8_t* e =
        img + g.oob_block_of(p) * g.block_size + g.oob_offset_of(p);
    const std::uint64_t logical = util::load_le<std::uint64_t>(e);
    const std::uint64_t seq = util::load_le<std::uint64_t>(e + 8);
    Page& pg = s.pages[p];
    if (logical == kUnmappedPage && seq == kUnmappedPage) continue;  // free
    pg.seq = seq;
    if (logical >= g.logical_pages) {
      // Torn/garbage entry (e.g. power cut corrupted the OOB block):
      // programmed but unusable — garbage for the next GC.
      pg.state = PageState::kStale;
      continue;
    }
    pg.logical = logical;
    pg.state = PageState::kStale;  // promoted below if it wins
    s.max_seq = std::max(s.max_seq, seq);
    const std::uint64_t cur = s.map[logical];
    // Highest sequence number wins; GC copies outrank stale originals.
    if (cur == kUnmappedPage || s.pages[cur].seq < seq) s.map[logical] = p;
  }
  for (std::uint64_t l = 0; l < g.logical_pages; ++l)
    if (s.map[l] != kUnmappedPage)
      s.pages[s.map[l]].state = PageState::kValid;

  for (std::uint64_t b = 0; b < g.erase_blocks; ++b) {
    const std::uint8_t* c =
        img + g.meta_block_of(b) * g.block_size + g.meta_offset_of(b);
    s.erase_counts[b] = util::load_le<std::uint64_t>(c);
  }
  return s;
}

util::ByteSpan RawFlashSnapshot::page_data(std::uint64_t phys_page) const {
  if (phys_page >= geometry.phys_pages)
    throw util::IoError("ftl: page_data out of range");
  return util::ByteSpan(
      medium_image.data() + phys_page * geometry.block_size,
      geometry.block_size);
}

util::Bytes RawFlashSnapshot::logical_image() const {
  util::Bytes out(geometry.logical_pages * geometry.block_size, 0);
  for (std::uint64_t l = 0; l < geometry.logical_pages; ++l) {
    const std::uint64_t p = map[l];
    if (p == kUnmappedPage) continue;
    std::memcpy(out.data() + l * geometry.block_size,
                medium_image.data() + p * geometry.block_size,
                geometry.block_size);
  }
  return out;
}

// -- FtlDevice ---------------------------------------------------------------

FtlDevice::FtlDevice(const FtlConfig& cfg,
                     std::shared_ptr<util::SimClock> clock,
                     std::shared_ptr<blockdev::BlockDevice> medium)
    : cfg_(cfg),
      geometry_(FtlGeometry::compute(cfg)),
      timing_(cfg.timing),
      clock_(std::move(clock)),
      medium_(std::move(medium)) {
  if (!clock_) throw util::IoError("ftl: clock must not be null");
  if (!medium_)
    medium_ = std::make_shared<blockdev::MemBlockDevice>(
        geometry_.medium_blocks, geometry_.block_size);
  if (medium_->block_size() != geometry_.block_size)
    throw util::IoError("ftl: medium block size mismatch");
  if (medium_->num_blocks() < geometry_.medium_blocks)
    throw util::IoError("ftl: medium too small for geometry");
  map_.assign(geometry_.logical_pages, kUnmappedPage);
  page_logical_.assign(geometry_.phys_pages, kUnmappedPage);
  page_state_.assign(geometry_.phys_pages, PageState::kFree);
  erase_counts_.assign(geometry_.erase_blocks, 0);
  used_pages_.assign(geometry_.erase_blocks, 0);
  valid_pages_.assign(geometry_.erase_blocks, 0);
  reset_hook_ = clock_->add_reset_hook([this] { busy_until_ = 0; });
}

FtlDevice::~FtlDevice() { clock_->remove_reset_hook(reset_hook_); }

std::shared_ptr<FtlDevice> FtlDevice::create(
    const FtlConfig& cfg, std::shared_ptr<util::SimClock> clock,
    std::shared_ptr<blockdev::BlockDevice> medium) {
  auto dev = std::shared_ptr<FtlDevice>(
      new FtlDevice(cfg, std::move(clock), std::move(medium)));
  dev->format();
  return dev;
}

std::shared_ptr<FtlDevice> FtlDevice::attach(
    const FtlConfig& cfg, std::shared_ptr<util::SimClock> clock,
    std::shared_ptr<blockdev::BlockDevice> medium) {
  if (!medium) throw util::IoError("ftl: attach needs an existing medium");
  auto dev = std::shared_ptr<FtlDevice>(
      new FtlDevice(cfg, std::move(clock), std::move(medium)));
  dev->load_from_medium();
  return dev;
}

void FtlDevice::format() {
  // Erased NAND reads all-ones: data pages and OOB get 0xFF (the OOB
  // sentinel *is* the erased pattern), erase counters start at zero.
  fill_ff(*medium_, 0, geometry_.oob_start_block + geometry_.oob_blocks);
  util::Bytes zeros(geometry_.block_size, 0);
  for (std::uint64_t b = 0; b < geometry_.meta_blocks; ++b)
    medium_->write_block(geometry_.meta_start_block + b, zeros);
}

void FtlDevice::load_from_medium() {
  // attach() shares the adversary's parser on purpose: recovery uses no
  // state the raw-flash snapshot doesn't expose.
  RawFlashSnapshot snap = RawFlashSnapshot::parse(
      medium_->read_blocks(0, geometry_.medium_blocks), cfg_);
  map_ = snap.map;
  seq_ = snap.max_seq;
  erase_counts_ = snap.erase_counts;
  for (std::uint64_t p = 0; p < geometry_.phys_pages; ++p) {
    page_state_[p] = snap.pages[p].state;
    page_logical_[p] = snap.pages[p].logical;
    if (snap.pages[p].state != PageState::kFree) {
      ++used_pages_[geometry_.erase_block_of(p)];
      if (snap.pages[p].state == PageState::kValid)
        ++valid_pages_[geometry_.erase_block_of(p)];
    }
  }
  // Open stream blocks are not persisted: after a crash the FTL simply
  // opens fresh blocks; half-filled survivors are sealed and GC reclaims
  // their free tails later.
  host_block_ = gc_block_ = kUnmappedPage;
  host_next_page_ = gc_next_page_ = 0;
}

// -- mechanism primitives (untimed; costs accrue into accrued_ns_) -----------

void FtlDevice::write_oob(std::uint64_t phys_page, std::uint64_t logical,
                          std::uint64_t seq) {
  util::Bytes block(geometry_.block_size);
  const std::uint64_t oob_block = geometry_.oob_block_of(phys_page);
  medium_->read_block(oob_block, block);
  std::uint8_t* e = block.data() + geometry_.oob_offset_of(phys_page);
  util::store_le<std::uint64_t>(e, logical);
  util::store_le<std::uint64_t>(e + 8, seq);
  medium_->write_block(oob_block, block);
}

std::uint64_t FtlDevice::fully_free_blocks() const noexcept {
  std::uint64_t n = 0;
  for (std::uint64_t b = 0; b < geometry_.erase_blocks; ++b)
    if (used_pages_[b] == 0 && !is_open_block(b)) ++n;
  return n;
}

bool FtlDevice::is_open_block(std::uint64_t erase_block) const noexcept {
  return erase_block == host_block_ || erase_block == gc_block_;
}

std::uint64_t FtlDevice::pick_free_block() const {
  std::uint64_t best = kUnmappedPage;
  for (std::uint64_t b = 0; b < geometry_.erase_blocks; ++b) {
    if (used_pages_[b] != 0 || is_open_block(b)) continue;
    // Wear leveling: lowest erase count first; index breaks ties so the
    // choice is deterministic.
    if (best == kUnmappedPage || erase_counts_[b] < erase_counts_[best])
      best = b;
  }
  return best;
}

std::uint64_t FtlDevice::pick_victim() const {
  std::uint64_t best = kUnmappedPage;
  for (std::uint64_t b = 0; b < geometry_.erase_blocks; ++b) {
    if (is_open_block(b) || used_pages_[b] == 0) continue;
    if (valid_pages_[b] >= geometry_.pages_per_block) continue;  // no gain
    if (best == kUnmappedPage || valid_pages_[b] < valid_pages_[best])
      best = b;
  }
  return best;
}

void FtlDevice::erase_block(std::uint64_t erase_block) {
  const std::uint64_t first_page =
      erase_block * std::uint64_t{geometry_.pages_per_block};
  fill_ff(*medium_, first_page, geometry_.pages_per_block);
  for (std::uint32_t i = 0; i < geometry_.pages_per_block; ++i) {
    const std::uint64_t p = first_page + i;
    if (page_state_[p] != PageState::kFree)
      write_oob(p, kUnmappedPage, kUnmappedPage);
    page_state_[p] = PageState::kFree;
    page_logical_[p] = kUnmappedPage;
  }
  used_pages_[erase_block] = 0;
  valid_pages_[erase_block] = 0;
  // Persist the wear counter (controller metadata; a power cut may lose
  // the latest bump — wear counts are best-effort after a crash).
  ++erase_counts_[erase_block];
  util::Bytes block(geometry_.block_size);
  const std::uint64_t meta_block = geometry_.meta_block_of(erase_block);
  medium_->read_block(meta_block, block);
  util::store_le<std::uint64_t>(
      block.data() + geometry_.meta_offset_of(erase_block),
      erase_counts_[erase_block]);
  medium_->write_block(meta_block, block);
  ++stats_.erases;
  accrued_ns_ += timing_.erase_block_ns;
}

void FtlDevice::gc_once(std::uint64_t victim) {
  ++stats_.gc_runs;
  const std::uint64_t first_page =
      victim * std::uint64_t{geometry_.pages_per_block};
  util::Bytes data(geometry_.block_size);
  for (std::uint32_t i = 0; i < geometry_.pages_per_block; ++i) {
    const std::uint64_t p = first_page + i;
    if (page_state_[p] != PageState::kValid) continue;
    const std::uint64_t logical = page_logical_[p];
    medium_->read_block(p, data);
    ++stats_.page_reads;
    accrued_ns_ += timing_.read_page_ns;
    const std::uint64_t dest = alloc_gc_page();
    // Program order (data page, then OOB) matches the host path; the
    // relocated copy gets a fresh, higher sequence number so it wins the
    // attach() scan even if the victim's erase is interrupted.
    medium_->write_block(dest, data);
    write_oob(dest, logical, ++seq_);
    ++stats_.programs;
    ++stats_.gc_relocations;
    accrued_ns_ += timing_.program_page_ns;
    page_state_[p] = PageState::kStale;
    --valid_pages_[victim];
    map_[logical] = dest;
    page_state_[dest] = PageState::kValid;
    page_logical_[dest] = logical;
    const std::uint64_t db = geometry_.erase_block_of(dest);
    ++used_pages_[db];
    ++valid_pages_[db];
  }
  erase_block(victim);
}

void FtlDevice::maybe_gc() {
  // Keep two fully-free blocks in reserve: one so the host stream can
  // always open, one so the GC stream can always relocate.
  while (fully_free_blocks() < 2) {
    const std::uint64_t victim = pick_victim();
    if (victim == kUnmappedPage) return;
    gc_once(victim);
  }
}

std::uint64_t FtlDevice::alloc_gc_page() {
  if (gc_block_ == kUnmappedPage ||
      gc_next_page_ >= geometry_.pages_per_block) {
    gc_block_ = pick_free_block();
    if (gc_block_ == kUnmappedPage)
      throw util::NoSpaceError("ftl: no free block for GC relocation");
    gc_next_page_ = 0;
  }
  return gc_block_ * std::uint64_t{geometry_.pages_per_block} +
         gc_next_page_++;
}

std::uint64_t FtlDevice::alloc_host_page() {
  if (host_block_ == kUnmappedPage ||
      host_next_page_ >= geometry_.pages_per_block) {
    maybe_gc();
    host_block_ = pick_free_block();
    if (host_block_ == kUnmappedPage)
      throw util::NoSpaceError("ftl: flash pool exhausted");
    host_next_page_ = 0;
  }
  return host_block_ * std::uint64_t{geometry_.pages_per_block} +
         host_next_page_++;
}

void FtlDevice::program_logical(std::uint64_t logical, util::ByteSpan data) {
  const std::uint64_t dest = alloc_host_page();
  medium_->write_block(dest, data);
  write_oob(dest, logical, ++seq_);
  ++stats_.programs;
  accrued_ns_ += timing_.program_page_ns;
  const std::uint64_t old = map_[logical];
  if (old != kUnmappedPage) {
    // Out-of-place: the superseded copy stays readable on the medium as a
    // stale page until GC erases its block — the raw-flash adversary's
    // core advantage over the block-level snapshot.
    page_state_[old] = PageState::kStale;
    --valid_pages_[geometry_.erase_block_of(old)];
  }
  map_[logical] = dest;
  page_state_[dest] = PageState::kValid;
  page_logical_[dest] = logical;
  const std::uint64_t db = geometry_.erase_block_of(dest);
  ++used_pages_[db];
  ++valid_pages_[db];
}

void FtlDevice::service_read(std::uint64_t first, std::uint64_t count,
                             util::MutByteSpan out) {
  const std::size_t bs = geometry_.block_size;
  for (std::uint64_t i = 0; i < count; ++i) {
    util::MutByteSpan dst = out.subspan(i * bs, bs);
    const std::uint64_t p = map_[first + i];
    if (p == kUnmappedPage) {
      // Unmapped logical pages answer from the map alone (zeros) — no
      // flash array access, no time.
      std::fill(dst.begin(), dst.end(), std::uint8_t{0});
      continue;
    }
    medium_->read_block(p, dst);
    ++stats_.page_reads;
    accrued_ns_ += timing_.read_page_ns;
  }
  stats_.host_reads += count;
}

void FtlDevice::service_write(std::uint64_t first, util::ByteSpan data) {
  const std::size_t bs = geometry_.block_size;
  const std::uint64_t count = data.size() / bs;
  for (std::uint64_t i = 0; i < count; ++i)
    program_logical(first + i, data.subspan(i * bs, bs));
  stats_.host_writes += count;
}

// -- timed entry points ------------------------------------------------------

void FtlDevice::advance_to_idle() {
  if (busy_until_ > clock_->now())
    clock_->advance(busy_until_ - clock_->now());
}

std::uint64_t FtlDevice::do_submit(const blockdev::IoRequest& req) {
  const std::uint64_t now = clock_->now();
  if (req.op == blockdev::IoOp::kFlush) {
    const std::uint64_t t =
        std::max({now, busy_until_, req.available_ns}) + timing_.cmd_ns;
    busy_until_ = t;
    medium_->flush();
    return t;
  }
  if (req.count == 0) return std::max(now, req.available_ns);
  accrued_ns_ = 0;
  if (req.op == blockdev::IoOp::kWrite)
    service_write(req.first, req.write_buf);
  else
    service_read(req.first, req.count, req.read_buf);
  const std::uint64_t start = std::max({now, busy_until_, req.available_ns});
  busy_until_ = start + timing_.cmd_ns + accrued_ns_;
  return busy_until_;
}

std::uint64_t FtlDevice::completion_cutoff() const noexcept {
  return clock_->now();
}

void FtlDevice::do_drain() { advance_to_idle(); }

void FtlDevice::do_wait_until(std::uint64_t cutoff) {
  if (cutoff > clock_->now()) clock_->advance(cutoff - clock_->now());
}

void FtlDevice::do_read_blocks(std::uint64_t first, std::uint64_t count,
                               util::MutByteSpan out) {
  if (count == 0) return;
  advance_to_idle();
  accrued_ns_ = 0;
  service_read(first, count, out);
  clock_->advance(timing_.cmd_ns + accrued_ns_);
  busy_until_ = clock_->now();
}

void FtlDevice::do_write_blocks(std::uint64_t first, util::ByteSpan data) {
  if (data.empty()) return;
  advance_to_idle();
  accrued_ns_ = 0;
  service_write(first, data);
  clock_->advance(timing_.cmd_ns + accrued_ns_);
  busy_until_ = clock_->now();
}

void FtlDevice::flush() {
  advance_to_idle();
  clock_->advance(timing_.cmd_ns);
  busy_until_ = clock_->now();
  medium_->flush();
}

// -- snapshots / untimed access ----------------------------------------------

RawFlashSnapshot FtlDevice::snapshot_raw_flash() {
  return RawFlashSnapshot::parse(
      medium_->read_blocks(0, geometry_.medium_blocks), cfg_);
}

void FtlDevice::read_logical_untimed(std::uint64_t first, std::uint64_t count,
                                     util::MutByteSpan out) {
  check_range(first, count, out.size());
  const std::size_t bs = geometry_.block_size;
  for (std::uint64_t i = 0; i < count; ++i) {
    util::MutByteSpan dst = out.subspan(i * bs, bs);
    const std::uint64_t p = map_[first + i];
    if (p == kUnmappedPage)
      std::fill(dst.begin(), dst.end(), std::uint8_t{0});
    else
      medium_->read_block(p, dst);
  }
}

util::Bytes FtlDevice::logical_image() {
  util::Bytes out(geometry_.logical_pages * geometry_.block_size);
  read_logical_untimed(0, geometry_.logical_pages, out);
  return out;
}

std::uint64_t FtlDevice::free_pages() const noexcept {
  std::uint64_t n = 0;
  for (const PageState s : page_state_)
    if (s == PageState::kFree) ++n;
  return n;
}

// -- FtlLogicalView ----------------------------------------------------------

void FtlLogicalView::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                    util::MutByteSpan out) {
  ftl_->read_logical_untimed(first, count, out);
}

void FtlLogicalView::do_write_blocks(std::uint64_t, util::ByteSpan) {
  throw util::PolicyError("ftl: logical view is read-only");
}

}  // namespace mobiceal::ftl
