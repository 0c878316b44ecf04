#include "baselines/defy.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "fs/run_coalescer.hpp"
#include "util/error.hpp"

namespace mobiceal::baselines {

namespace {
constexpr std::uint64_t kNone = ~std::uint64_t{0};
}

/// Staged physical pages for one vectored call. Pages append to `data` in
/// log order; `runs` coalesces physically contiguous neighbours (the common
/// case — the log head advances linearly) into vectored submissions.
struct DefyDevice::PageBatch {
  PageBatch(blockdev::BlockDevice& phys, std::size_t block_bytes)
      : phys_(phys),
        block_bytes_(block_bytes),
        runs_(block_bytes, [this](std::uint64_t first, std::uint64_t count,
                                  std::size_t buf_offset) {
          // The log head makes runs long; segmented submission keeps the
          // transfer phases overlapping under queue depth.
          blockdev::submit_write_segments(
              phys_, first,
              {data_.data() + buf_offset,
               static_cast<std::size_t>(count) * block_bytes_});
        }) {}

  /// Returns a span to encrypt page `page` into.
  util::MutByteSpan stage(std::uint64_t page) {
    const std::size_t off = data_.size();
    data_.resize(off + block_bytes_);
    pages_.emplace_back(page, off);
    return {data_.data() + off, block_bytes_};
  }

  /// Issues all staged pages as coalesced submissions and completes them.
  void flush() {
    for (const auto& [page, off] : pages_) runs_.push(page, off);
    runs_.flush();
    pages_.clear();
    data_.clear();
    phys_.drain();
  }

  bool empty() const noexcept { return pages_.empty(); }

 private:
  blockdev::BlockDevice& phys_;
  std::size_t block_bytes_;
  util::Bytes data_;
  std::vector<std::pair<std::uint64_t, std::size_t>> pages_;
  fs::RunCoalescer runs_;
};

DefyDevice::DefyDevice(std::shared_ptr<blockdev::BlockDevice> phys,
                       util::ByteSpan key, const Config& config,
                       std::shared_ptr<util::SimClock> clock)
    : phys_(std::move(phys)),
      cipher_(crypto::make_sector_cipher("aes-xts-plain64", key)),
      config_(config),
      clock_(std::move(clock)),
      rng_(config.rng_seed) {
  physical_ = phys_->num_blocks();
  logical_ = physical_ / 2;
  if (logical_ == 0) throw util::PolicyError("defy: device too small");
  map_.assign(logical_, kNone);
  page_owner_.assign(physical_, kNone);
  gens_.assign(physical_, 0);
}

std::uint64_t DefyDevice::page_sector(std::uint64_t page) const {
  // The generation counter in the tweak gives every append fresh
  // ciphertext.
  return (page * 0x100000000ULL + gens_[page]) *
         (block_size() / blockdev::kSectorSize);
}

std::uint64_t DefyDevice::log_advance() {
  // Find the next stale/free physical page at the log head.
  for (std::uint64_t i = 0; i < physical_; ++i) {
    const std::uint64_t p = (head_ + i) % physical_;
    if (page_owner_[p] == kNone) {
      head_ = (p + 1) % physical_;
      return p;
    }
  }
  throw util::NoSpaceError("defy: log full even after GC");
}

void DefyDevice::append_page(std::uint64_t logical, util::ByteSpan data,
                             PageBatch* batch) {
  const std::uint64_t page = log_advance();
  ++gens_[page];
  util::Bytes inline_ct;
  util::MutByteSpan ct;
  if (batch != nullptr) {
    ct = batch->stage(page);
  } else {
    inline_ct.resize(block_size());
    ct = inline_ct;
  }
  cipher_->encrypt_range(page_sector(page), blockdev::kSectorSize, data, ct);
  if (clock_) clock_->advance(config_.crypto_ns_per_page);
  if (batch == nullptr) phys_->write_block(page, inline_ct);

  if (map_[logical] != kNone) {
    page_owner_[map_[logical]] = kNone;  // stale old version
    --live_pages_;
  }
  map_[logical] = page;
  page_owner_[page] = logical;
  ++live_pages_;
}

void DefyDevice::append_metadata_pages(PageBatch* batch) {
  // Tnode/header pages: appended, encrypted, never mapped (immediately
  // superseded — modelled as noise pages that become stale at once).
  util::Bytes noise(block_size());
  for (std::uint32_t i = 0; i < config_.metadata_amp; ++i) {
    const std::uint64_t page = log_advance();
    ++gens_[page];
    if (clock_) clock_->advance(config_.crypto_ns_per_page);
    if (batch != nullptr) {
      rng_.fill_bytes(batch->stage(page));
    } else {
      rng_.fill_bytes(noise);
      phys_->write_block(page, noise);
    }
    // stays free (stale immediately): page_owner_[page] == kNone
  }
}

void DefyDevice::garbage_collect() {
  // Relocate live pages away from the head region; every relocation pays
  // the full decrypt+re-encrypt cost (DEFY re-keys on GC).
  ++gc_runs_;
  const std::uint64_t scan = physical_ / 8;
  util::Bytes ct(block_size()), plain(block_size());
  for (std::uint64_t i = 0; i < scan; ++i) {
    const std::uint64_t p = (head_ + i) % physical_;
    const std::uint64_t logical = page_owner_[p];
    if (logical == kNone) continue;
    phys_->read_block(p, ct);
    cipher_->decrypt_range(page_sector(p), blockdev::kSectorSize, ct, plain);
    if (clock_) clock_->advance(config_.crypto_ns_per_page);
    page_owner_[p] = kNone;
    --live_pages_;
    map_[logical] = kNone;
    append_page(logical, plain);
  }
}

void DefyDevice::read_page(std::uint64_t index, util::MutByteSpan out) {
  const std::uint64_t page = map_[index];
  if (page == kNone) {
    std::fill(out.begin(), out.end(), 0);
    return;
  }
  util::Bytes ct(block_size());
  phys_->read_block(page, ct);
  cipher_->decrypt_range(page_sector(page), blockdev::kSectorSize, ct, out);
  if (clock_) clock_->advance(config_.crypto_ns_per_page);
}

void DefyDevice::write_page(std::uint64_t index, util::ByteSpan data) {
  // GC pressure is measured against the logical capacity: once the live
  // working set approaches it, the head region fills with live pages and
  // they must be relocated (re-keyed) before the log can advance cheaply.
  const double live_frac = static_cast<double>(live_pages_ +
                                               config_.metadata_amp + 1) /
                           static_cast<double>(logical_);
  if (live_frac > 1.0 - config_.gc_threshold) garbage_collect();
  append_page(index, data);
  append_metadata_pages();
}

void DefyDevice::do_write_blocks(std::uint64_t first, util::ByteSpan data) {
  const std::size_t bs = block_size();
  const std::uint64_t count = data.size() / bs;
  if (phys_->queue_depth() <= 1 || count == 1) {
    for (std::uint64_t i = 0; i < count; ++i) {
      write_page(first + i, data.subspan(i * bs, bs));
    }
    return;
  }
  PageBatch batch(*phys_, bs);
  for (std::uint64_t i = 0; i < count; ++i) {
    const double live_frac = static_cast<double>(live_pages_ +
                                                 config_.metadata_amp + 1) /
                             static_cast<double>(logical_);
    if (live_frac > 1.0 - config_.gc_threshold) {
      // GC reads relocation victims from the physical log: staged pages
      // must be on the device (and bookkeeping-visible pages readable)
      // before it runs.
      batch.flush();
      garbage_collect();
    }
    append_page(first + i, {data.data() + i * bs, bs}, &batch);
    append_metadata_pages(&batch);
  }
  batch.flush();
}

void DefyDevice::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                util::MutByteSpan out) {
  const std::size_t bs = block_size();
  if (phys_->queue_depth() <= 1 || count == 1) {
    for (std::uint64_t i = 0; i < count; ++i) {
      read_page(first + i, out.subspan(i * bs, bs));
    }
    return;
  }

  // Resolve the logical range to mapped physical pages, zero-filling holes,
  // then fan physically contiguous runs out through submit() so page
  // fetches overlap under queue depth. Ciphertext lands in a staging
  // buffer; decryption (and its CPU charge) follows in logical order —
  // identical charges, rng-free, so state matches the per-page path.
  util::Bytes ct(static_cast<std::size_t>(count) * bs);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mapped;  // (idx, page)
  fs::RunCoalescer runs(bs, [&](std::uint64_t page_first,
                                std::uint64_t run_count,
                                std::size_t buf_offset) {
    blockdev::IoRequest req;
    req.op = blockdev::IoOp::kRead;
    req.first = page_first;
    req.count = run_count;
    req.read_buf = {ct.data() + buf_offset,
                    static_cast<std::size_t>(run_count) * bs};
    phys_->submit(req);
  });
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t page = map_[first + i];
    if (page == kNone) {
      std::fill(out.begin() + i * bs, out.begin() + (i + 1) * bs, 0);
      continue;
    }
    mapped.emplace_back(i, page);
    runs.push(page, (mapped.size() - 1) * bs);
  }
  runs.flush();
  phys_->drain();

  for (std::size_t m = 0; m < mapped.size(); ++m) {
    const auto [i, page] = mapped[m];
    cipher_->decrypt_range(page_sector(page), blockdev::kSectorSize,
                           util::ByteSpan(ct).subspan(m * bs, bs),
                           out.subspan(i * bs, bs));
    if (clock_) clock_->advance(config_.crypto_ns_per_page);
  }
}

}  // namespace mobiceal::baselines
