#include "baselines/hive_woram.hpp"

#include <algorithm>

#include "fs/run_coalescer.hpp"
#include "util/error.hpp"

namespace mobiceal::baselines {

namespace {
constexpr std::uint64_t kNone = ~std::uint64_t{0};
}

HiveWoOram::HiveWoOram(std::shared_ptr<blockdev::BlockDevice> phys,
                       util::ByteSpan key, const Config& config,
                       std::shared_ptr<util::SimClock> clock)
    : phys_(std::move(phys)),
      cipher_(crypto::make_sector_cipher("aes-xts-plain64", key)),
      config_(config),
      clock_(std::move(clock)),
      rng_(config.rng_seed) {
  if (config_.space_blowup < 1.5) {
    throw util::PolicyError("hive: space blowup must be >= 1.5");
  }
  physical_ = phys_->num_blocks();
  logical_ =
      static_cast<std::uint64_t>(physical_ / config_.space_blowup);
  if (logical_ == 0) throw util::PolicyError("hive: device too small");
  pos_map_.assign(logical_, kNone);
  slot_owner_.assign(physical_, kNone);
  gens_.assign(physical_, 0);
}

double HiveWoOram::write_amplification() const noexcept {
  if (logical_writes_ == 0) return 0.0;
  return static_cast<double>(physical_writes_) /
         static_cast<double>(logical_writes_);
}

void HiveWoOram::charge_posmap() {
  // The position map outlives RAM and lives in an on-disk B-tree; each
  // logical access walks + updates a few nodes.
  if (clock_) {
    clock_->advance(std::uint64_t{config_.posmap_ios} * 60'000);
  }
}

std::uint64_t HiveWoOram::slot_sector(std::uint64_t slot) const {
  // Randomised encryption: fold the per-slot generation counter into the
  // tweak so rewrites of a slot produce fresh ciphertext.
  return (slot * 0x100000000ULL + gens_[slot]) *
         (block_size() / blockdev::kSectorSize);
}

void HiveWoOram::write_slot(std::uint64_t slot, util::ByteSpan plain) {
  ++gens_[slot];
  util::Bytes ct(block_size());
  cipher_->encrypt_range(slot_sector(slot), blockdev::kSectorSize, plain, ct);
  emit_slot_write(slot, std::move(ct));
}

void HiveWoOram::emit_slot_write(std::uint64_t slot, util::Bytes ct) {
  ++physical_writes_;
  if (batching_) {
    pending_slots_.emplace_back(slot, std::move(ct));
    return;
  }
  phys_->write_block(slot, ct);
  if (config_.sync_every_physical_write) phys_->flush();
}

void HiveWoOram::flush_slot_writes() {
  if (pending_slots_.empty()) return;
  const std::size_t bs = block_size();
  // Bucket I/O rides the async engine: slots that happen to be contiguous
  // in emission order coalesce into one run; the rest overlap as
  // independent submissions under the device queue.
  util::Bytes stage(pending_slots_.size() * bs);
  fs::RunCoalescer runs(bs, [&](std::uint64_t first, std::uint64_t count,
                                std::size_t buf_offset) {
    blockdev::IoRequest req;
    req.op = blockdev::IoOp::kWrite;
    req.first = first;
    req.count = count;
    req.write_buf = {stage.data() + buf_offset,
                     static_cast<std::size_t>(count) * bs};
    phys_->submit(req);
  });
  for (std::size_t i = 0; i < pending_slots_.size(); ++i) {
    std::copy(pending_slots_[i].second.begin(),
              pending_slots_[i].second.end(), stage.begin() + i * bs);
    runs.push(pending_slots_[i].first, i * bs);
  }
  runs.flush();
  pending_slots_.clear();
  phys_->drain();
}

util::Bytes HiveWoOram::read_slot(std::uint64_t slot) {
  util::Bytes ct(block_size()), plain(block_size());
  phys_->read_block(slot, ct);
  cipher_->decrypt_range(slot_sector(slot), blockdev::kSectorSize, ct, plain);
  return plain;
}

void HiveWoOram::rerandomise_slot(std::uint64_t slot) {
  if (slot_owner_[slot] != kNone) {
    // Occupied: decrypt and re-encrypt under a fresh generation.
    const util::Bytes plain = read_slot(slot);
    write_slot(slot, plain);
  } else {
    // Free: overwrite with fresh noise so free and occupied rewrites are
    // indistinguishable.
    util::Bytes noise(block_size());
    rng_.fill_bytes(noise);
    ++gens_[slot];
    emit_slot_write(slot, std::move(noise));
  }
}

void HiveWoOram::read_logical(std::uint64_t index, util::MutByteSpan out) {
  charge_posmap();
  const auto it = stash_.find(index);
  if (it != stash_.end()) {
    std::copy(it->second.begin(), it->second.end(), out.begin());
    return;
  }
  const std::uint64_t slot = pos_map_[index];
  if (slot == kNone) {
    std::fill(out.begin(), out.end(), 0);
    return;
  }
  const util::Bytes plain = read_slot(slot);
  std::copy(plain.begin(), plain.end(), out.begin());
}

void HiveWoOram::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                util::MutByteSpan out) {
  const std::size_t bs = block_size();
  if (phys_->queue_depth() <= 1) {
    for (std::uint64_t i = 0; i < count; ++i) {
      read_logical(first + i, out.subspan(i * bs, bs));
    }
    return;
  }
  util::Bytes ct(static_cast<std::size_t>(count) * bs);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fetched;  // (i, slot)
  fs::RunCoalescer runs(bs, [&](std::uint64_t slot_first,
                                std::uint64_t run_count,
                                std::size_t buf_offset) {
    blockdev::IoRequest req;
    req.op = blockdev::IoOp::kRead;
    req.first = slot_first;
    req.count = run_count;
    req.read_buf = {ct.data() + buf_offset,
                    static_cast<std::size_t>(run_count) * bs};
    phys_->submit(req);
  });
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t index = first + i;
    charge_posmap();
    const auto it = stash_.find(index);
    if (it != stash_.end()) {
      std::copy(it->second.begin(), it->second.end(),
                out.begin() + i * bs);
      continue;
    }
    const std::uint64_t slot = pos_map_[index];
    if (slot == kNone) {
      std::fill(out.begin() + i * bs, out.begin() + (i + 1) * bs, 0);
      continue;
    }
    fetched.emplace_back(i, slot);
    runs.push(slot, (fetched.size() - 1) * bs);
  }
  runs.flush();
  phys_->drain();

  for (std::size_t m = 0; m < fetched.size(); ++m) {
    const auto [i, slot] = fetched[m];
    cipher_->decrypt_range(slot_sector(slot), blockdev::kSectorSize,
                           util::ByteSpan(ct).subspan(m * bs, bs),
                           out.subspan(i * bs, bs));
  }
}

void HiveWoOram::do_write_blocks(std::uint64_t first, util::ByteSpan data) {
  const std::size_t bs = block_size();
  for (std::uint64_t i = 0; i * bs < data.size(); ++i) {
    write_logical(first + i, data.subspan(i * bs, bs));
  }
}

void HiveWoOram::write_logical(std::uint64_t index, util::ByteSpan data) {
  ++logical_writes_;
  charge_posmap();
  batching_ = phys_->queue_depth() > 1;

  // Sample k distinct physical slots uniformly.
  std::vector<std::uint64_t> slots;
  while (slots.size() < config_.k) {
    const std::uint64_t s = rng_.next_below(physical_);
    if (std::find(slots.begin(), slots.end(), s) == slots.end()) {
      slots.push_back(s);
    }
  }

  bool placed = false;
  for (std::uint64_t slot : slots) {
    if (!placed && slot_owner_[slot] == kNone) {
      // Place the new version here; release the block's previous slot.
      if (pos_map_[index] != kNone) slot_owner_[pos_map_[index]] = kNone;
      stash_.erase(index);
      write_slot(slot, data);
      slot_owner_[slot] = index;
      pos_map_[index] = slot;
      placed = true;
      continue;
    }
    if (slot_owner_[slot] == kNone && !stash_.empty()) {
      // Drain a stash entry into this free sampled slot. stash_ is an
      // ordered map precisely because of this begin(): the smallest
      // stashed logical index drains first on every platform (see the
      // stash_ declaration; HiveWoOram.StashDrainOrderIsDeterministic).
      const auto st = stash_.begin();
      const std::uint64_t logical = st->first;
      if (pos_map_[logical] != kNone) slot_owner_[pos_map_[logical]] = kNone;
      write_slot(slot, st->second);
      slot_owner_[slot] = logical;
      pos_map_[logical] = slot;
      stash_.erase(st);
      continue;
    }
    rerandomise_slot(slot);
  }

  // Queued slot writes (queue_depth > 1) go out before the stash/map
  // bookkeeping settles, mirroring where the serial path wrote them.
  flush_slot_writes();
  batching_ = false;

  if (!placed) {
    // All sampled slots were occupied: the new version waits in the stash.
    if (pos_map_[index] != kNone) {
      slot_owner_[pos_map_[index]] = kNone;
      pos_map_[index] = kNone;
    }
    stash_[index] = util::Bytes(data.begin(), data.end());
    if (stash_.size() > config_.max_stash) {
      throw util::NoSpaceError("hive: stash overflow — device too full");
    }
  }

  // Durability barrier per logical write (HIVE syncs map+data atomically).
  phys_->flush();
}

}  // namespace mobiceal::baselines
