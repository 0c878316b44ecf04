#include "dm/crypt_target.hpp"

#include <algorithm>
#include <future>
#include <utility>
#include <vector>

namespace mobiceal::dm {

namespace {
/// Below this many sectors a parallel shard isn't worth the handoff.
constexpr std::size_t kMinParallelSectors = 16;
}  // namespace

CryptTarget::CryptTarget(std::shared_ptr<blockdev::BlockDevice> lower,
                         const std::string& spec, util::ByteSpan key,
                         std::shared_ptr<util::SimClock> clock,
                         CryptCpuModel cpu,
                         std::shared_ptr<crypto::CryptoWorkerPool> pool)
    : ForwardingDevice(std::move(lower)),
      cipher_(crypto::make_sector_cipher(spec, key)),
      clock_(std::move(clock)),
      cpu_(cpu),
      pool_(pool ? std::move(pool) : crypto::CryptoWorkerPool::shared()),
      sectors_per_block_(block_size() / blockdev::kSectorSize),
      lane_free_ns_(std::max<std::uint32_t>(1, cpu.lanes), 0) {
  if (clock_) {
    reset_hook_ = clock_->add_reset_hook([this] {
      for (std::uint64_t& lane : lane_free_ns_) lane = 0;
    });
  }
}

CryptTarget::~CryptTarget() {
  if (clock_) clock_->remove_reset_hook(reset_hook_);
}

void CryptTarget::set_crypto_pool(
    std::shared_ptr<crypto::CryptoWorkerPool> pool) {
  pool_ = pool ? std::move(pool) : crypto::CryptoWorkerPool::shared();
}

util::MutByteSpan CryptTarget::scratch(util::Bytes& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(std::max(n, buf.size() * 2));
  return {buf.data(), n};
}

void CryptTarget::xform_range(bool encrypt, std::uint64_t first_sector,
                              util::ByteSpan in, util::MutByteSpan out) {
  const std::size_t n_sectors = in.size() / blockdev::kSectorSize;
  const unsigned workers = pool_->threads();
  if (workers <= 1 || n_sectors < 2 * kMinParallelSectors) {
    if (encrypt) {
      cipher_->encrypt_range(first_sector, blockdev::kSectorSize, in, out);
    } else {
      cipher_->decrypt_range(first_sector, blockdev::kSectorSize, in, out);
    }
    return;
  }
  // Shard by contiguous sector spans: every sector derives its own IV from
  // its absolute sector number, so the split points cannot change bytes.
  const std::size_t shards =
      std::min<std::size_t>(workers, n_sectors / kMinParallelSectors);
  const std::size_t per = (n_sectors + shards - 1) / shards;
  pool_->parallel(shards, [&](std::size_t s) {
    const std::size_t s0 = s * per;
    const std::size_t s1 = std::min(n_sectors, s0 + per);
    if (s0 >= s1) return;
    const util::ByteSpan src{in.data() + s0 * blockdev::kSectorSize,
                             (s1 - s0) * blockdev::kSectorSize};
    const util::MutByteSpan dst{out.data() + s0 * blockdev::kSectorSize,
                                (s1 - s0) * blockdev::kSectorSize};
    if (encrypt) {
      cipher_->encrypt_range(first_sector + s0, blockdev::kSectorSize, src,
                             dst);
    } else {
      cipher_->decrypt_range(first_sector + s0, blockdev::kSectorSize, src,
                             dst);
    }
  });
}

std::uint64_t CryptTarget::lane_charge(std::uint64_t ready_ns,
                                       std::uint64_t cost_ns) {
  const std::uint64_t now = clock_ ? clock_->now() : 0;
  // Earliest-free lane, like a device transfer slot: with one lane this is
  // exactly the historical serial model.
  auto lane = std::min_element(lane_free_ns_.begin(), lane_free_ns_.end());
  *lane = std::max(*lane, std::max(now, ready_ns)) + cost_ns;
  return *lane;
}

void CryptTarget::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                 util::MutByteSpan out) {
  if (inner()->queue_depth() > 1 && count > kPipelineBlocks) {
    read_pipelined(first, count, out);
    return;
  }
  // Ciphertext lands in the caller's buffer and is decrypted in place.
  inner()->read_blocks(first, count, out);
  xform_range(/*encrypt=*/false, first * sectors_per_block_, out, out);
  if (clock_) clock_->advance(cpu_.decrypt_ns_per_block * count);
}

void CryptTarget::do_write_blocks(std::uint64_t first, util::ByteSpan data) {
  const std::uint64_t count = data.size() / block_size();
  if (inner()->queue_depth() > 1 && count > kPipelineBlocks) {
    write_pipelined(first, data);
    return;
  }
  const util::MutByteSpan ct = scratch(ct_scratch_, data.size());
  xform_range(/*encrypt=*/true, first * sectors_per_block_, data, ct);
  if (clock_) clock_->advance(cpu_.encrypt_ns_per_block * count);
  inner()->write_blocks(first, ct);
}

void CryptTarget::read_pipelined(std::uint64_t first, std::uint64_t count,
                                 util::MutByteSpan out) {
  // Submit every segment read up front — the lower stack keeps up to its
  // queue depth in flight — then decrypt in virtual completion order, so
  // decryption of the first-to-land segment overlaps the still-in-flight
  // transfers of the rest. Each segment lands in `out` and is decrypted
  // in place.
  struct Seg {
    std::uint64_t blk, blocks, done_ns;
    std::size_t off;
  };
  const std::size_t bs = block_size();
  std::vector<Seg> segs;
  segs.reserve((count + kPipelineBlocks - 1) / kPipelineBlocks);
  for (std::uint64_t b = 0; b < count; b += kPipelineBlocks) {
    const std::uint64_t n = std::min(kPipelineBlocks, count - b);
    blockdev::IoRequest req;
    req.op = blockdev::IoOp::kRead;
    req.first = first + b;
    req.count = n;
    req.read_buf = {out.data() + b * bs, static_cast<std::size_t>(n) * bs};
    const auto r = inner()->submit(req);
    segs.push_back({first + b, n, r.complete_ns,
                    static_cast<std::size_t>(b) * bs});
  }
  std::stable_sort(segs.begin(), segs.end(),
                   [](const Seg& a, const Seg& b) {
                     return a.done_ns < b.done_ns;
                   });
  std::uint64_t last_done = 0;
  for (const Seg& s : segs) {
    const util::MutByteSpan seg{out.data() + s.off,
                                static_cast<std::size_t>(s.blocks) * bs};
    xform_range(/*encrypt=*/false, s.blk * sectors_per_block_, seg, seg);
    last_done =
        lane_charge(s.done_ns, cpu_.decrypt_ns_per_block * s.blocks);
  }
  if (overlapped()) {
    // Close only this read's timeline: stripes advance to at most the last
    // decrypt-ready instant, and unrelated in-flight traffic keeps flying.
    inner()->wait_until(last_done);
  } else {
    inner()->drain();
  }
  if (clock_ && last_done > clock_->now()) {
    clock_->advance(last_done - clock_->now());
  }
}

void CryptTarget::write_pipelined(std::uint64_t first, util::ByteSpan data) {
  // Virtual time: the serial crypto lane encrypts segment after segment
  // while the device services earlier segments (each submit carries its
  // ciphertext-ready time). Wall clock: the worker pool encrypts segment
  // N+1 into the spare buffer while segment N is submitted.
  const std::size_t bs = block_size();
  const std::uint64_t count = data.size() / bs;
  const std::uint64_t n_segs = (count + kPipelineBlocks - 1) / kPipelineBlocks;
  auto seg_span = [&](std::uint64_t i) {
    const std::uint64_t b = i * kPipelineBlocks;
    const std::uint64_t n = std::min(kPipelineBlocks, count - b);
    return util::ByteSpan{data.data() + b * bs,
                          static_cast<std::size_t>(n) * bs};
  };
  const util::MutByteSpan bufs[2] = {
      scratch(pipe_scratch_[0], kPipelineBlocks * bs),
      scratch(pipe_scratch_[1], kPipelineBlocks * bs)};

  auto encrypt_seg = [&](std::uint64_t i, util::MutByteSpan buf) {
    const util::ByteSpan src = seg_span(i);
    xform_range(/*encrypt=*/true,
                (first + i * kPipelineBlocks) * sectors_per_block_, src,
                {buf.data(), src.size()});
  };

  encrypt_seg(0, bufs[0]);
  std::future<void> next_ready;
  for (std::uint64_t i = 0; i < n_segs; ++i) {
    const util::ByteSpan src = seg_span(i);
    const std::uint64_t blocks = src.size() / bs;
    const std::uint64_t ct_ready =
        lane_charge(0, cpu_.encrypt_ns_per_block * blocks);
    if (i + 1 < n_segs) {
      next_ready = pool_->async(
          [&encrypt_seg, &bufs, i] { encrypt_seg(i + 1, bufs[(i + 1) % 2]); });
    }
    blockdev::IoRequest req;
    req.op = blockdev::IoOp::kWrite;
    req.first = first + i * kPipelineBlocks;
    req.count = blocks;
    req.write_buf = {bufs[i % 2].data(), src.size()};
    req.available_ns = ct_ready;
    try {
      inner()->submit(req);
    } catch (...) {
      // The in-flight encrypt task references this frame: join it before
      // unwinding.
      if (next_ready.valid()) next_ready.wait();
      throw;
    }
    if (i + 1 < n_segs) next_ready.get();
  }
  // Sharded mode leaves the segments in flight — per-stripe admission
  // control orders them against later traffic, and the next flush barrier
  // re-merges the shard timelines. Single-timeline mode keeps the
  // historical full barrier.
  if (!overlapped()) inner()->drain();
}

std::uint64_t CryptTarget::do_submit(const blockdev::IoRequest& req) {
  switch (req.op) {
    case blockdev::IoOp::kFlush:
      return ForwardingDevice::do_submit(req);
    case blockdev::IoOp::kWrite: {
      // Encrypt first; the lower request starts once ciphertext is ready.
      // The lower submit moves the data before returning, so the shared
      // scratch is free again by the time this call ends.
      const util::MutByteSpan ct = scratch(ct_scratch_, req.write_buf.size());
      xform_range(/*encrypt=*/true, req.first * sectors_per_block_,
                  req.write_buf, ct);
      blockdev::IoRequest fwd = req;
      fwd.write_buf = ct;
      fwd.available_ns = lane_charge(
          req.available_ns, cpu_.encrypt_ns_per_block * req.count);
      return inner()->submit(fwd).complete_ns;
    }
    case blockdev::IoOp::kRead: {
      const auto r = inner()->submit(req);
      // Ciphertext landed in req.read_buf; decrypt in place (all sector
      // ciphers support it) once the transfer completes on the lane.
      xform_range(/*encrypt=*/false, req.first * sectors_per_block_,
                  req.read_buf, req.read_buf);
      return lane_charge(r.complete_ns,
                         cpu_.decrypt_ns_per_block * req.count);
    }
  }
  return 0;
}

void CryptTarget::do_drain() {
  inner()->drain();
  const std::uint64_t busy =
      *std::max_element(lane_free_ns_.begin(), lane_free_ns_.end());
  if (clock_ && busy > clock_->now()) {
    clock_->advance(busy - clock_->now());
  }
}

void CryptTarget::do_wait_until(std::uint64_t cutoff) {
  inner()->wait_until(cutoff);
  if (clock_ && cutoff > clock_->now()) {
    clock_->advance(cutoff - clock_->now());
  }
}

}  // namespace mobiceal::dm
