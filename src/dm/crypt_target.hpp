// dm-crypt reproduction: transparent sector-level encryption target.
//
// Creates an "encrypted block device" over a lower device exactly as Android
// FDE does (Sec. II-A): plaintext above, ciphertext below, IVs derived from
// the logical 512-byte sector number. Length-preserving and MAC-free, so the
// ciphertext of a hidden volume is indistinguishable from dummy-write noise
// — the property MobiCeal's deniability argument rests on (Lemma VI.1).
//
// Performance model: cipher work is charged to a serial *crypto lane* — the
// analogue of the kcryptd kthread — that is allowed to overlap device
// service. When the lower device advertises queue_depth() > 1, the vectored
// paths pipeline: requests are split into segments, segment N+1 is
// encrypted (on the crypto worker pool, wall-clock) while segment N's write
// is in flight (virtual clock), and reads decrypt segments in virtual
// completion order as they land. At queue depth 1 the historical fully
// serial paths run unchanged.
#pragma once

#include <memory>
#include <string>

#include "blockdev/block_device.hpp"
#include "crypto/crypto_pool.hpp"
#include "crypto/modes.hpp"
#include "util/clock_domain.hpp"
#include "util/sim_clock.hpp"

namespace mobiceal::dm {

/// CPU cost model for the cipher, charged to the shared SimClock.
/// Calibrated for the Nexus 4's Snapdragon S4 Pro with NEON-assisted AES
/// (~160 MB/s -> ~25 µs per 4 KiB block), which reproduces Table I's
/// Ext4-vs-encrypted gap.
struct CryptCpuModel {
  std::uint64_t encrypt_ns_per_block = 25'000;
  std::uint64_t decrypt_ns_per_block = 25'000;
  /// Parallel crypto lanes — the analogue of per-CPU kcryptd workers.
  /// Segments are assigned to the earliest-free lane, so with L lanes up
  /// to L segments cipher concurrently on the virtual clock. 1 (the
  /// default) is the historical serial lane, bit- and time-identical;
  /// raise it alongside device parallelism (e.g. one lane per stripe of a
  /// striped data device) or the cipher becomes the stack's ceiling.
  /// Lane count never changes ciphertext — virtual service time only.
  std::uint32_t lanes = 1;

  static CryptCpuModel snapdragon_s4() { return {25'000, 25'000}; }
  /// Desktop-class AES-NI: ~2 GB/s.
  static CryptCpuModel aesni() { return {2'000, 2'000}; }
  /// Free crypto (for isolating other overheads in ablations).
  static CryptCpuModel zero() { return {0, 0}; }
};

class CryptTarget final : public blockdev::ForwardingDevice {
 public:
  /// `spec` is a dm-crypt cipher spec ("aes-cbc-essiv:sha256",
  /// "aes-xts-plain64"). `clock` may be null (no CPU time charged).
  /// `pool` is the crypto worker pool; null uses the process-wide
  /// crypto::CryptoWorkerPool::shared() (inline unless configured).
  CryptTarget(std::shared_ptr<blockdev::BlockDevice> lower,
              const std::string& spec, util::ByteSpan key,
              std::shared_ptr<util::SimClock> clock = nullptr,
              CryptCpuModel cpu = CryptCpuModel::snapdragon_s4(),
              std::shared_ptr<crypto::CryptoWorkerPool> pool = nullptr);
  ~CryptTarget() override;

  CryptTarget(const CryptTarget&) = delete;
  CryptTarget& operator=(const CryptTarget&) = delete;

  const char* cipher_name() const noexcept { return cipher_->name(); }

  /// Replaces the crypto worker pool (tests/benches; null = inline).
  void set_crypto_pool(std::shared_ptr<crypto::CryptoWorkerPool> pool);

  /// Attaches the stack's ClockDomain. `clock` stays the CPU anchor (shard
  /// 0); with > 1 shard the pipelined paths stop issuing full lower-device
  /// drains — writes leave their segments in flight until the next flush
  /// barrier and reads close only their own timeline via wait_until() — so
  /// the per-stripe shards below advance independently. A 1-shard domain
  /// changes nothing.
  void set_clock_domain(std::shared_ptr<util::ClockDomain> domain) {
    domain_ = std::move(domain);
  }

  /// Blocks per pipeline segment on the vectored paths when the lower
  /// device keeps multiple requests in flight (128 KiB at 4 KiB blocks).
  static constexpr std::uint64_t kPipelineBlocks = 32;

 protected:
  /// Vectored I/O stays vectored: at queue depth 1, one lower-device range
  /// transfer plus one batched modes call over the whole run; at queue
  /// depth > 1, the pipelined submit path (same per-sector IVs either way,
  /// so ciphertext is bit-identical across paths and depths).
  void do_read_blocks(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out) override;
  void do_write_blocks(std::uint64_t first, util::ByteSpan data) override;

  /// Async submission: encrypt-then-submit for writes (the lower request
  /// carries the ciphertext-ready time), submit-then-decrypt for reads.
  std::uint64_t do_submit(const blockdev::IoRequest& req) override;
  void do_drain() override;
  void do_wait_until(std::uint64_t cutoff) override;

 private:
  /// Sharded-clock mode: pipelined paths overlap across stripes instead of
  /// draining the whole lower stack.
  bool overlapped() const noexcept {
    return domain_ && domain_->shard_count() > 1;
  }
  /// Sharded range transform on the worker pool (bytes identical to the
  /// serial call for any thread count).
  void xform_range(bool encrypt, std::uint64_t first_sector,
                   util::ByteSpan in, util::MutByteSpan out);

  /// Crypto-lane charge: the earliest-free of cpu_.lanes lanes starts no
  /// earlier than now and `ready_ns`, runs for `cost_ns`, and returns its
  /// finish time. One lane reproduces the historical serial model exactly.
  std::uint64_t lane_charge(std::uint64_t ready_ns, std::uint64_t cost_ns);

  void read_pipelined(std::uint64_t first, std::uint64_t count,
                      util::MutByteSpan out);
  void write_pipelined(std::uint64_t first, util::ByteSpan data);

  /// Reusable ciphertext scratch for writes (the caller's plaintext is
  /// const; reads decrypt in place), grown geometrically — the I/O paths do
  /// not allocate per call.
  util::MutByteSpan scratch(util::Bytes& buf, std::size_t n);

  std::unique_ptr<crypto::SectorCipher> cipher_;
  std::shared_ptr<util::SimClock> clock_;
  std::shared_ptr<util::ClockDomain> domain_;
  util::SimClock::ResetHookId reset_hook_ = 0;
  CryptCpuModel cpu_;
  std::shared_ptr<crypto::CryptoWorkerPool> pool_;
  std::size_t sectors_per_block_;
  /// When each crypto lane frees up (virtual ns); cpu_.lanes entries.
  std::vector<std::uint64_t> lane_free_ns_;
  /// Scratch buffers: `ct_scratch_` for the serial write paths, the pipe
  /// pair for double-buffered pipelined writes.
  util::Bytes ct_scratch_, pipe_scratch_[2];
};

}  // namespace mobiceal::dm
