// Baseline 5: Mobiflage-style offset-based hidden volume PDE [34].
//
// The first mobile PDE: the whole storage is filled with randomness, a FAT32
// public volume (sequential allocator) spans the disk, and the hidden volume
// sits at a secret offset derived from the hidden password. The volume's
// size is fixed first, then the offset is drawn so the volume always fits:
//
//     size   = 0.10 * N
//     offset = (H(pwd || salt) mod (0.15 * N + 1)) + 0.70 * N
//
// (our variant of Mobiflage's formula: the volume lies within [70%, 95%]
// of the disk). Deniability holds for a single snapshot only; the adversary
// experiments show how sequential public allocation + static randomness
// betray it under multi-snapshot observation, and FatFs's high-water mark
// shows the overwrite hazard the paper discusses (Sec. IV-A, question 3).
#pragma once

#include <memory>
#include <string>

#include "blockdev/block_device.hpp"
#include "cache/cache_target.hpp"
#include "dm/crypt_target.hpp"
#include "fde/crypto_footer.hpp"
#include "fs/ext_fs.hpp"
#include "fs/fat_fs.hpp"
#include "util/sim_clock.hpp"

namespace mobiceal::baselines {

class MobiflageDevice {
 public:
  struct Config {
    std::string cipher_spec = "aes-cbc-essiv:sha256";
    std::uint32_t kdf_iterations = 2000;
    dm::CryptCpuModel crypt_cpu = dm::CryptCpuModel::snapdragon_s4();
    std::uint64_t rng_seed = 5;
    bool skip_random_fill = false;
    /// Block cache over each mounted volume's crypt device (0 = off).
    cache::CacheConfig cache;
  };

  enum class Mode { kLocked, kPublic, kHidden };

  static std::unique_ptr<MobiflageDevice> initialize(
      std::shared_ptr<blockdev::BlockDevice> storage, const Config& config,
      const std::string& public_password, const std::string& hidden_password,
      std::shared_ptr<util::SimClock> clock = nullptr);

  static std::unique_ptr<MobiflageDevice> attach(
      std::shared_ptr<blockdev::BlockDevice> storage, const Config& config,
      std::shared_ptr<util::SimClock> clock = nullptr);

  Mode boot(const std::string& password);
  void reboot();

  Mode mode() const noexcept { return mode_; }
  fs::FileSystem& data_fs();

  /// Hidden volume start block for a password (deterministic; exposed for
  /// the overwrite-hazard experiments).
  std::uint64_t hidden_offset(const std::string& password) const;

  /// Hidden volume size in blocks (a tenth of the usable area, whatever
  /// the password).
  std::uint64_t hidden_blocks() const;

  /// True if the public FAT volume's high-water mark has crossed into the
  /// hidden volume region — the data-loss hazard of offset-based PDE.
  bool hidden_volume_endangered(const std::string& hidden_password);

 private:
  MobiflageDevice(std::shared_ptr<blockdev::BlockDevice> storage,
                  const Config& config,
                  std::shared_ptr<util::SimClock> clock);

  std::shared_ptr<blockdev::BlockDevice> public_crypt(util::ByteSpan key);
  std::shared_ptr<blockdev::BlockDevice> hidden_crypt(
      std::uint64_t offset, util::ByteSpan key);

  std::shared_ptr<blockdev::BlockDevice> storage_;
  Config config_;
  std::shared_ptr<util::SimClock> clock_;
  fde::CryptoFooter footer_;
  Mode mode_ = Mode::kLocked;
  std::unique_ptr<fs::FileSystem> fs_;
};

}  // namespace mobiceal::baselines
