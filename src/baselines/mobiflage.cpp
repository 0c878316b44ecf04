#include "baselines/mobiflage.hpp"

#include "crypto/kdf.hpp"
#include "crypto/random.hpp"
#include "dm/device_mapper.hpp"
#include "util/error.hpp"

namespace mobiceal::baselines {

MobiflageDevice::MobiflageDevice(
    std::shared_ptr<blockdev::BlockDevice> storage, const Config& config,
    std::shared_ptr<util::SimClock> clock)
    : storage_(std::move(storage)),
      config_(config),
      clock_(std::move(clock)) {}

std::unique_ptr<MobiflageDevice> MobiflageDevice::initialize(
    std::shared_ptr<blockdev::BlockDevice> storage, const Config& config,
    const std::string& public_password, const std::string& hidden_password,
    std::shared_ptr<util::SimClock> clock) {
  auto dev = std::unique_ptr<MobiflageDevice>(
      new MobiflageDevice(std::move(storage), config, std::move(clock)));
  crypto::SecureRandom rng(config.rng_seed);

  dev->footer_ = fde::create_footer(rng, util::bytes_of(public_password),
                                    config.cipher_spec, 16,
                                    config.kdf_iterations);
  fde::write_footer(*dev->storage_, dev->footer_);

  // One-time random fill (the static defence, again).
  if (!config.skip_random_fill) {
    const std::uint64_t fb = fde::footer_blocks(dev->storage_->block_size());
    blockdev::fill_random(*dev->storage_, 0,
                          dev->storage_->num_blocks() - fb, rng);
  }

  // Public FAT volume over the whole usable area.
  {
    const util::SecureBytes decoy = fde::decrypt_master_key(
        dev->footer_, util::bytes_of(public_password));
    fs::FatFs::format(dev->public_crypt(decoy.span()))->sync();
  }
  // Hidden ext volume at the secret offset.
  {
    const util::SecureBytes key = fde::decrypt_master_key(
        dev->footer_, util::bytes_of(hidden_password));
    const std::uint64_t off = dev->hidden_offset(hidden_password);
    fs::ExtFs::format(dev->hidden_crypt(off, key.span()), 256)->sync();
  }
  return dev;
}

std::unique_ptr<MobiflageDevice> MobiflageDevice::attach(
    std::shared_ptr<blockdev::BlockDevice> storage, const Config& config,
    std::shared_ptr<util::SimClock> clock) {
  auto dev = std::unique_ptr<MobiflageDevice>(
      new MobiflageDevice(std::move(storage), config, std::move(clock)));
  dev->footer_ = fde::read_footer(*dev->storage_);
  return dev;
}

std::uint64_t MobiflageDevice::hidden_offset(
    const std::string& password) const {
  const std::uint64_t fb = fde::footer_blocks(storage_->block_size());
  const std::uint64_t usable = storage_->num_blocks() - fb;
  const util::Bytes h =
      crypto::pbkdf2(crypto::HashAlg::kSha256, util::bytes_of(password),
                     footer_.salt, config_.kdf_iterations, 8);
  const std::uint64_t v = util::load_le<std::uint64_t>(h.data());
  // Offsets span [70%, 95% - size], so the volume ends by 95%.
  const std::uint64_t lo = usable * 70 / 100;
  const std::uint64_t window = usable * 95 / 100 - hidden_blocks() - lo + 1;
  return lo + v % window;
}

std::uint64_t MobiflageDevice::hidden_blocks() const {
  const std::uint64_t fb = fde::footer_blocks(storage_->block_size());
  return (storage_->num_blocks() - fb) / 10;
}

std::shared_ptr<blockdev::BlockDevice> MobiflageDevice::public_crypt(
    util::ByteSpan key) {
  const std::uint64_t fb = fde::footer_blocks(storage_->block_size());
  auto region = std::make_shared<dm::LinearTarget>(
      storage_, 0, storage_->num_blocks() - fb);
  auto crypt = std::make_shared<dm::CryptTarget>(
      region, config_.cipher_spec, key, clock_, config_.crypt_cpu);
  return cache::wrap(crypt, config_.cache, clock_);
}

std::shared_ptr<blockdev::BlockDevice> MobiflageDevice::hidden_crypt(
    std::uint64_t offset, util::ByteSpan key) {
  const std::uint64_t fb = fde::footer_blocks(storage_->block_size());
  const std::uint64_t usable = storage_->num_blocks() - fb;
  if (offset + hidden_blocks() > usable * 95 / 100) {
    throw util::PolicyError("mobiflage: bad offset");
  }
  auto region =
      std::make_shared<dm::LinearTarget>(storage_, offset, hidden_blocks());
  auto crypt = std::make_shared<dm::CryptTarget>(
      region, config_.cipher_spec, key, clock_, config_.crypt_cpu);
  return cache::wrap(crypt, config_.cache, clock_);
}

MobiflageDevice::Mode MobiflageDevice::boot(const std::string& password) {
  if (mode_ != Mode::kLocked) throw util::PolicyError("already booted");
  const util::SecureBytes key =
      fde::decrypt_master_key(footer_, util::bytes_of(password));
  {
    auto crypt = public_crypt(key.span());
    if (fs::FatFs::probe(*crypt)) {
      fs_ = fs::FatFs::mount(crypt);
      mode_ = Mode::kPublic;
      return mode_;
    }
  }
  {
    auto crypt = hidden_crypt(hidden_offset(password), key.span());
    if (fs::ExtFs::probe(*crypt)) {
      fs_ = fs::ExtFs::mount(crypt);
      mode_ = Mode::kHidden;
      return mode_;
    }
  }
  return Mode::kLocked;
}

void MobiflageDevice::reboot() {
  if (fs_) {
    fs_->sync();
    fs_.reset();
  }
  mode_ = Mode::kLocked;
}

fs::FileSystem& MobiflageDevice::data_fs() {
  if (!fs_) throw util::PolicyError("mobiflage: no volume mounted");
  return *fs_;
}

bool MobiflageDevice::hidden_volume_endangered(
    const std::string& hidden_password) {
  if (mode_ != Mode::kPublic) {
    throw util::PolicyError("endangered check needs the public volume");
  }
  auto* fat = dynamic_cast<fs::FatFs*>(fs_.get());
  if (fat == nullptr) throw util::PolicyError("public volume is not FAT");
  return fat->high_water_cluster() >= hidden_offset(hidden_password);
}

}  // namespace mobiceal::baselines
