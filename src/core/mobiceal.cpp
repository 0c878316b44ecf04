#include "core/mobiceal.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "crypto/kdf.hpp"
#include "crypto/modes.hpp"
#include "util/error.hpp"

namespace mobiceal::core {

namespace {
/// Magic inside the (encrypted) hidden-volume head block. Only readable
/// under the hidden key, so it never appears in a snapshot.
constexpr std::uint32_t kPasswordBlockMagic = 0x4D435057;  // "MCPW"
constexpr std::uint32_t kCollisionRetries = 64;
}  // namespace

MobiCealDevice::MobiCealDevice(
    std::shared_ptr<blockdev::BlockDevice> userdata, const Config& config,
    std::shared_ptr<util::SimClock> clock)
    : userdata_(std::move(userdata)), config_(config), clock_(std::move(clock)) {
  if (config_.num_volumes < 2) {
    throw util::PolicyError("mobiceal: need at least 2 volumes (public+1)");
  }
  sys_rng_ = std::make_unique<crypto::SecureRandom>(config_.rng_seed);
}

void MobiCealDevice::setup_lvm_and_pool(bool format) {
  // Partition layout (Fig. 3): [LVM area: metadata LV | data LV][footer].
  const std::uint64_t fb = fde::footer_blocks(userdata_->block_size());
  const std::uint64_t usable = userdata_->num_blocks() - fb;
  auto lvm_region =
      std::make_shared<dm::LinearTarget>(userdata_, 0, usable);

  pv_ = std::make_shared<lvm::PhysicalVolume>(
      "userdata-pv", lvm_region, /*extent_blocks=*/256 /* 1 MiB extents */);
  vg_ = std::make_unique<lvm::VolumeGroup>("mobiceal-vg");
  vg_->add_pv(pv_);

  // Size the metadata LV for the worst case (all usable space as data).
  thin::Superblock est;
  est.chunk_blocks = config_.chunk_blocks;
  est.max_volumes = config_.num_volumes;
  est.nr_chunks = usable / config_.chunk_blocks;
  est.max_chunks_per_volume = est.nr_chunks;
  const auto geom =
      thin::MetadataGeometry::compute(est, userdata_->block_size());

  auto meta_lv = vg_->create_lv("thinmeta", geom.total_blocks);
  const std::uint64_t data_blocks = vg_->free_extents() * vg_->extent_blocks();
  auto data_lv = vg_->create_lv("thindata", data_blocks);
  dm_.create("thinmeta", meta_lv);
  dm_.create("thindata", data_lv);

  if (format) {
    thin::ThinPool::Config pc;
    pc.chunk_blocks = config_.chunk_blocks;
    pc.max_volumes = config_.num_volumes;
    // Random allocation is the MobiCeal kernel modification; sequential is
    // kept only for the ablation benchmarks.
    pc.policy = config_.random_allocation ? thin::AllocPolicy::kRandom
                                          : thin::AllocPolicy::kSequential;
    pc.cpu = config_.thin_cpu;
    pc.alloc_shards = config_.alloc_shards;
    pc.meta_shard_lanes = config_.meta_shard_lanes;
    pool_ = thin::ThinPool::format(meta_lv, data_lv, pc, clock_);
  } else {
    pool_ = thin::ThinPool::open(meta_lv, data_lv, clock_);
  }
  if (config_.clock_domain) pool_->set_clock_domain(config_.clock_domain);
}

void MobiCealDevice::wire_dummy_engine() {
  DummyWriteConfig dc = config_.dummy;
  dc.num_volumes = config_.num_volumes;
  dummy_engine_ = std::make_unique<DummyWriteEngine>(dc, *sys_rng_, clock_.get());
  pool_->set_alloc_rng(sys_rng_.get());
  pool_->observe_volume(thin_id(1), true);
  pool_->set_allocation_observer(
      [this](std::uint32_t, std::uint64_t) {
        dummy_engine_->on_public_allocation(*pool_);
      });
}

std::unique_ptr<MobiCealDevice> MobiCealDevice::initialize(
    std::shared_ptr<blockdev::BlockDevice> userdata, const Config& config,
    const std::string& public_password,
    const std::vector<std::string>& hidden_passwords,
    std::shared_ptr<util::SimClock> clock) {
  auto dev = std::unique_ptr<MobiCealDevice>(
      new MobiCealDevice(std::move(userdata), config, std::move(clock)));

  for (const auto& hp : hidden_passwords) {
    if (hp == public_password) {
      throw util::PolicyError("hidden password equals public password");
    }
  }
  if (hidden_passwords.size() > config.num_volumes - 1) {
    throw util::PolicyError("more hidden passwords than non-public volumes");
  }

  // 1. Crypto footer; retry salts until all hidden indices are distinct
  //    ("If different hidden volumes result in the same k, another random
  //    salt will be chosen", Sec. IV-C).
  bool ok = false;
  for (std::uint32_t attempt = 0; attempt < kCollisionRetries; ++attempt) {
    dev->footer_ = fde::create_footer(*dev->sys_rng_,
                                      util::bytes_of(public_password),
                                      config.cipher_spec, 16,
                                      config.kdf_iterations);
    std::set<std::uint32_t> ks;
    bool collision = false;
    for (const auto& hp : hidden_passwords) {
      if (!ks.insert(dev->hidden_index(hp)).second) {
        collision = true;
        break;
      }
    }
    if (!collision) {
      ok = true;
      break;
    }
  }
  if (!ok) throw util::PolicyError("could not find collision-free salt");
  fde::write_footer(*dev->userdata_, dev->footer_);

  // 2. LVM + thin pool (random allocation policy).
  dev->setup_lvm_and_pool(/*format=*/true);

  // 3. Create all n thin volumes, fully overcommitted.
  const std::uint64_t vsize = dev->pool_->nr_chunks();
  for (std::uint32_t paper = 1; paper <= config.num_volumes; ++paper) {
    dev->pool_->create_thin(thin_id(paper), vsize);
  }

  // 4. Seed the head chunk of every non-public volume with noise so that
  //    hidden heads (encrypted password blocks) and dummy heads are
  //    identically distributed in any snapshot.
  std::map<std::uint32_t, std::string> hidden_by_k;
  for (const auto& hp : hidden_passwords) {
    hidden_by_k[dev->hidden_index(hp)] = hp;
  }
  const std::size_t bs = dev->userdata_->block_size();
  for (std::uint32_t paper = 2; paper <= config.num_volumes; ++paper) {
    auto vol = dev->pool_->open_thin(thin_id(paper));
    util::Bytes noise(bs);
    for (std::uint32_t b = 0; b < config.chunk_blocks; ++b) {
      dev->sys_rng_->fill_bytes(noise);
      vol->write_block(b, noise);
    }
    const auto it = hidden_by_k.find(paper);
    if (it != hidden_by_k.end()) {
      const util::SecureBytes key =
          fde::decrypt_master_key(dev->footer_, util::bytes_of(it->second));
      vol->write_block(0, dev->make_password_block(it->second, key.span()));
    }
  }

  // 5. Format the public filesystem over dm-crypt(decoy key) on V1.
  {
    const util::SecureBytes decoy_key = fde::decrypt_master_key(
        dev->footer_, util::bytes_of(public_password));
    auto crypt = dev->make_crypt_device(1, decoy_key.span());
    fs::ExtFs::format(crypt, config.fs_inode_count)->sync();
  }

  // 6. Format each hidden filesystem (offset past the head block).
  for (const auto& [k, pwd] : hidden_by_k) {
    const util::SecureBytes key =
        fde::decrypt_master_key(dev->footer_, util::bytes_of(pwd));
    auto crypt = dev->make_crypt_device(k, key.span());
    fs::ExtFs::format(crypt, config.fs_inode_count)->sync();
  }

  dev->pool_->commit();
  dev->wire_dummy_engine();
  dev->mode_ = Mode::kLocked;
  return dev;
}

std::unique_ptr<MobiCealDevice> MobiCealDevice::attach(
    std::shared_ptr<blockdev::BlockDevice> userdata, const Config& config,
    std::shared_ptr<util::SimClock> clock) {
  auto dev = std::unique_ptr<MobiCealDevice>(
      new MobiCealDevice(std::move(userdata), config, std::move(clock)));
  dev->footer_ = fde::read_footer(*dev->userdata_);
  dev->config_.cipher_spec = dev->footer_.cipher_spec;
  dev->config_.kdf_iterations = dev->footer_.kdf_iterations;

  // The geometry lives on disk: peek the thin superblock (the metadata LV
  // always starts at device block 0) so a re-attach never depends on the
  // caller remembering the initialisation-time volume count / chunk size.
  {
    util::Bytes block(dev->userdata_->block_size());
    dev->userdata_->read_block(0, block);
    if (util::load_le<std::uint64_t>(block.data()) != thin::kThinMagic) {
      throw util::MetadataError("attach: no thin pool on this device");
    }
    dev->config_.num_volumes =
        util::load_le<std::uint32_t>(block.data() + 20);
    dev->config_.chunk_blocks =
        util::load_le<std::uint32_t>(block.data() + 16);
  }
  dev->setup_lvm_and_pool(/*format=*/false);
  dev->wire_dummy_engine();
  dev->mode_ = Mode::kLocked;
  return dev;
}

// ---- key & index derivation -------------------------------------------------------

std::uint32_t MobiCealDevice::hidden_index(const std::string& password) const {
  // k = (H(pwd || salt) mod (n-1)) + 2, H = PBKDF2 (Sec. IV-C).
  const util::Bytes h =
      crypto::pbkdf2(crypto::HashAlg::kSha256, util::bytes_of(password),
                     footer_.salt, config_.kdf_iterations, 8);
  const std::uint64_t v = util::load_le<std::uint64_t>(h.data());
  return static_cast<std::uint32_t>(v % (config_.num_volumes - 1)) + 2;
}

util::SecureBytes MobiCealDevice::derive_key(
    const std::string& password) const {
  return fde::decrypt_master_key(footer_, util::bytes_of(password));
}

// ---- volume head password blocks ----------------------------------------------------

util::Bytes MobiCealDevice::make_password_block(const std::string& password,
                                                util::ByteSpan key) {
  const std::size_t bs = userdata_->block_size();
  if (password.size() > 256) throw util::PolicyError("password too long");
  util::Bytes plain(bs);
  // Random fill first so the padding carries no structure even in plaintext.
  sys_rng_->fill_bytes(plain);
  util::store_le<std::uint32_t>(plain.data(), kPasswordBlockMagic);
  util::store_le<std::uint16_t>(plain.data() + 4,
                                static_cast<std::uint16_t>(password.size()));
  std::memcpy(plain.data() + 6, password.data(), password.size());

  const auto cipher = crypto::make_sector_cipher(config_.cipher_spec, key);
  util::Bytes out(bs);
  cipher->encrypt_range(0, blockdev::kSectorSize, plain, out);
  return out;
}

bool MobiCealDevice::verify_hidden_password(const std::string& password,
                                            std::uint32_t paper_k,
                                            util::ByteSpan key) {
  auto vol = pool_->open_thin(thin_id(paper_k));
  const std::size_t bs = vol->block_size();
  util::Bytes plain(bs);
  vol->read_block(0, plain);
  const auto cipher = crypto::make_sector_cipher(config_.cipher_spec, key);
  cipher->decrypt_range(0, blockdev::kSectorSize, plain, plain);
  if (util::load_le<std::uint32_t>(plain.data()) != kPasswordBlockMagic) {
    return false;
  }
  const std::uint16_t len = util::load_le<std::uint16_t>(plain.data() + 4);
  if (len != password.size() || std::size_t{6} + len > bs) return false;
  return util::ct_equal({plain.data() + 6, len},
                        {reinterpret_cast<const std::uint8_t*>(password.data()),
                         password.size()});
}

std::shared_ptr<blockdev::BlockDevice> MobiCealDevice::make_crypt_device(
    std::uint32_t paper_index, util::ByteSpan key) {
  std::shared_ptr<blockdev::BlockDevice> lower =
      pool_->open_thin(thin_id(paper_index));
  if (paper_index != 1) {
    // Hidden volumes reserve block 0 for the password head.
    lower = std::make_shared<dm::LinearTarget>(lower, 1,
                                               lower->num_blocks() - 1);
  }
  auto crypt = std::make_shared<dm::CryptTarget>(
      lower, config_.cipher_spec, key, clock_, config_.crypt_cpu);
  if (config_.clock_domain) crypt->set_clock_domain(config_.clock_domain);
  // Per-mount block cache between the filesystem and dm-crypt. Each
  // make_crypt_device call produces a fresh cache, so a mode switch never
  // carries cached plaintext (or a stale view) across volumes.
  return cache::wrap(crypt, config_.cache, clock_);
}

// ---- boot / switch ---------------------------------------------------------------------

AuthResult MobiCealDevice::boot(const std::string& password) {
  if (mode_ != Mode::kLocked) {
    throw util::PolicyError("boot: device already booted");
  }
  util::SecureBytes key = derive_key(password);

  // Try the public volume: create the encrypted device and probe for a
  // valid filesystem (Sec. V-B "The Boot Process").
  {
    auto crypt = make_crypt_device(1, key.span());
    if (fs::ExtFs::probe(*crypt)) {
      mounted_fs_ = fs::ExtFs::mount(crypt);
      mode_ = Mode::kPublic;
      active_paper_volume_ = 1;
      active_key_ = std::move(key);
      return AuthResult::kPublic;
    }
  }

  // Try as a hidden password (basic-scheme boot path, Sec. IV-B).
  const std::uint32_t k = hidden_index(password);
  if (verify_hidden_password(password, k, key.span())) {
    auto crypt = make_crypt_device(k, key.span());
    if (fs::ExtFs::probe(*crypt)) {
      mounted_fs_ = fs::ExtFs::mount(crypt);
      mode_ = Mode::kHidden;
      active_paper_volume_ = k;
      active_key_ = std::move(key);
      return AuthResult::kHidden;
    }
  }
  return AuthResult::kWrongPassword;
}

bool MobiCealDevice::switch_to_hidden(const std::string& password) {
  if (mode_ != Mode::kPublic) {
    throw util::PolicyError("switch_to_hidden: not in public mode");
  }
  util::SecureBytes key = derive_key(password);
  const std::uint32_t k = hidden_index(password);
  if (!verify_hidden_password(password, k, key.span())) {
    return false;  // Vold's "-1"
  }
  // Framework shutdown: sync + unmount the public volume, then bring up the
  // hidden volume (Sec. V-B "Switching to the Hidden Volume").
  mounted_fs_->sync();
  mounted_fs_.reset();
  auto crypt = make_crypt_device(k, key.span());
  if (!fs::ExtFs::probe(*crypt)) {
    throw util::MetadataError("hidden volume has no valid filesystem");
  }
  mounted_fs_ = fs::ExtFs::mount(crypt);
  mode_ = Mode::kHidden;
  active_paper_volume_ = k;
  active_key_ = std::move(key);
  return true;
}

void MobiCealDevice::reboot() {
  if (mounted_fs_) {
    mounted_fs_->sync();
    mounted_fs_.reset();
  }
  pool_->commit();
  active_key_ = util::SecureBytes();
  active_paper_volume_ = 0;
  mode_ = Mode::kLocked;
}

fs::FileSystem& MobiCealDevice::data_fs() {
  if (!mounted_fs_) throw util::PolicyError("no volume mounted");
  return *mounted_fs_;
}

// ---- garbage collection -------------------------------------------------------------------

std::uint64_t MobiCealDevice::collect_garbage(
    double min_fraction, const std::vector<std::string>& protected_passwords) {
  if (mode_ != Mode::kHidden) {
    // Sec. IV-D: only the hidden mode can distinguish dummy data from
    // hidden data; a public-mode GC would corrupt hidden volumes.
    throw util::PolicyError("garbage collection requires hidden mode");
  }
  std::set<std::uint32_t> keep = {1, active_paper_volume_};
  for (const auto& pwd : protected_passwords) {
    // Only treat it as hidden if the password actually verifies; otherwise a
    // typo would silently shield a dummy volume from GC forever.
    const std::uint32_t k = hidden_index(pwd);
    util::SecureBytes key = derive_key(pwd);
    if (verify_hidden_password(pwd, k, key.span())) keep.insert(k);
  }

  // "the system reclaims a random percentage of the space occupied by dummy
  // writes ... the percentage should be large with a high probability".
  const double fraction =
      min_fraction + (1.0 - min_fraction) * sys_rng_->next_unit();

  std::uint64_t reclaimed = 0;
  for (std::uint32_t paper = 2; paper <= config_.num_volumes; ++paper) {
    if (keep.count(paper)) continue;
    const std::uint32_t id = thin_id(paper);
    const auto& map = pool_->mapping(id);
    for (std::uint64_t v = 0; v < map.size(); ++v) {
      if (map[v] == thin::kUnmapped) continue;
      if (sys_rng_->next_unit() < fraction) {
        pool_->discard(id, v);
        ++reclaimed;
      }
    }
  }
  pool_->commit();
  return reclaimed;
}

}  // namespace mobiceal::core
