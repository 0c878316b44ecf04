#include "adversary/game.hpp"

#include <algorithm>
#include <stdexcept>

#include "api/scheme_registry.hpp"
#include "blockdev/block_device.hpp"
#include "util/error.hpp"

namespace mobiceal::adversary {

const DistinguisherResult& GameResult::distinguisher(
    const std::string& name) const {
  for (const auto& d : distinguishers) {
    if (d.name == name) return d;
  }
  throw std::out_of_range("game has no distinguisher '" + name + "'");
}

util::RunningStats GameResult::statistic(const std::string& name,
                                         bool hidden_world) const {
  const auto index = static_cast<std::size_t>(
      &distinguisher(name) - distinguishers.data());
  util::RunningStats stats;
  for (const auto& t : trials) {
    const auto& v = t.verdicts[index];
    if (v && t.hidden_world == hidden_world) stats.add(v->statistic);
  }
  return stats;
}

double GameResult::max_advantage() const {
  double adv = 0.0;
  for (const auto& d : distinguishers) adv = std::max(adv, d.advantage());
  return adv;
}

bool GameResult::all_applied() const {
  return std::all_of(distinguishers.begin(), distinguishers.end(),
                     [this](const DistinguisherResult& d) {
                       return d.trials == trials.size();
                     });
}

DistinguisherResult tally(const std::string& name,
                          const std::vector<TrialRecord>& trials,
                          std::size_t index) {
  DistinguisherResult d{name, 0, 0};
  for (const auto& t : trials) {
    const auto& v = t.verdicts[index];
    if (!v) continue;
    ++d.trials;
    if (v->suspects_hidden_data == t.hidden_world) ++d.correct;
  }
  return d;
}

GameUser::GameUser(const GameSetup& cfg,
                   std::shared_ptr<blockdev::BlockDevice> device,
                   std::uint64_t trial_seed, util::Rng& rng,
                   std::shared_ptr<util::SimClock> clock,
                   const std::string& password_tag)
    : cfg_(cfg),
      rng_(rng),
      pub_(password_tag + "-public-pw"),
      hid_(password_tag + "-hidden-pw") {
  api::SchemeOptions opts;
  opts.device = std::move(device);
  opts.clock = std::move(clock);
  opts.public_password = pub_;
  opts.hidden_passwords = {hid_};
  opts.num_volumes = cfg.num_volumes;
  opts.chunk_blocks = cfg.chunk_blocks;
  opts.kdf_iterations = 16;
  opts.fs_inode_count = 256;
  opts.zero_cpu_models = true;
  opts.rng_seed = trial_seed;
  opts.lambda = cfg.lambda;
  opts.x = cfg.x;
  dev_ = api::SchemeRegistry::create(cfg.scheme, opts);
  if (!dev_->capabilities().has(api::Capability::kHiddenVolume)) {
    throw util::PolicyError("game: scheme '" + cfg.scheme +
                            "' has no hidden volume to hide data in");
  }
}

void GameUser::must_unlock(const std::string& password,
                           api::VolumeClass want) {
  const auto r = dev_->unlock(password);
  if (!r.ok || r.volume != want) {
    throw util::PolicyError(
        "game: unlock did not reach the " +
        std::string(want == api::VolumeClass::kHidden ? "hidden"
                                                      : "public") +
        " volume on '" + cfg_.scheme + "'");
  }
}

void GameUser::boot_public() { must_unlock(pub_, api::VolumeClass::kPublic); }

void GameUser::write_file(const std::string& path, std::size_t n) {
  util::Bytes payload(n);
  rng_.fill(payload);
  dev_->data_fs().write_file(path, payload);
  dev_->data_fs().sync();
  bytes_written_ += n;
}

void GameUser::store_hidden(const std::string& path, std::size_t n) {
  if (dev_->capabilities().has(api::Capability::kFastSwitch)) {
    if (!dev_->switch_volume(hid_)) {
      throw util::PolicyError("game: fast switch failed on '" +
                              cfg_.scheme + "'");
    }
  } else {
    dev_->reboot();
    must_unlock(hid_, api::VolumeClass::kHidden);
  }
  write_file(path, n);
  dev_->reboot();
  boot_public();
}

void GameUser::baseline() {
  boot_public();
  write_file("/base0", cfg_.public_file_bytes);
  write_file("/base1", cfg_.public_file_bytes / 2);
  reboot();
}

void GameUser::round(bool hidden_world, const std::string& suffix) {
  boot_public();
  for (std::uint32_t f = 0; f < cfg_.public_files_per_round; ++f) {
    const std::size_t jitter =
        cfg_.public_file_bytes / 2 + rng_.next_below(cfg_.public_file_bytes);
    write_file("/pub" + std::to_string(next_file_id()), jitter);
  }
  if (hidden_world) {
    store_hidden("/sensitive" + suffix, cfg_.hidden_file_bytes);
  } else {
    write_file("/extra" + suffix, cfg_.hidden_file_bytes);
  }
  if (cfg_.equal_size_discipline) {
    write_file("/cover" + suffix, cfg_.hidden_file_bytes);
  }
}

void GameUser::rounds(bool hidden_world, std::uint32_t count) {
  for (std::uint32_t r = 0; r < count; ++r) {
    round(hidden_world, std::to_string(r));
    reboot();
  }
}

}  // namespace mobiceal::adversary
