#include "adversary/side_channel.hpp"

#include <memory>

#include "blockdev/block_device.hpp"
#include "core/mobiceal.hpp"
#include "util/error.hpp"

namespace mobiceal::adversary {

SideChannelReport audit_side_channels(const core::AndroidHost& host) {
  SideChannelReport report;
  for (const auto& rec : host.devlog_persistent()) {
    if (rec.hidden_session) report.devlog_leaks.push_back(rec.path);
  }
  for (const auto& rec : host.cache_persistent()) {
    if (rec.hidden_session) report.cache_leaks.push_back(rec.path);
  }
  return report;
}

SideChannelReport side_channel_session(bool isolate, bool hidden_world,
                                       std::uint64_t seed) {
  constexpr char kPub[] = "sc-public";
  constexpr char kHid[] = "sc-hidden";
  constexpr char kPin[] = "0000";
  auto disk = std::make_shared<blockdev::MemBlockDevice>(16384);
  auto clock = std::make_shared<util::SimClock>();
  core::MobiCealDevice::Config cfg;
  cfg.num_volumes = 6;
  cfg.chunk_blocks = 4;
  cfg.kdf_iterations = 16;
  cfg.fs_inode_count = 128;
  cfg.rng_seed = seed;
  auto dev = core::MobiCealDevice::initialize(disk, cfg, kPub, {kHid}, clock);

  core::AndroidHost::Options opt;
  opt.isolate_side_channels = isolate;
  opt.screen_lock_password = kPin;
  core::AndroidHost host(std::move(dev), clock, opt);

  host.power_on();
  if (host.enter_boot_password(kPub) != core::AuthResult::kPublic) {
    throw util::PolicyError("side-channel game: public boot failed");
  }
  // Normal public usage.
  host.device().data_fs().mkdir("/photos");
  const util::Bytes data(20000, 0xAB);
  for (int i = 0; i < 5; ++i) {
    host.app_write_file("/photos/img" + std::to_string(i) + ".jpg", data);
  }
  host.lock_screen();
  const auto want = hidden_world
                        ? core::AndroidHost::LockResult::kSwitchedToHidden
                        : core::AndroidHost::LockResult::kUnlocked;
  if (host.enter_lock_screen_password(hidden_world ? kHid : kPin) != want) {
    throw util::PolicyError("side-channel game: the lock screen did not " +
                            std::string(hidden_world ? "switch to hidden mode"
                                                     : "unlock"));
  }
  for (int i = 0; i < kSessionFiles; ++i) {
    host.app_write_file("/evidence" + std::to_string(i) + ".mp4", data);
  }
  host.reboot();
  // Border crossing: the adversary images the device and audits.
  return audit_side_channels(host);
}

GameResult run_side_channel_game(bool isolate, std::uint64_t trials,
                                 std::uint64_t seed) {
  Game<SideChannelReport> game;
  game.world = [isolate](bool hidden_world, std::uint64_t trial_seed,
                         util::Rng&) {
    return side_channel_session(isolate, hidden_world, trial_seed);
  };
  game.distinguishers = {
      {"persistent hidden-session trace",
       [](const SideChannelReport& report) {
         AttackReport r;
         r.statistic = static_cast<double>(report.total());
         r.suspects_hidden_data = report.leaked();
         return r;
       }},
  };
  return game.play(trials, seed);
}

}  // namespace mobiceal::adversary
