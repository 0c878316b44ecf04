// AndroidHost — the Android-side state machine around MobiCealDevice:
// pre-boot authentication, screen-lock fast switching, framework restarts,
// and the side-channel isolation steps of Sec. IV-D.
//
// Two things live here:
//
// 1. A *timing model* of the Android workflow steps (framework start/stop,
//    PBKDF2, LVM activation, mounts, reboots), calibrated against Table II's
//    Nexus 4 measurements. Flows charge the shared SimClock, composing with
//    the I/O time charged by TimedDevice underneath.
//
// 2. A *leakage model* for the side-channel attack of Czeskis et al. [23]:
//    app activity produces records naming the files touched; records land in
//    /devlog and /cache. MobiCeal unmounts those partitions and replaces
//    them with tmpfs RAM disks before entering hidden mode, so hidden-mode
//    records die at reboot. With isolation disabled (how HIVE/DEFY-style
//    shared-OS designs behave), hidden-mode records persist — which is
//    exactly what adversary::audit_side_channels (adversary/side_channel.hpp)
//    detects.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/mobiceal.hpp"
#include "util/sim_clock.hpp"

namespace mobiceal::core {

/// Workflow step costs in milliseconds, calibrated for the LG Nexus 4
/// running Android 4.2.2 (Table II environment).
struct AndroidTimingModel {
  std::uint64_t bootloader_kernel_ms = 42'000;  // power-on -> password prompt
  std::uint64_t framework_start_ms = 6'500;     // zygote + system_server + UI
  std::uint64_t framework_stop_ms = 1'200;
  std::uint64_t shutdown_ms = 10'000;           // full power-off path
  std::uint64_t post_auth_boot_ms = 14'000;     // rest of boot after /data
  /// Full-partition BLKDISCARD during "vdc cryptfs pde wipe" (eMMC secure
  /// erase of the 13.7 GB userdata partition).
  std::uint64_t wipe_discard_ms = 55'000;
  std::uint64_t pbkdf2_ms = 90;                 // 2000 iters, Snapdragon S4
  std::uint64_t lvm_activate_ms = 900;          // vgchange + thin activate
  std::uint64_t random_alloc_init_ms = 320;     // MobiCeal allocator init
  std::uint64_t dm_setup_ms = 80;               // dmsetup create
  std::uint64_t mount_ms = 120;                 // ext4 mount
  std::uint64_t umount_ms = 200;
  std::uint64_t tmpfs_mount_ms = 30;
  std::uint64_t mkfs_ms = 9'000;                // make_ext4fs
  std::uint64_t vold_cmd_ms = 80;
  std::uint64_t screen_lock_verify_ms = 60;     // lock-screen UI round trip
  /// /dev/urandom generation cost per 4 KiB block (legacy SHA-1 pool on the
  /// 3.4 kernel, ~9.5 MB/s) — dominates MobiPluto's full-disk random fill.
  std::uint64_t urandom_ns_per_block = 430'000;

  static AndroidTimingModel nexus4() { return {}; }

  std::uint64_t full_reboot_ms() const {
    return shutdown_ms + bootloader_kernel_ms;
  }
};

/// One app-activity record, as it would appear in logs/caches.
struct ActivityRecord {
  std::string path;      // file the app touched
  bool hidden_session;   // was the device in hidden mode?
};

class AndroidHost {
 public:
  struct Options {
    AndroidTimingModel timing = AndroidTimingModel::nexus4();
    /// Screen-lock password for normal unlocking (must differ from the
    /// hidden password, Sec. IV-B).
    std::string screen_lock_password = "1234";
    /// MobiCeal's Sec. IV-D countermeasure. Disable to model a shared-OS
    /// PDE (HIVE/DEFY-style) for the side-channel experiments.
    bool isolate_side_channels = true;
  };

  enum class UiState { kOff, kPasswordPrompt, kUnlocked, kScreenLocked };

  AndroidHost(std::unique_ptr<MobiCealDevice> device,
              std::shared_ptr<util::SimClock> clock, Options options);

  // -- lifecycle ---------------------------------------------------------------

  /// Power-on to the pre-boot password prompt.
  void power_on();

  /// Pre-boot authentication; on success continues boot to the unlocked UI.
  AuthResult enter_boot_password(const std::string& password);

  /// Locks the screen (device keeps running).
  void lock_screen();

  /// Screen-lock input (Sec. V-C): the normal unlock password unlocks; a
  /// hidden password triggers the fast switch into hidden mode; anything
  /// else is rejected.
  enum class LockResult { kUnlocked, kSwitchedToHidden, kRejected };
  LockResult enter_lock_screen_password(const std::string& password);

  /// Full reboot (also the only way out of hidden mode, Sec. IV-D). Clears
  /// tmpfs RAM disks — hidden-session traces vanish. Ends at the prompt.
  void reboot();

  // -- app activity & side channels ------------------------------------------------

  /// Writes a file through the mounted volume and emits the activity
  /// records an Android app would (log line in /devlog, thumbnail/index
  /// entry in /cache).
  void app_write_file(const std::string& path, util::ByteSpan data);

  /// Reads a file (also logged).
  util::Bytes app_read_file(const std::string& path);

  /// Persistent log/caches — what a multi-snapshot adversary can image.
  const std::vector<ActivityRecord>& devlog_persistent() const noexcept {
    return devlog_persistent_;
  }
  const std::vector<ActivityRecord>& cache_persistent() const noexcept {
    return cache_persistent_;
  }
  /// tmpfs contents — visible only if the adversary seizes a *running*
  /// device in hidden mode, which the threat model excludes (Sec. III-A).
  const std::vector<ActivityRecord>& tmpfs_records() const noexcept {
    return tmpfs_records_;
  }

  // -- introspection ------------------------------------------------------------------

  UiState ui_state() const noexcept { return ui_; }
  Mode device_mode() const noexcept { return device_->mode(); }
  MobiCealDevice& device() noexcept { return *device_; }
  util::SimClock& clock() noexcept { return *clock_; }
  const AndroidTimingModel& timing() const noexcept { return options_.timing; }

 private:
  void charge_ms(std::uint64_t ms) {
    clock_->advance(util::SimClock::from_millis(ms));
  }
  void log_activity(const std::string& path);

  std::unique_ptr<MobiCealDevice> device_;
  std::shared_ptr<util::SimClock> clock_;
  Options options_;
  UiState ui_ = UiState::kOff;
  bool side_channels_on_tmpfs_ = false;

  std::vector<ActivityRecord> devlog_persistent_;
  std::vector<ActivityRecord> cache_persistent_;
  std::vector<ActivityRecord> tmpfs_records_;
};

}  // namespace mobiceal::core
