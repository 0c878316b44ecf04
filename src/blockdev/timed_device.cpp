#include "blockdev/timed_device.hpp"

#include <algorithm>

namespace mobiceal::blockdev {

TimingModel TimingModel::nexus4_emmc() {
  TimingModel m;
  // Calibration targets (raw device, 4 KiB blocks):
  //   sequential write ≈ 21 MB/s  -> ~186 µs per 4 KiB including per-IO cost
  //   sequential read  ≈ 30 MB/s  -> ~130 µs per 4 KiB
  //   random write pays FTL erase-block churn; random read only a map miss.
  m.per_io_ns = 8'000;
  m.read_per_block_ns = 122'000;
  m.write_per_block_ns = 178'000;
  m.random_read_penalty_ns = 40'000;
  m.random_write_penalty_ns = 190'000;
  m.flush_ns = 900'000;
  return m;
}

TimingModel TimingModel::sata_ssd() {
  TimingModel m;
  // ~260 MB/s sequential, mild random penalties (SSD).
  m.per_io_ns = 4'000;
  m.read_per_block_ns = 14'000;
  m.write_per_block_ns = 15'000;
  m.random_read_penalty_ns = 20'000;
  m.random_write_penalty_ns = 40'000;
  m.flush_ns = 500'000;  // SATA cache-flush latency
  return m;
}

TimingModel TimingModel::nand_sim() {
  TimingModel m;
  // Raw NAND pages via MTD: reads fast, programs slow, no seek concept but
  // block erases amortised into the program cost.
  m.per_io_ns = 3'000;
  m.read_per_block_ns = 40'000;
  m.write_per_block_ns = 210'000;
  m.random_read_penalty_ns = 5'000;
  m.random_write_penalty_ns = 15'000;
  m.flush_ns = 500'000;
  return m;
}

TimedDevice::TimedDevice(std::shared_ptr<BlockDevice> inner, TimingModel model,
                         std::shared_ptr<util::SimClock> clock)
    : inner_(std::move(inner)), model_(model), clock_(std::move(clock)) {
  reset_hook_ = clock_->add_reset_hook([this] {
    ctrl_free_ns_ = 0;
    for (std::uint64_t& s : slot_free_ns_) s = 0;
    outstanding_ns_.clear();
  });
}

TimedDevice::~TimedDevice() { clock_->remove_reset_hook(reset_hook_); }

std::uint64_t TimedDevice::command_ns(std::uint64_t first,
                                      std::uint64_t count, bool is_write) {
  std::uint64_t ns = model_.per_io_ns;
  const bool sequential = has_last_ && first == next_expected_;
  if (sequential) {
    ++sequential_;
  } else {
    ++random_;
    ns += is_write ? model_.random_write_penalty_ns
                   : model_.random_read_penalty_ns;
  }
  has_last_ = true;
  next_expected_ = first + count;
  return ns;
}

void TimedDevice::charge(std::uint64_t first, std::uint64_t count,
                         bool is_write) {
  advance_to_idle();
  // One command setup per request; blocks within the request stream at the
  // sequential transfer rate (the controller sees one scatter-gather list).
  const std::uint64_t ns =
      command_ns(first, count, is_write) +
      count * (is_write ? model_.write_per_block_ns
                        : model_.read_per_block_ns);
  clock_->advance(ns);
  (is_write ? writes_ : reads_) += count;
  ++vectored_;
}

void TimedDevice::advance_to_idle() {
  std::uint64_t busy = ctrl_free_ns_;
  for (const std::uint64_t s : slot_free_ns_) busy = std::max(busy, s);
  if (busy > clock_->now()) clock_->advance(busy - clock_->now());
  outstanding_ns_.clear();  // everything has completed by now
}

void TimedDevice::ensure_slots() {
  const std::uint32_t depth = queue_depth();
  if (slot_free_ns_.size() != depth) slot_free_ns_.assign(depth, 0);
}

void TimedDevice::set_queue_depth(std::uint32_t depth) {
  advance_to_idle();
  BlockDevice::set_queue_depth(depth);
  slot_free_ns_.assign(queue_depth(), 0);
}

std::uint64_t TimedDevice::do_submit(const IoRequest& req) {
  const std::uint64_t now = clock_->now();
  if (req.op == IoOp::kFlush) {
    // Barrier: waits for every in-flight request, then costs the flush.
    std::uint64_t t = std::max(now, ctrl_free_ns_);
    for (const std::uint64_t s : slot_free_ns_) t = std::max(t, s);
    t = std::max(t, req.available_ns) + model_.flush_ns;
    ctrl_free_ns_ = t;
    for (std::uint64_t& s : slot_free_ns_) s = t;
    outstanding_ns_.clear();
    ++flushes_;
    inner_->flush();
    return t;
  }
  if (req.count == 0) return std::max(now, req.available_ns);

  ensure_slots();
  const bool is_write = req.op == IoOp::kWrite;
  // Admission: at most queue_depth() requests hold a queue tag. A full
  // queue stalls the next command until the earliest in-flight request
  // completes (at depth 1 this reduces to the fully serial model).
  std::uint64_t admit = std::max(now, req.available_ns);
  std::erase_if(outstanding_ns_,
                [&](std::uint64_t done) { return done <= admit; });
  while (outstanding_ns_.size() >= queue_depth()) {
    const auto earliest =
        std::min_element(outstanding_ns_.begin(), outstanding_ns_.end());
    admit = std::max(admit, *earliest);
    outstanding_ns_.erase(earliest);
  }
  // Serial command phase: the controller decodes commands one at a time,
  // in submission order — per-IO overhead and locality penalties never
  // overlap each other.
  const std::uint64_t cmd_ns = command_ns(req.first, req.count, is_write);
  const std::uint64_t cmd_start = std::max(admit, ctrl_free_ns_);
  const std::uint64_t cmd_done = cmd_start + cmd_ns;
  ctrl_free_ns_ = cmd_done;
  // Overlapped transfer phase: earliest-free of queue_depth() slots.
  auto slot = std::min_element(slot_free_ns_.begin(), slot_free_ns_.end());
  const std::uint64_t xfer_start = std::max(cmd_done, *slot);
  const std::uint64_t done =
      xfer_start + req.count * (is_write ? model_.write_per_block_ns
                                         : model_.read_per_block_ns);
  *slot = done;
  outstanding_ns_.push_back(done);
  ++async_;
  if (is_write) {
    writes_ += req.count;
    inner_->write_blocks(req.first, req.write_buf);
  } else {
    reads_ += req.count;
    inner_->read_blocks(req.first, req.count, req.read_buf);
  }
  return done;
}

std::uint64_t TimedDevice::completion_cutoff() const noexcept {
  return clock_->now();
}

void TimedDevice::do_drain() { advance_to_idle(); }

void TimedDevice::do_wait_until(std::uint64_t cutoff) {
  // Outstanding queue tags deliberately stay put: entries at or before the
  // new "now" are released lazily by the next submission's admission check.
  if (cutoff > clock_->now()) clock_->advance(cutoff - clock_->now());
}

void TimedDevice::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                 util::MutByteSpan out) {
  if (count == 0) return;  // empty requests are free, like everywhere else
  charge(first, count, /*is_write=*/false);
  inner_->read_blocks(first, count, out);
}

void TimedDevice::do_write_blocks(std::uint64_t first, util::ByteSpan data) {
  if (data.empty()) return;
  charge(first, data.size() / block_size(), /*is_write=*/true);
  inner_->write_blocks(first, data);
}

void TimedDevice::flush() {
  advance_to_idle();
  clock_->advance(model_.flush_ns);
  ++flushes_;
  inner_->flush();
}

void TimedDevice::reset_counters() noexcept {
  reads_ = writes_ = flushes_ = sequential_ = random_ = vectored_ = async_ =
      0;
}

}  // namespace mobiceal::blockdev
