#include "blockdev/block_device.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace mobiceal::blockdev {

void BlockDevice::check_io(std::uint64_t index, std::size_t len) const {
  if (index >= num_blocks()) {
    throw util::IoError("block " + std::to_string(index) +
                        " out of range (device has " +
                        std::to_string(num_blocks()) + ")");
  }
  if (len != block_size()) {
    throw util::IoError("I/O size " + std::to_string(len) +
                        " != block size " + std::to_string(block_size()));
  }
}

void BlockDevice::check_range(std::uint64_t first, std::uint64_t count,
                              std::size_t len) const {
  if (first > num_blocks() || count > num_blocks() - first) {
    throw util::IoError("blocks [" + std::to_string(first) + ", " +
                        std::to_string(first) + "+" + std::to_string(count) +
                        ") out of range (device has " +
                        std::to_string(num_blocks()) + ")");
  }
  if (len != count * block_size()) {
    throw util::IoError("vectored I/O size " + std::to_string(len) +
                        " != " + std::to_string(count) + " x block size " +
                        std::to_string(block_size()));
  }
}

void BlockDevice::read_block(std::uint64_t index, util::MutByteSpan out) {
  check_io(index, out.size());
  do_read_blocks(index, 1, out);
}

void BlockDevice::write_block(std::uint64_t index, util::ByteSpan data) {
  check_io(index, data.size());
  do_write_blocks(index, data);
}

void BlockDevice::read_blocks(std::uint64_t first, std::uint64_t count,
                              util::MutByteSpan out) {
  check_range(first, count, out.size());
  do_read_blocks(first, count, out);
}

void BlockDevice::write_blocks(std::uint64_t first, util::ByteSpan data) {
  if (data.size() % block_size() != 0) {
    throw util::IoError("write_blocks: unaligned buffer");
  }
  check_range(first, data.size() / block_size(), data.size());
  do_write_blocks(first, data);
}

void BlockDevice::set_queue_depth(std::uint32_t depth) {
  queue_depth_ = depth == 0 ? 1 : depth;
}

SubmitResult BlockDevice::submit(const IoRequest& req) {
  switch (req.op) {
    case IoOp::kRead:
      check_range(req.first, req.count, req.read_buf.size());
      break;
    case IoOp::kWrite:
      if (req.write_buf.size() % block_size() != 0) {
        throw util::IoError("submit: unaligned write buffer");
      }
      check_range(req.first, req.count, req.write_buf.size());
      break;
    case IoOp::kFlush:
      break;
  }
  const std::uint64_t done = do_submit(req);
  const std::uint64_t ticket = next_ticket_++;
  pending_.push_back({ticket, req.user_data, done});
  return {ticket, done};
}

std::uint64_t BlockDevice::do_submit(const IoRequest& req) {
  // Synchronous shim: devices without a service-time model execute the
  // request inline; it is complete (time 0) by the time submit returns.
  switch (req.op) {
    case IoOp::kRead:
      if (req.count != 0) do_read_blocks(req.first, req.count, req.read_buf);
      break;
    case IoOp::kWrite:
      if (req.count != 0) do_write_blocks(req.first, req.write_buf);
      break;
    case IoOp::kFlush:
      flush();
      break;
  }
  return 0;
}

std::uint64_t BlockDevice::completion_cutoff() const noexcept {
  return ~std::uint64_t{0};
}

std::vector<IoCompletion> BlockDevice::take_ready(std::uint64_t cutoff) {
  std::vector<IoCompletion> ready;
  std::vector<IoCompletion> rest;
  for (const IoCompletion& c : pending_) {
    (c.complete_ns <= cutoff ? ready : rest).push_back(c);
  }
  pending_ = std::move(rest);
  std::sort(ready.begin(), ready.end(),
            [](const IoCompletion& a, const IoCompletion& b) {
              return a.complete_ns != b.complete_ns
                         ? a.complete_ns < b.complete_ns
                         : a.ticket < b.ticket;
            });
  return ready;
}

std::vector<IoCompletion> BlockDevice::poll_completions() {
  return take_ready(completion_cutoff());
}

std::vector<IoCompletion> BlockDevice::drain() {
  do_drain();
  return take_ready(~std::uint64_t{0});
}

std::vector<IoCompletion> BlockDevice::wait_until(std::uint64_t cutoff) {
  do_wait_until(cutoff);
  return take_ready(cutoff);
}

util::Bytes BlockDevice::read_blocks(std::uint64_t first,
                                     std::uint64_t count) {
  util::Bytes out(count * block_size());
  read_blocks(first, count, out);
  return out;
}

util::Bytes BlockDevice::snapshot() {
  return read_blocks(0, num_blocks());
}

namespace {
std::vector<SubmitResult> submit_segments(BlockDevice& dev, IoOp op,
                                          std::uint64_t first,
                                          std::uint8_t* buf,
                                          std::uint64_t count,
                                          std::uint64_t available_ns) {
  std::vector<SubmitResult> results;
  results.reserve(static_cast<std::size_t>(
      (count + kSubmitSegmentBlocks - 1) / kSubmitSegmentBlocks));
  const std::size_t bs = dev.block_size();
  for (std::uint64_t done = 0; done < count; done += kSubmitSegmentBlocks) {
    const std::uint64_t n = std::min(kSubmitSegmentBlocks, count - done);
    IoRequest req;
    req.op = op;
    req.first = first + done;
    req.count = n;
    req.available_ns = available_ns;
    const std::size_t len = static_cast<std::size_t>(n) * bs;
    if (op == IoOp::kRead) {
      req.read_buf = {buf + done * bs, len};
    } else {
      req.write_buf = {buf + done * bs, len};
    }
    results.push_back(dev.submit(req));
  }
  return results;
}
}  // namespace

std::vector<SubmitResult> submit_read_segments(BlockDevice& dev,
                                               std::uint64_t first,
                                               util::MutByteSpan buf,
                                               std::uint64_t available_ns) {
  return submit_segments(dev, IoOp::kRead, first, buf.data(),
                         buf.size() / dev.block_size(), available_ns);
}

std::vector<SubmitResult> submit_write_segments(BlockDevice& dev,
                                                std::uint64_t first,
                                                util::ByteSpan buf,
                                                std::uint64_t available_ns) {
  return submit_segments(dev, IoOp::kWrite, first,
                         const_cast<std::uint8_t*>(buf.data()),
                         buf.size() / dev.block_size(), available_ns);
}

void fill_random(BlockDevice& dev, std::uint64_t first, std::uint64_t count,
                 util::Rng& rng) {
  constexpr std::uint64_t kBatchBlocks = 256;  // 1 MiB at 4 KiB blocks
  util::Bytes noise(kBatchBlocks * dev.block_size());
  for (std::uint64_t b = 0; b < count; b += kBatchBlocks) {
    const std::uint64_t n = std::min(kBatchBlocks, count - b);
    const util::MutByteSpan batch{noise.data(), n * dev.block_size()};
    rng.fill(batch);
    dev.write_blocks(first + b, batch);
  }
}

MemBlockDevice::MemBlockDevice(std::uint64_t num_blocks,
                               std::size_t block_size)
    : num_blocks_(num_blocks),
      block_size_(block_size),
      data_(num_blocks * block_size, 0) {}

void MemBlockDevice::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                    util::MutByteSpan out) {
  std::memcpy(out.data(), data_.data() + first * block_size_,
              count * block_size_);
}

void MemBlockDevice::do_write_blocks(std::uint64_t first,
                                     util::ByteSpan data) {
  std::memcpy(data_.data() + first * block_size_, data.data(), data.size());
}

FileBlockDevice::FileBlockDevice(const std::string& path,
                                 std::uint64_t num_blocks,
                                 std::size_t block_size)
    : num_blocks_(num_blocks), block_size_(block_size) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0600);
  if (fd_ < 0) throw util::IoError("cannot open " + path);
  if (::ftruncate(fd_, static_cast<off_t>(num_blocks * block_size)) != 0) {
    ::close(fd_);
    throw util::IoError("cannot size " + path);
  }
}

FileBlockDevice::~FileBlockDevice() {
  if (fd_ >= 0) ::close(fd_);
}

namespace {

// pread/pwrite transfer at most MAX_RW_COUNT (~2 GiB) per call and may
// return short on EINTR: loop until the whole span moves or a hard error.
void full_pread(int fd, util::MutByteSpan out, off_t off,
                std::uint64_t first_block) {
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n =
        ::pread(fd, out.data() + done, out.size() - done,
                off + static_cast<off_t>(done));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw util::IoError("pread failed at block " +
                          std::to_string(first_block));
    }
    done += static_cast<std::size_t>(n);
  }
}

void full_pwrite(int fd, util::ByteSpan data, off_t off,
                 std::uint64_t first_block) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n =
        ::pwrite(fd, data.data() + done, data.size() - done,
                 off + static_cast<off_t>(done));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw util::IoError("pwrite failed at block " +
                          std::to_string(first_block));
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

void FileBlockDevice::do_read_blocks(std::uint64_t first,
                                     std::uint64_t count,
                                     util::MutByteSpan out) {
  (void)count;
  full_pread(fd_, out, static_cast<off_t>(first * block_size_), first);
}

void FileBlockDevice::do_write_blocks(std::uint64_t first,
                                      util::ByteSpan data) {
  full_pwrite(fd_, data, static_cast<off_t>(first * block_size_), first);
}

void FileBlockDevice::flush() {
  if (::fsync(fd_) != 0) throw util::IoError("fsync failed");
}

}  // namespace mobiceal::blockdev
