#include "dm/striped_target.hpp"

#include <algorithm>
#include <exception>

#include "crypto/crypto_pool.hpp"
#include "util/error.hpp"

namespace mobiceal::dm {

StripedTarget::StripedTarget(
    std::vector<std::shared_ptr<blockdev::BlockDevice>> stripes,
    std::uint32_t chunk_blocks)
    : StripedTarget(std::move(stripes), chunk_blocks, nullptr, nullptr) {}

StripedTarget::StripedTarget(
    std::vector<std::shared_ptr<blockdev::BlockDevice>> stripes,
    std::uint32_t chunk_blocks, std::shared_ptr<util::ClockDomain> domain,
    std::shared_ptr<crypto::CryptoWorkerPool> submit_pool)
    : stripes_(std::move(stripes)),
      domain_(std::move(domain)),
      submit_pool_(std::move(submit_pool)),
      chunk_blocks_(chunk_blocks) {
  if (stripes_.empty()) {
    throw util::PolicyError("striped: need at least one backing device");
  }
  if (chunk_blocks_ == 0) {
    throw util::PolicyError("striped: chunk size must be > 0 blocks");
  }
  per_stripe_blocks_ = stripes_.front()->num_blocks();
  const std::size_t bs = stripes_.front()->block_size();
  for (const auto& s : stripes_) {
    if (!s) throw util::PolicyError("striped: null backing device");
    if (s->block_size() != bs) {
      throw util::PolicyError("striped: backing block sizes differ");
    }
    if (s->num_blocks() != per_stripe_blocks_) {
      throw util::PolicyError("striped: backing capacities differ");
    }
  }
  if (per_stripe_blocks_ == 0 || per_stripe_blocks_ % chunk_blocks_ != 0) {
    throw util::PolicyError(
        "striped: per-stripe capacity must be a non-zero multiple of the "
        "chunk size");
  }
  num_blocks_ = per_stripe_blocks_ * stripes_.size();
}

StripedTarget::Placement StripedTarget::place(
    std::uint64_t block) const noexcept {
  const std::uint64_t chunk = block / chunk_blocks_;
  const std::uint32_t n = stripe_count();
  return {static_cast<std::uint32_t>(chunk % n),
          (chunk / n) * chunk_blocks_ + block % chunk_blocks_};
}

std::vector<StripedTarget::StripeRun> StripedTarget::split_range(
    std::uint64_t first, std::uint64_t count) const {
  const std::size_t bs = block_size();
  const std::uint32_t n = stripe_count();
  // Dense per-stripe accumulators; `order` remembers first-touch order so
  // submission is deterministic and follows the logical layout.
  std::vector<StripeRun> acc(n);
  std::vector<std::uint32_t> order;
  std::uint64_t b = first;
  const std::uint64_t end = first + count;
  while (b < end) {
    const std::uint64_t chunk = b / chunk_blocks_;
    const std::uint64_t piece_end =
        std::min<std::uint64_t>((chunk + 1) * chunk_blocks_, end);
    const std::uint64_t len = piece_end - b;
    const std::uint32_t s = static_cast<std::uint32_t>(chunk % n);
    StripeRun& run = acc[s];
    if (run.blocks == 0) {
      run.stripe = s;
      run.inner_first =
          (chunk / n) * chunk_blocks_ + (b - chunk * chunk_blocks_);
      order.push_back(s);
    }
    run.pieces.push_back({static_cast<std::size_t>((b - first) * bs),
                          static_cast<std::size_t>(len * bs)});
    run.blocks += len;
    b = piece_end;
  }
  std::vector<StripeRun> runs;
  runs.reserve(order.size());
  for (const std::uint32_t s : order) runs.push_back(std::move(acc[s]));
  return runs;
}

bool StripedTarget::parallel_submit() const noexcept {
  return submit_pool_ && submit_pool_->threads() > 1 && domain_ &&
         domain_->shard_count() > 1;
}

std::uint64_t StripedTarget::fan_out(const blockdev::IoRequest& req,
                                     std::vector<std::uint32_t>* involved) {
  const std::size_t bs = block_size();
  const bool is_write = req.op == blockdev::IoOp::kWrite;
  std::uint8_t* buf = is_write
                          ? const_cast<std::uint8_t*>(req.write_buf.data())
                          : req.read_buf.data();
  const auto runs = split_range(req.first, req.count);
  if (runs.size() > 1) split_requests_.fetch_add(1, std::memory_order_relaxed);
  sub_requests_.fetch_add(runs.size(), std::memory_order_relaxed);

  if (parallel_submit() && runs.size() > 1) {
    // True multi-threaded submitters, one worker per stripe run. Gather
    // (for writes) happens up front and scatter (for reads) after the join,
    // so workers only touch their own stripe device — split_range yields at
    // most one run per stripe, member state is disjoint, and TimedDevice
    // submission reads but never advances its clock shard. Each member's
    // virtual timeline is a pure function of its own request sequence, so
    // the result is bit-identical to the serial loop below.
    struct SubRun {
      blockdev::IoRequest sub;
      util::Bytes staging;
      const StripeRun* run = nullptr;
    };
    std::vector<SubRun> subs(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const StripeRun& run = runs[i];
      if (involved) involved->push_back(run.stripe);
      SubRun& sr = subs[i];
      sr.run = &run;
      sr.sub.op = req.op;
      sr.sub.first = run.inner_first;
      sr.sub.count = run.blocks;
      sr.sub.user_data = req.user_data;
      sr.sub.available_ns = req.available_ns;
      const std::size_t run_bytes = static_cast<std::size_t>(run.blocks) * bs;
      if (run.pieces.size() == 1) {
        if (is_write) {
          sr.sub.write_buf = {buf + run.pieces.front().buf_off, run_bytes};
        } else {
          sr.sub.read_buf = {buf + run.pieces.front().buf_off, run_bytes};
        }
        continue;
      }
      sr.staging.resize(run_bytes);
      if (is_write) {
        std::size_t off = 0;
        for (const Piece& p : run.pieces) {
          std::copy_n(buf + p.buf_off, p.len, sr.staging.data() + off);
          off += p.len;
        }
        sr.sub.write_buf = sr.staging;
      } else {
        sr.sub.read_buf = sr.staging;
      }
    }
    std::vector<std::uint64_t> dones(runs.size(), 0);
    submit_pool_->parallel(runs.size(), [&](std::size_t i) {
      dones[i] = stripes_[subs[i].run->stripe]->submit(subs[i].sub).complete_ns;
    });
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      done = std::max(done, dones[i]);
      const StripeRun& run = *subs[i].run;
      if (!is_write && run.pieces.size() > 1) {
        std::size_t off = 0;
        for (const Piece& p : run.pieces) {
          std::copy_n(subs[i].staging.data() + off, p.len, buf + p.buf_off);
          off += p.len;
        }
      }
    }
    return done;
  }

  std::uint64_t done = 0;
  util::Bytes staging;  // local: concurrent submitters never share it
  for (const StripeRun& run : runs) {
    if (involved) involved->push_back(run.stripe);
    blockdev::IoRequest sub;
    sub.op = req.op;
    sub.first = run.inner_first;
    sub.count = run.blocks;
    sub.user_data = req.user_data;
    sub.available_ns = req.available_ns;
    const std::size_t run_bytes = static_cast<std::size_t>(run.blocks) * bs;
    if (run.pieces.size() == 1) {
      // The run is contiguous in the caller's buffer: no staging copy.
      if (is_write) {
        sub.write_buf = {buf + run.pieces.front().buf_off, run_bytes};
      } else {
        sub.read_buf = {buf + run.pieces.front().buf_off, run_bytes};
      }
      done = std::max(done, stripes_[run.stripe]->submit(sub).complete_ns);
      continue;
    }
    // Strided pieces: gather into (or scatter out of) one staging buffer so
    // the backing device sees a single vectored command per stripe — the
    // controller-side scatter-gather list of a real striped request.
    staging.resize(run_bytes);
    if (is_write) {
      std::size_t off = 0;
      for (const Piece& p : run.pieces) {
        std::copy_n(buf + p.buf_off, p.len, staging.data() + off);
        off += p.len;
      }
      sub.write_buf = staging;
      done = std::max(done, stripes_[run.stripe]->submit(sub).complete_ns);
    } else {
      sub.read_buf = staging;
      // Data lands in the staging buffer at submit time (the engine moves
      // data synchronously), so the scatter back is safe immediately.
      done = std::max(done, stripes_[run.stripe]->submit(sub).complete_ns);
      std::size_t off = 0;
      for (const Piece& p : run.pieces) {
        std::copy_n(staging.data() + off, p.len, buf + p.buf_off);
        off += p.len;
      }
    }
  }
  return done;
}

void StripedTarget::do_read_blocks(std::uint64_t first, std::uint64_t count,
                                   util::MutByteSpan out) {
  if (stripe_count() == 1) {
    stripes_.front()->read_blocks(first, count, out);
    return;
  }
  blockdev::IoRequest req;
  req.op = blockdev::IoOp::kRead;
  req.first = first;
  req.count = count;
  req.read_buf = out;
  std::vector<std::uint32_t> involved;
  fan_out(req, &involved);
  // Synchronous semantics: a barrier over the stripes this request touched
  // (untouched stripes keep their requests in flight).
  for (const std::uint32_t s : involved) stripes_[s]->drain();
}

void StripedTarget::do_write_blocks(std::uint64_t first, util::ByteSpan data) {
  if (stripe_count() == 1) {
    stripes_.front()->write_blocks(first, data);
    return;
  }
  blockdev::IoRequest req;
  req.op = blockdev::IoOp::kWrite;
  req.first = first;
  req.count = data.size() / block_size();
  req.write_buf = data;
  std::vector<std::uint32_t> involved;
  fan_out(req, &involved);
  for (const std::uint32_t s : involved) stripes_[s]->drain();
}

std::uint64_t StripedTarget::do_submit(const blockdev::IoRequest& req) {
  if (stripe_count() == 1) {
    return stripes_.front()->submit(req).complete_ns;
  }
  if (req.op == blockdev::IoOp::kFlush) {
    std::uint64_t done = 0;
    for (const auto& s : stripes_) {
      done = std::max(done, s->submit(req).complete_ns);
    }
    return done;
  }
  if (req.count == 0) {
    // Empty requests are free everywhere in the engine; rebase the offset
    // so stripe 0's (smaller) geometry never rejects a request the striped
    // device already validated.
    blockdev::IoRequest sub = req;
    sub.first = 0;
    return stripes_.front()->submit(sub).complete_ns;
  }
  return fan_out(req, nullptr);
}

void StripedTarget::do_drain() {
  for (const auto& s : stripes_) s->drain();
}

void StripedTarget::do_wait_until(std::uint64_t cutoff) {
  for (const auto& s : stripes_) s->wait_until(cutoff);
}

void StripedTarget::flush() {
  if (stripe_count() == 1) {
    stripes_.front()->flush();
    if (domain_) domain_->sync();
    return;
  }
  blockdev::IoRequest req;
  req.op = blockdev::IoOp::kFlush;
  // RAID-0 has no redundancy: one member missing the barrier fails the
  // whole flush closed. Still attempt EVERY member's flush and drain them
  // all before rethrowing — an early throw out of the submit loop would
  // leave later members un-flushed yet mid-flight, i.e. a partially
  // acknowledged barrier for the layers above to trip over on replay.
  std::exception_ptr first_error;
  for (const auto& s : stripes_) {
    try {
      s->submit(req);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  for (const auto& s : stripes_) {
    try {
      s->drain();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  // Flush is where the shards re-merge: after the member barriers, pin
  // every shard to the max so the layers above observe one timeline.
  if (domain_) domain_->sync();
  if (first_error) std::rethrow_exception(first_error);
}

void StripedTarget::set_queue_depth(std::uint32_t depth) {
  for (const auto& s : stripes_) s->set_queue_depth(depth);
}

}  // namespace mobiceal::dm
