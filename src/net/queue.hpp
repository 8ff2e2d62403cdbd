// Bounded in-process segment transport — the decode farm's ingest edge.
//
// SegmentQueue is a fixed-capacity MPMC ring buffer of wire segments.
// Producers (sensor streams) block when the ring is full — natural
// backpressure onto cheap nodes — and consumers (decode workers) block when
// it is empty. close() is the shutdown contract: producers are refused from
// that point on, consumers drain whatever is still buffered and then see
// end-of-queue. The same contract a socket-backed transport will offer, so
// the decode farm is written against this interface only (DESIGN.md §13).
//
// Thread-safe throughout; one mutex + two condvars (classic bounded buffer).
// Segments move in and out — the queue never copies payload bytes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

#include "net/segment.hpp"

namespace speccal::net {

class SegmentQueue {
 public:
  /// Throws std::invalid_argument ("SegmentQueue.capacity ...") when
  /// capacity is 0.
  explicit SegmentQueue(std::size_t capacity);

  SegmentQueue(const SegmentQueue&) = delete;
  SegmentQueue& operator=(const SegmentQueue&) = delete;

  /// Blocking push. Waits while full; returns false (segment dropped) once
  /// the queue is closed.
  bool push(Segment&& segment);

  /// Non-blocking push: false when full or closed.
  bool try_push(Segment&& segment);

  /// Blocking pop. Waits while empty; returns nullopt only after close()
  /// AND the buffer has drained.
  [[nodiscard]] std::optional<Segment> pop();

  /// Non-blocking pop: false when nothing is buffered (closed or not).
  bool try_pop(Segment& out);

  /// Refuse new segments and wake every waiter. Buffered segments remain
  /// poppable; idempotent.
  void close();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  struct Stats {
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    std::uint64_t rejected = 0;    // try_push full + any push after close
    std::size_t peak_depth = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  void push_locked(Segment&& segment);
  void pop_locked(Segment& out);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<Segment> ring_;
  std::size_t head_ = 0;  // next pop position
  std::size_t count_ = 0;
  bool closed_ = false;
  Stats stats_;
};

}  // namespace speccal::net
