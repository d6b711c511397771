// In-memory span recorder for the benchmark's traced run.
//
// The traced run times the calls the benchmark makes into each layer's
// public functions from outside (nothing under src/ is instrumented). Each
// worker thread owns one Lane and is its only writer, so recording takes no
// lock; the lanes are read only after every thread has joined. When the run
// ends the spans are written out as Chrome trace-event JSON.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/profile.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr std::uint32_t kNoJob = 0xffffffffu;

using Phases = std::array<std::uint64_t, chs::sim::kRoundPhases>;

struct Span {
  const char* name = "";  // static string: the layer call, e.g. "persist.full"
  std::uint32_t job = kNoJob;
  std::int32_t parent = -1;  // index into the same lane; -1 = root
  std::int64_t start_ns = 0;  // since the tracer's origin
  std::int64_t end_ns = 0;
  /// Engine phase laps that landed inside this span (step spans only).
  std::uint64_t phase_ns[chs::sim::kRoundPhases] = {};

  std::int64_t dur_ns() const { return end_ns - start_ns; }
};

/// One thread's spans. open() nests under the innermost open span.
class Lane {
 public:
  explicit Lane(Clock::time_point origin) : origin_(origin) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  std::int32_t open(const char* name, std::uint32_t job = kNoJob) {
    Span s;
    s.name = name;
    s.job = job;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }

  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// A span whose interval the caller measured itself.
  void add(const char* name, std::uint32_t job, std::int64_t start_ns,
           std::int64_t end_ns) {
    Span s;
    s.name = name;
    s.job = job;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
  }

  Span& at(std::int32_t id) { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Tracer {
 public:
  explicit Tracer(std::size_t lanes) : origin_(Clock::now()) {
    lanes_.reserve(lanes);
    for (std::size_t i = 0; i < lanes; ++i) lanes_.emplace_back(origin_);
  }

  Lane& lane(std::size_t i) { return lanes_[i]; }
  const std::vector<Lane>& lanes() const { return lanes_; }

  /// Σ duration of every span called `name`, in nanoseconds.
  std::uint64_t sum_ns(const char* name) const;
  /// Durations (ns) of every span called `name`.
  std::vector<std::int64_t> durations(const char* name) const;
  /// Σ phase laps over spans called `name`.
  Phases phase_sum(const char* name) const;

  /// Share of lane time inside [0, end_ns) that no leaf span covers,
  /// averaged over the lanes. Leaves are the layer calls; a container span
  /// (a job) does not count, so its gaps are the benchmark's own glue
  /// between calls plus anything the calls leave untimed.
  double uncovered_frac(std::int64_t end_ns) const;

  /// Chrome trace-event JSON (the format `chordsim trace` emits). Runs of
  /// consecutive same-named step spans of one job are coalesced into one
  /// event carrying the round count and phase laps, so a 300k-round soak
  /// stays a few hundred KB.
  std::string to_chrome_json() const;

 private:
  Clock::time_point origin_;
  std::vector<Lane> lanes_;
};

}  // namespace perfbench
