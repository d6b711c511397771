#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

namespace perfbench {

namespace {

bool named(const Span& s, const char* name) {
  return std::string_view(s.name) == name;
}

std::string fmt_us(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

std::string fmt_ms(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

std::uint64_t Tracer::sum_ns(const char* name) const {
  std::uint64_t t = 0;
  for (const Lane& l : lanes_) {
    for (const Span& s : l.spans()) {
      if (named(s, name)) t += static_cast<std::uint64_t>(s.dur_ns());
    }
  }
  return t;
}

std::vector<std::int64_t> Tracer::durations(const char* name) const {
  std::vector<std::int64_t> out;
  for (const Lane& l : lanes_) {
    for (const Span& s : l.spans()) {
      if (named(s, name)) out.push_back(s.dur_ns());
    }
  }
  return out;
}

Phases Tracer::phase_sum(const char* name) const {
  Phases p{};
  for (const Lane& l : lanes_) {
    for (const Span& s : l.spans()) {
      if (!named(s, name)) continue;
      for (std::size_t i = 0; i < p.size(); ++i) p[i] += s.phase_ns[i];
    }
  }
  return p;
}

double Tracer::uncovered_frac(std::int64_t end_ns) const {
  if (lanes_.empty() || end_ns <= 0) return 0.0;
  double uncovered = 0.0;
  for (const Lane& l : lanes_) {
    const std::vector<Span>& spans = l.spans();
    std::vector<bool> has_child(spans.size(), false);
    for (const Span& s : spans) {
      if (s.parent >= 0) has_child[static_cast<std::size_t>(s.parent)] = true;
    }
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (!has_child[i]) iv.emplace_back(spans[i].start_ns, spans[i].end_ns);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = 0;
    for (auto [a, b] : iv) {
      a = std::max(a, reach);
      b = std::min(b, end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    uncovered += static_cast<double>(end_ns - covered) /
                 static_cast<double>(end_ns);
  }
  return uncovered / static_cast<double>(lanes_.size());
}

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  const auto emit = [&](const Span& s, std::size_t tid, std::uint64_t rounds,
                        const Phases& phases) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += "{\"name\": \"";
    out += s.name;
    out += "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " + std::to_string(tid) +
           ", \"ts\": " + fmt_us(s.start_ns) +
           ", \"dur\": " + fmt_us(s.dur_ns()) + ", \"args\": {";
    out += "\"job\": " +
           (s.job == kNoJob ? std::string("null") : std::to_string(s.job));
    if (rounds > 0) {
      out += ", \"rounds\": " + std::to_string(rounds);
      for (std::size_t i = 0; i < phases.size(); ++i) {
        out += ", \"";
        out += chs::sim::round_phase_name(static_cast<chs::sim::RoundPhase>(i));
        out += "_ms\": " + fmt_ms(phases[i]);
      }
    }
    out += "}}";
  };
  for (std::size_t tid = 0; tid < lanes_.size(); ++tid) {
    const std::vector<Span>& spans = lanes_[tid].spans();
    for (std::size_t i = 0; i < spans.size();) {
      const Span& s = spans[i];
      const bool step = std::string_view(s.name).ends_with("_step");
      if (!step) {
        emit(s, tid, 0, Phases{});
        ++i;
        continue;
      }
      // Coalesce the run [i, j) of adjacent same-named steps of one job.
      Span run = s;
      Phases phases{};
      std::size_t j = i;
      for (; j < spans.size() && named(spans[j], s.name) &&
             spans[j].job == s.job;
           ++j) {
        run.end_ns = spans[j].end_ns;
        for (std::size_t p = 0; p < phases.size(); ++p) {
          phases[p] += spans[j].phase_ns[p];
        }
      }
      emit(run, tid, j - i, phases);
      i = j;
    }
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
