// End-to-end benchmark with per-layer attribution (see README.md).
//
//   perfbench --workload cold_start|serve_zipf|adversary_soak --seed N
//             --seconds S --trace 0|1 [--commit ID]
//
// --trace 0 repeats campaign::run_campaign — the call behind
// `chordsim campaign` — until S seconds are spent and prints the end-to-end
// metrics. --trace 1 replays run_campaign's per-job calls with a span around
// every call into a layer, prints the per-layer metrics, and writes the
// spans as Chrome trace-event JSON into .bench_build/ under the working
// directory, next to the campaign checkpoint files. Both modes check the outputs;
// the last stdout line is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "sim/profile.hpp"
#include "trace.hpp"
#include "util/log.hpp"
#include "verify/oracle.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace cp = chs::campaign;
namespace fs = std::filesystem;
using namespace perfbench;

namespace {

// --- workloads -----------------------------------------------------------------

// `{lo} {hi}` becomes the scenario's seed range: jobs_per_seed consecutive
// seeds starting at seed * jobs_per_seed.
constexpr const char* kColdStart = R"(name cold_start
guests 4096
hosts 512
families random_tree
seeds {lo} {hi}
target chord
delay 1
start cold
)";

constexpr const char* kServeZipf = R"(name serve_zipf
guests 4096
hosts 512
families random_tree
seeds {lo} {hi}
target chord
delay 1
start converged
series 50 64
workload 0 2000 80 65536 0.99 0.3 3 0 16384
loss 800 1040 0.1
)";

constexpr const char* kAdversarySoak = R"(name adversary_soak
guests 256
hosts 24 32
families random_tree line
seeds {lo} {hi}
target chord
delay 2
delay-model lognormal
racks 4
zones 2
start converged
series 16 64
at 0 fault 3
loss 50 150 0.2
byzantine 100 300 0.05 liar
partition 200 260 rack 1
at 400 rack-outage 2
at 400 churn 2
)";

struct Workload {
  cp::Scenario sc;
  std::size_t jobs = 1;     // job-runner threads
  std::size_t workers = 1;  // engine workers per job
  bool oracle = false;      // stride-1 hard-fail invariant oracle
  std::uint64_t checkpoint_every = 0;  // 0 = no campaign checkpoint file
};

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (std::size_t p = s.find(from); p != std::string::npos;
       p = s.find(from, p + to.size())) {
    s.replace(p, from.size(), to);
  }
  return s;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  const char* text = nullptr;
  std::uint64_t per_seed = 1;
  Workload w;
  if (name == "cold_start") {
    text = kColdStart;
    per_seed = 4;
    w.workers = 2;
  } else if (name == "serve_zipf") {
    text = kServeZipf;
    w.workers = 2;
  } else if (name == "adversary_soak") {
    text = kAdversarySoak;
    per_seed = 6;
    w.jobs = 4;
    w.oracle = true;
    w.checkpoint_every = 200;
  } else {
    return std::nullopt;
  }
  const std::uint64_t lo = seed * per_seed;
  std::string scn = replace_all(text, "{lo}", std::to_string(lo));
  scn = replace_all(scn, "{hi}", std::to_string(lo + per_seed - 1));
  std::string err;
  auto sc = cp::parse_scenario(scn, &err);
  if (!sc) {
    std::fprintf(stderr, "perfbench: bad built-in scenario: %s\n", err.c_str());
    return std::nullopt;
  }
  w.sc = *sc;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  w.jobs = std::min(w.jobs, hw);
  w.workers = std::min(w.workers, hw);
  return w;
}

cp::ProbeFactory probe_factory(const Workload& w) {
  if (!w.oracle) return {};
  chs::verify::OracleConfig cfg;
  cfg.stride = 1;
  cfg.hard_fail = true;
  return chs::verify::oracle_probe_factory(cfg);
}

cp::RunOptions run_options(const Workload& w, std::size_t workers,
                           const std::string& ckpt_path) {
  cp::RunOptions o;
  o.jobs = w.jobs;
  o.engine_workers = workers;
  o.probe = probe_factory(w);
  if (w.checkpoint_every > 0) {
    o.checkpoint_path = ckpt_path;
    o.checkpoint_every = w.checkpoint_every;
  }
  return o;
}

// --- helpers -------------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process (every thread), user + system.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of ns durations, in microseconds.
double percentile_us(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  std::size_t i = static_cast<std::size_t>(rank);
  if (static_cast<double>(i) < rank) ++i;
  i = std::clamp<std::size_t>(i, 1, v.size()) - 1;
  return static_cast<double>(v[i]) / 1e3;
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Output checks shared by both modes. Returns the number of failed jobs;
/// every problem is appended to `problems`.
std::uint64_t check_report(const Workload& w, const cp::CampaignReport& rep,
                           std::vector<std::string>& problems) {
  std::uint64_t failed = 0;
  if (rep.halted || rep.results.size() != w.sc.num_jobs()) {
    problems.push_back("campaign did not run every job");
    return w.sc.num_jobs();
  }
  for (const cp::JobResult& r : rep.results) {
    std::string why;
    if (!r.setup_converged || !r.converged) why = "did not converge";
    if (w.oracle && (!r.oracle_armed || !r.oracle_violation.empty())) {
      why = "oracle: " + r.oracle_violation;
    }
    if (r.adversary_armed && !r.correct_converged) {
      why = "correct subset did not converge";
    }
    if (w.sc.workload_armed() &&
        (r.wl_issued == 0 || r.wl_issued != r.wl_completed + r.wl_timeouts)) {
      why = "issued != completed + timeouts";
    }
    if (!why.empty()) {
      ++failed;
      problems.push_back("job " + std::to_string(r.spec.index) + ": " + why);
    }
  }
  return failed;
}

// --- end-to-end metrics (trace 0) ---------------------------------------------

/// Σ JobRunner construction — graph generation, engine build, probe
/// attach — for every job of the campaign. One set-up takes a millisecond or
/// less, so a sample times enough back-to-back set-ups to last kSampleS and
/// divides. Host speed drifts for seconds at a time on a shared machine, so
/// samples are taken in batches between the timed campaign runs, and
/// setup_s is the median of all of them.
class SetupTimer {
 public:
  static constexpr double kSampleS = 0.05;
  static constexpr std::size_t kBatch = 4;

  explicit SetupTimer(const Workload& w)
      : w_(w), jobs_(cp::expand_jobs(w.sc)), factory_(probe_factory(w)) {
    once();  // warms the caches; not counted
    per_sample_ = static_cast<std::size_t>(
        std::clamp(kSampleS / std::max(once(), 1e-6), 1.0, 1000.0));
  }

  void batch() {
    for (std::size_t i = 0; i < kBatch; ++i) {
      double total = 0.0;
      for (std::size_t r = 0; r < per_sample_; ++r) total += once();
      samples_.push_back(total / static_cast<double>(per_sample_));
    }
  }

  double median_s() const { return median(samples_); }
  std::size_t samples() const { return samples_.size(); }

 private:
  double once() const {
    double total = 0.0;
    for (const cp::JobSpec& spec : jobs_) {
      std::unique_ptr<cp::JobProbe> probe = factory_ ? factory_(spec) : nullptr;
      const auto t0 = Clock::now();
      auto runner = std::make_unique<cp::JobRunner>(w_.sc, spec, w_.workers,
                                                    probe.get());
      total += seconds_since(t0);
      runner.reset();
    }
    return total;
  }

  const Workload& w_;
  const std::vector<cp::JobSpec> jobs_;
  const cp::ProbeFactory factory_;
  std::size_t per_sample_ = 1;
  std::vector<double> samples_;
};

void e2e_metrics(const Workload& w, const cp::CampaignReport& rep,
                 Metrics& m) {
  std::uint64_t rounds = 0, messages = 0;
  std::uint64_t issued = 0, completed = 0, p50 = 0, p99 = 0;
  std::vector<double> recovery;
  for (const cp::JobResult& r : rep.results) {
    rounds += r.setup_rounds + r.rounds;
    messages += r.messages;
    for (const auto& s : r.series) messages += s.kv_messages;
    for (const auto& e : r.events) {
      recovery.push_back(static_cast<double>(e.recovery_rounds));
    }
    if (r.workload_armed) {
      issued += r.wl_issued;
      completed += r.wl_completed;
      p50 = std::max(p50, r.wl_p50);
      p99 = std::max(p99, r.wl_p99);
    }
  }
  const bool serving = w.sc.workload_armed();
  m["sim_rounds"] = {static_cast<double>(rounds), "rounds"};
  m["messages"] = {static_cast<double>(messages), "count"};
  // A metric that does not apply to the workload reads 1: defined, never 0,
  // and inert under the regression gate. ops_ok_frac is one of them off
  // serve_zipf: check_report already fails the run for any job that did not
  // converge cleanly.
  m["recovery_rounds_p50"] = {recovery.empty() ? 1.0 : median(recovery),
                              "rounds"};
  m["kv_p50_rounds"] = {serving ? static_cast<double>(p50) : 1.0, "rounds"};
  m["kv_p99_rounds"] = {serving ? static_cast<double>(p99) : 1.0, "rounds"};
  m["ops_ok_frac"] = {serving ? ratio(static_cast<double>(completed),
                                      static_cast<double>(issued))
                              : 1.0,
                      "fraction"};
  std::printf("samples: %zu recovery episodes, %llu client ops, %zu jobs\n",
              recovery.size(), static_cast<unsigned long long>(issued),
              rep.results.size());
}

// --- traced replay (trace 1) -------------------------------------------------------

struct JobStats {
  std::uint64_t nodes_stepped = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t actions = 0;
  std::uint64_t stale_cert_drops = 0;
};

struct PersistStats {
  std::uint64_t full_count = 0, delta_count = 0;
  std::uint64_t full_bytes = 0, delta_bytes = 0;
};

struct TraceRun {
  Tracer tracer;
  cp::CampaignReport report;
  std::string json;
  std::int64_t wall_ns = 0;
  std::vector<JobStats> stats;
  std::vector<PersistStats> persist;  // per lane
  std::uint64_t file_writes = 0, file_bytes = 0;
  std::string write_error;  // last failed checkpoint write, "" = none

  explicit TraceRun(std::size_t lanes) : tracer(lanes), persist(lanes) {}
};

/// Replays run_campaign's per-job calls — construction, step() until done,
/// the checkpoint_every hook with its delta-versus-rebase chain rule and the
/// whole-file write_campaign_checkpoint, result() — with the same job
/// fan-out, timing each call into a layer as a span.
std::unique_ptr<TraceRun> traced_run(const Workload& w, std::size_t workers,
                                     const std::string& ckpt_path) {
  const cp::Scenario& sc = w.sc;
  const std::vector<cp::JobSpec> jobs = cp::expand_jobs(sc);
  const std::size_t k =
      std::min(std::max<std::size_t>(1, w.jobs),
               std::max<std::size_t>(1, jobs.size()));
  auto tr = std::make_unique<TraceRun>(k);
  Tracer& tracer = tr->tracer;
  std::vector<cp::JobResult> results(jobs.size());
  tr->stats.resize(jobs.size());
  const cp::ProbeFactory factory = probe_factory(w);
  const bool checkpointing = w.checkpoint_every > 0;

  // One mutex over the slots and the file, as in run_campaign: every flush
  // rewrites all jobs' slots. It also guards the file counters.
  std::mutex mu;
  std::vector<cp::JobCheckpoint> states(jobs.size());
  const auto flush = [&](Lane& lane, std::uint32_t job, auto&& mutate) {
    const auto wait = lane.open("persist.lock_wait", job);
    std::lock_guard<std::mutex> lock(mu);
    lane.close(wait);
    mutate(states[job]);
    const auto f = lane.open("persist.file", job);
    const auto s = cp::write_campaign_checkpoint(ckpt_path, sc, states);
    lane.close(f);
    if (!s.ok) {
      tr->write_error = s.error;
      return;
    }
    ++tr->file_writes;
    tr->file_bytes += fs::file_size(ckpt_path);
  };

  const auto run_one = [&](std::size_t lane_idx, std::size_t i) {
    Lane& lane = tracer.lane(lane_idx);
    PersistStats& ps = tr->persist[lane_idx];
    const auto job = static_cast<std::uint32_t>(i);
    const auto job_span = lane.open("campaign.job", job);
    std::unique_ptr<cp::JobProbe> probe = factory ? factory(jobs[i]) : nullptr;
    const auto c = lane.open("campaign.construct", job);
    auto runner =
        std::make_unique<cp::JobRunner>(sc, jobs[i], workers, probe.get());
    lane.close(c);
    chs::sim::RoundProfile prof;
    runner->set_profiler(&prof);

    std::uint64_t last_snapshot_round = runner->engine_round();
    constexpr std::size_t kMaxChain = 8;  // run_campaign's rebase rule
    std::size_t chain_len = 0;
    std::uint64_t base_bytes = 0, delta_bytes = 0;
    for (;;) {
      const chs::sim::RoundProfile before = prof;
      const auto s = lane.open(runner->in_timeline() ? "campaign.timeline_step"
                                                     : "campaign.setup_step",
                               job);
      const bool more = runner->step();
      lane.close(s);
      Span& sp = lane.at(s);
      for (std::size_t p = 0; p < chs::sim::kRoundPhases; ++p) {
        sp.phase_ns[p] = prof.ns[p] - before.ns[p];
      }
      if (!more) break;
      if (!checkpointing ||
          runner->engine_round() - last_snapshot_round < w.checkpoint_every) {
        continue;
      }
      last_snapshot_round = runner->engine_round();
      const bool delta_ok = runner->engine().has_checkpoint_base() &&
                            chain_len < kMaxChain &&
                            delta_bytes <= base_bytes / 2;
      if (delta_ok) {
        const auto d = lane.open("persist.delta", job);
        chs::persist::Writer wr(chs::persist::BlobKind::kJobDelta);
        runner->checkpoint_delta(wr);
        std::vector<std::uint8_t> blob = wr.take();
        lane.close(d);
        ++chain_len;
        delta_bytes += blob.size();
        ++ps.delta_count;
        ps.delta_bytes += blob.size();
        flush(lane, job, [&](cp::JobCheckpoint& jc) {
          jc.deltas.push_back(std::move(blob));
        });
      } else {
        const auto f = lane.open("persist.full", job);
        chs::persist::Writer wr(chs::persist::BlobKind::kJob);
        runner->checkpoint(wr);
        cp::JobCheckpoint jc;
        jc.state = cp::JobCheckpoint::State::kInProgress;
        jc.snapshot = wr.take();
        lane.close(f);
        chain_len = 0;
        delta_bytes = 0;
        base_bytes = jc.snapshot.size();
        ++ps.full_count;
        ps.full_bytes += base_bytes;
        flush(lane, job,
              [&](cp::JobCheckpoint& slot) { slot = std::move(jc); });
      }
    }
    const auto r = lane.open("campaign.result", job);
    results[i] = runner->result();
    lane.close(r);
    const auto& em = runner->engine().metrics();
    tr->stats[i] = {em.nodes_stepped(), em.snapshots_published(),
                    em.round_actions(), em.stale_cert_drops()};
    if (checkpointing) {
      flush(lane, job, [&](cp::JobCheckpoint& slot) {
        slot = cp::JobCheckpoint{};
        slot.state = cp::JobCheckpoint::State::kDone;
        slot.result = results[i];
      });
    }
    const auto t = lane.open("campaign.teardown", job);
    runner.reset();
    probe.reset();
    lane.close(t);
    lane.close(job_span);
  };

  std::atomic<std::size_t> next{0};
  const auto work = [&](std::size_t lane_idx) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      run_one(lane_idx, i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(k - 1);
  for (std::size_t t = 1; t < k; ++t) threads.emplace_back(work, t);
  work(0);
  for (std::thread& th : threads) th.join();

  // Lanes that ran out of jobs waited for the slowest one.
  Lane& main_lane = tracer.lane(0);
  const std::int64_t joined = main_lane.now_ns();
  for (std::size_t t = 0; t < k; ++t) {
    Lane& lane = tracer.lane(t);
    const std::int64_t last =
        lane.spans().empty() ? 0 : lane.spans().back().end_ns;
    lane.add("campaign.join_wait", kNoJob, last, joined);
  }
  const auto rs = main_lane.open("campaign.report");
  tr->report = cp::make_report(sc, std::move(results));
  tr->json = tr->report.to_json();
  main_lane.close(rs);
  tr->wall_ns = main_lane.now_ns();
  return tr;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void layer_metrics(const TraceRun& tr, const TraceRun* tr_1w, double wall_s,
                   Metrics& m) {
  const Tracer& t = tr.tracer;
  const Phases setup_ph = t.phase_sum("campaign.setup_step");
  const Phases tl_ph = t.phase_sum("campaign.timeline_step");
  Phases ph{};
  for (std::size_t p = 0; p < ph.size(); ++p) ph[p] = setup_ph[p] + tl_ph[p];
  std::uint64_t tl_phases = 0;
  for (std::uint64_t ns : tl_ph) tl_phases += ns;
  const std::uint64_t tl_ns = t.sum_ns("campaign.timeline_step");
  const std::uint64_t runner_self_ns = tl_ns > tl_phases ? tl_ns - tl_phases : 0;
  const std::vector<std::int64_t> rounds = t.durations("campaign.timeline_step");

  m["campaign.construct_ms"] = {ms(t.sum_ns("campaign.construct")), "ms"};
  m["campaign.setup_step_ms"] = {ms(t.sum_ns("campaign.setup_step")), "ms"};
  m["campaign.timeline_step_ms"] = {ms(tl_ns), "ms"};
  m["campaign.round_us_p50"] = {percentile_us(rounds, 0.50), "us"};
  m["campaign.round_us_p99"] = {percentile_us(rounds, 0.99), "us"};
  m["campaign.round_samples"] = {static_cast<double>(rounds.size()), "count"};
  m["campaign.runner_self_ms"] = {ms(runner_self_ns), "ms"};
  m["campaign.result_ms"] = {ms(t.sum_ns("campaign.result")), "ms"};
  m["campaign.teardown_ms"] = {ms(t.sum_ns("campaign.teardown")), "ms"};
  m["campaign.join_wait_ms"] = {ms(t.sum_ns("campaign.join_wait")), "ms"};
  m["campaign.report_ms"] = {ms(t.sum_ns("campaign.report")), "ms"};
  m["campaign.unattributed_frac"] = {t.uncovered_frac(tr.wall_ns), "fraction"};
  const double traced_s = static_cast<double>(tr.wall_ns) / 1e9;
  m["campaign.trace_overhead_frac"] = {ratio(traced_s - wall_s, wall_s),
                                       "fraction"};

  using chs::sim::RoundPhase;
  const auto at = [](const Phases& p, RoundPhase r) {
    return p[static_cast<std::size_t>(r)];
  };
  const auto serial = [&](const Phases& p) {
    return at(p, RoundPhase::kScan) + at(p, RoundPhase::kApply) +
           at(p, RoundPhase::kObserver);
  };
  const auto total = [](const Phases& p) {
    std::uint64_t s = 0;
    for (std::uint64_t ns : p) s += ns;
    return s;
  };
  for (std::size_t p = 0; p < ph.size(); ++p) {
    m[std::string("sim.") +
      chs::sim::round_phase_name(static_cast<RoundPhase>(p)) + "_ms"] = {
        ms(ph[p]), "ms"};
  }
  m["sim.serial_frac"] = {
      ratio(static_cast<double>(serial(ph)), static_cast<double>(total(ph))),
      "fraction"};
  // Multi-core record: the same campaign traced at one engine worker. When
  // the timed count is one worker the two runs are the same run.
  Phases ph1 = ph;
  if (tr_1w) {
    const Phases a = tr_1w->tracer.phase_sum("campaign.setup_step");
    const Phases b = tr_1w->tracer.phase_sum("campaign.timeline_step");
    for (std::size_t p = 0; p < ph1.size(); ++p) ph1[p] = a[p] + b[p];
  }
  const auto speedup = [](std::uint64_t one, std::uint64_t many) {
    return ratio(static_cast<double>(one), static_cast<double>(many));
  };
  m["sim.step_speedup"] = {speedup(at(ph1, RoundPhase::kStep),
                                   at(ph, RoundPhase::kStep)),
                           "x"};
  m["sim.publish_speedup"] = {speedup(at(ph1, RoundPhase::kPublish),
                                      at(ph, RoundPhase::kPublish)),
                              "x"};
  m["sim.serial_speedup"] = {speedup(serial(ph1), serial(ph)), "x"};
  m["sim.engine_speedup"] = {speedup(total(ph1), total(ph)), "x"};
  m["sim.serial_frac_1w"] = {
      ratio(static_cast<double>(serial(ph1)), static_cast<double>(total(ph1))),
      "fraction"};

  JobStats js;
  for (const JobStats& s : tr.stats) {
    js.nodes_stepped += s.nodes_stepped;
    js.snapshots += s.snapshots;
    js.actions += s.actions;
    js.stale_cert_drops += s.stale_cert_drops;
  }
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["sim.nodes_stepped"] = {d(js.nodes_stepped), "count"};
  m["sim.snapshots_published"] = {d(js.snapshots), "count"};
  m["sim.round_actions"] = {d(js.actions), "count"};
  m["sim.useful_step_frac"] = {ratio(d(js.actions), d(js.nodes_stepped)),
                               "fraction"};

  cp::JobResult sum;
  std::uint64_t kv_messages = 0;
  for (const cp::JobResult& r : tr.report.results) {
    sum.resets += r.resets;
    sum.edge_adds += r.edge_adds;
    sum.edge_dels += r.edge_dels;
    sum.peak_degree = std::max(sum.peak_degree, r.peak_degree);
    sum.messages_dropped += r.messages_dropped;
    sum.wl_issued += r.wl_issued;
    sum.wl_completed += r.wl_completed;
    sum.wl_timeouts += r.wl_timeouts;
    sum.wl_retries += r.wl_retries;
    sum.wl_drops += r.wl_drops;
    sum.wl_peak_inflight = std::max(sum.wl_peak_inflight, r.wl_peak_inflight);
    sum.oracle_rounds_checked += r.oracle_rounds_checked;
    sum.contained_violations += r.contained_violations;
    for (const auto& s : r.series) kv_messages += s.kv_messages;
  }
  m["stabilizer.resets"] = {d(sum.resets), "count"};
  m["stabilizer.edge_adds"] = {d(sum.edge_adds), "count"};
  m["stabilizer.edge_dels"] = {d(sum.edge_dels), "count"};
  m["stabilizer.stale_cert_drops"] = {d(js.stale_cert_drops), "count"};
  m["stabilizer.peak_degree"] = {d(sum.peak_degree), "count"};

  m["dht.issued"] = {d(sum.wl_issued), "count"};
  m["dht.completed"] = {d(sum.wl_completed), "count"};
  m["dht.timeouts"] = {d(sum.wl_timeouts), "count"};
  m["dht.retries"] = {d(sum.wl_retries), "count"};
  m["dht.drops"] = {d(sum.wl_drops), "count"};
  m["dht.peak_inflight"] = {d(sum.wl_peak_inflight), "count"};
  m["dht.kv_messages"] = {d(kv_messages), "count"};
  m["dht.retry_frac"] = {ratio(d(sum.wl_retries), d(sum.wl_issued)),
                         "fraction"};
  m["dht.us_per_op"] = {ratio(d(runner_self_ns) / 1e3, d(sum.wl_issued)),
                        "us"};

  m["verify.rounds_checked"] = {d(sum.oracle_rounds_checked), "count"};
  m["verify.contained_violations"] = {d(sum.contained_violations), "count"};

  PersistStats ps;
  for (const PersistStats& p : tr.persist) {
    ps.full_count += p.full_count;
    ps.delta_count += p.delta_count;
    ps.full_bytes += p.full_bytes;
    ps.delta_bytes += p.delta_bytes;
  }
  m["persist.full_ms"] = {ms(t.sum_ns("persist.full")), "ms"};
  m["persist.delta_ms"] = {ms(t.sum_ns("persist.delta")), "ms"};
  m["persist.file_ms"] = {ms(t.sum_ns("persist.file")), "ms"};
  m["persist.lock_wait_ms"] = {ms(t.sum_ns("persist.lock_wait")), "ms"};
  m["persist.full_count"] = {d(ps.full_count), "count"};
  m["persist.delta_count"] = {d(ps.delta_count), "count"};
  m["persist.file_writes"] = {d(tr.file_writes), "count"};
  m["persist.full_bytes"] = {d(ps.full_bytes), "bytes"};
  m["persist.delta_bytes"] = {d(ps.delta_bytes), "bytes"};
  m["persist.file_bytes"] = {d(tr.file_bytes), "bytes"};

  m["adversary.messages_dropped"] = {d(sum.messages_dropped), "count"};
}

// --- output ---------------------------------------------------------------------

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& m) {
  for (const auto& [name, x] : m) {
    std::printf("  %-30s %18s %s\n", name.c_str(), fmt_num(x.value).c_str(),
                x.unit.c_str());
  }
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, x] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + fmt_num(x.value) +
           ", \"unit\": \"" + x.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      return false;
    }
    if (end && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 &&
         a.seed < (1ULL << 40) && (a.trace == 0 || a.trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cold_start|serve_zipf|"
                 "adversary_soak --seed N --seconds S --trace 0|1 "
                 "[--commit ID]\n");
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const std::optional<Workload> wl = make_workload(a.workload, a.seed);
  if (!wl) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const Workload& w = *wl;
  chs::util::set_log_level(chs::util::LogLevel::kError);
  const std::string out_dir = ".bench_build";
  fs::create_directories(out_dir);
  const std::string stem =
      out_dir + "/" + a.workload + "_seed" + std::to_string(a.seed);
  const std::string ckpt = stem + ".ckpt";

  double load[1] = {0.0};
  getloadavg(load, 1);
  std::printf("perfbench %s seed=%llu trace=%d: %zu jobs, %zu job threads x "
              "%zu engine workers | nproc=%u loadavg=%.2f compiler=\"%s\" "
              "build=%s commit=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace, w.sc.num_jobs(), w.jobs, w.workers,
              std::thread::hardware_concurrency(), load[0], __VERSION__,
              PERFBENCH_BUILD_TYPE, a.commit.c_str());

  std::vector<std::string> problems;
  std::uint64_t attempted = 0, failed = 0;
  Metrics m;
  const auto run_timed = [&](std::size_t workers, double& wall_s,
                             std::uint64_t halt_after = 0) {
    fs::remove(ckpt);
    cp::RunOptions o = run_options(w, workers, ckpt);
    o.halt_after_checkpoints = halt_after;
    const auto t0 = Clock::now();
    cp::CampaignReport rep = cp::run_campaign(w.sc, o);
    wall_s = seconds_since(t0);
    attempted += w.sc.num_jobs();
    failed += check_report(w, rep, problems);
    return rep;
  };

  if (a.trace == 0) {
    SetupTimer setup(w);
    std::vector<double> walls;
    cp::CampaignReport first;
    std::string first_json;
    const auto t_begin = Clock::now();
    // Repeat until --seconds are spent, but at least three times, so the
    // median shrugs off one repetition that contention from outside the
    // process slowed down.
    do {
      setup.batch();
      double wall = 0;
      const double cpu0 = cpu_seconds();
      cp::CampaignReport rep = run_timed(w.workers, wall);
      // CPU time next to wall time tells contention from a slower program.
      std::printf("repetition %zu: wall %.3f s, cpu %.3f s\n",
                  walls.size() + 1, wall, cpu_seconds() - cpu0);
      walls.push_back(wall);
      const std::string json = rep.to_json();
      if (walls.size() == 1) {
        first = std::move(rep);
        first_json = json;
      } else if (json != first_json) {
        problems.push_back("report bytes differ between repetitions");
        ++failed;
      }
    } while (walls.size() < 3 ||
             (walls.size() < 100 &&
              seconds_since(t_begin) + median(walls) <= a.seconds));
    setup.batch();
    std::printf("wall_s: median of %zu repetitions; setup_s: median of %zu "
                "samples\n", walls.size(), setup.samples());
    m["wall_s"] = {median(walls), "s"};
    m["setup_s"] = {setup.median_s(), "s"};
    e2e_metrics(w, first, m);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"};
  } else {
    const bool checkpointing = w.checkpoint_every > 0;
    const auto traced = [&](std::size_t workers) {
      fs::remove(ckpt);
      std::unique_ptr<TraceRun> tr = traced_run(w, workers, ckpt);
      attempted += w.sc.num_jobs();
      failed += check_report(w, tr->report, problems);
      if (!tr->write_error.empty()) {
        problems.push_back("checkpoint write: " + tr->write_error);
        ++failed;
      }
      return tr;
    };
    const std::unique_ptr<TraceRun> tr = traced(w.workers);
    std::unique_ptr<TraceRun> tr_1w;
    if (w.workers > 1) tr_1w = traced(1);

    // The reference is a plain run_campaign call. With a checkpoint file it
    // is told to halt one write past the replay's count, so check_report
    // fails it if run_campaign writes more often than the replay does.
    double wall_s = 0;
    const cp::CampaignReport ref_rep =
        run_timed(w.workers, wall_s, checkpointing ? tr->file_writes + 1 : 0);
    if (ref_rep.halted) {
      problems.push_back("run_campaign wrote more checkpoints than the "
                         "traced replay");
      ++failed;
    }
    const std::string ref = ref_rep.to_json();
    for (const TraceRun* t : {tr.get(), tr_1w.get()}) {
      if (t && t->json != ref) {
        problems.push_back("traced report bytes differ from the timed run (" +
                           std::string(t == tr.get() ? "timed" : "1") +
                           " engine workers)");
        ++failed;
      }
    }

    if (checkpointing) {
      // ...and told to halt at the replay's count, it must halt: the
      // replay's checkpoint policy is run_campaign's.
      fs::remove(ckpt);
      cp::RunOptions o = run_options(w, w.workers, ckpt);
      o.halt_after_checkpoints = tr->file_writes;
      if (!cp::run_campaign(w.sc, o).halted) {
        problems.push_back("run_campaign wrote fewer checkpoints than the "
                           "traced replay");
        ++failed;
      }
      // Resume check: halt after half the checkpoint writes, resume, and
      // require the uninterrupted run's report bytes.
      fs::remove(ckpt);
      o.halt_after_checkpoints = std::max<std::uint64_t>(1, tr->file_writes / 2);
      const bool halted = cp::run_campaign(w.sc, o).halted;
      const std::string resumed_ckpt = stem + ".resumed.ckpt";
      fs::remove(resumed_ckpt);
      o = run_options(w, w.workers, resumed_ckpt);
      o.resume_path = ckpt;
      const cp::CampaignReport rep = cp::run_campaign(w.sc, o);
      attempted += w.sc.num_jobs();
      failed += check_report(w, rep, problems);
      if (!halted || rep.to_json() != ref) {
        problems.push_back("halt-and-resume report differs from the "
                           "uninterrupted run");
        ++failed;
      }
      fs::remove(resumed_ckpt);
    }
    const std::string trace_path = stem + ".trace.json";
    std::ofstream(trace_path) << tr->tracer.to_chrome_json();
    if (tr_1w) {
      std::ofstream(stem + ".1w.trace.json") << tr_1w->tracer.to_chrome_json();
    }
    std::printf("trace: %s\n", trace_path.c_str());
    layer_metrics(*tr, tr_1w.get(), wall_s, m);
  }
  fs::remove(ckpt);

  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  }
  const bool correct = problems.empty();
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}
