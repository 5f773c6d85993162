// perfbench_replay — per-layer attribution for the benchmark's traced run.
//
// Replays the benchmark's generated request lines in-process through each
// src/ module's public functions and times every layer from the outside
// (std::chrono::steady_clock around the call). Nothing in src/ is changed
// or instrumented for it; the only in-library signal read is the existing
// obs counters and the qbd.solve.* / analysis.cscq.analyze spans.
//
//   perfbench_replay --cold FILE --hot FILE --hot-configs N --journal PATH
//                    --threads N [--overhead cold|hot|none]
//
// --cold holds distinct analyze lines (serve-cold), --hot the hot configs
// once each followed by the ping/analyze stream (serve-hot-journaled).
// --threads is the cli-panel thread count the parallel layers run at.
// Prints one JSON object of metrics (times in microseconds unless the name
// says otherwise) on stdout.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/cscq.h"
#include "core/solver.h"
#include "core/sweep.h"
#include "dist/moment_match.h"
#include "durable/journal.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/task_pool.h"
#include "qbd/qbd.h"
#include "serve/cache.h"
#include "serve/request.h"
#include "serve/server.h"
#include "sim/simulator.h"
#include "transforms/busy_period.h"

namespace {

using namespace csq;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kHotSamples = 4000;   // hot-stream lines replayed
constexpr std::size_t kColdSamples = 2000;  // cold analyze lines replayed

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// Nearest-rank percentile of an unsorted sample (q in (0, 1]): the
// smallest value with at least a share q of the sample at or below it, the
// rule of checks.percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
double median(const std::vector<double>& v) { return percentile(v, 0.5); }

std::vector<std::string> read_lines(const std::string& path, std::size_t limit) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> out;
  for (std::string l; out.size() < limit && std::getline(in, l);) out.push_back(l);
  return out;
}

struct Options {
  std::string cold;
  std::string hot;
  std::string journal;
  std::size_t hot_configs = 64;
  int threads = 0;
  std::string overhead = "none";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--cold") o.cold = v;
    else if (k == "--hot") o.hot = v;
    else if (k == "--journal") o.journal = v;
    else if (k == "--hot-configs") o.hot_configs = std::stoul(v);
    else if (k == "--threads") o.threads = std::stoi(v);
    else if (k == "--overhead") o.overhead = v;
    else throw std::runtime_error("unknown flag " + k);
  }
  if (o.cold.empty() || o.hot.empty() || o.journal.empty() || o.threads < 1)
    throw std::runtime_error("--cold, --hot, --journal and --threads are required");
  return o;
}

class Metrics {
 public:
  void put(const std::string& name, double v) { values_.emplace_back(name, v); }
  void print() const {
    std::printf("{");
    for (std::size_t i = 0; i < values_.size(); ++i)
      std::printf("%s\"%s\":%.17g", i ? "," : "", values_[i].first.c_str(), values_[i].second);
    std::printf("}\n");
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

std::int64_t counter(const char* name) { return obs::Registry::instance().counter_value(name); }

// Run fn on a fresh thread, so its per-thread fit memo starts empty as it
// does for a serve-cold request, and rethrow whatever fn threw.
void on_fresh_thread(const std::function<void()>& fn) {
  std::exception_ptr error;
  std::thread t([&]() {
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
  });
  t.join();
  if (error) std::rethrow_exception(error);
}

// serve.* layers on the hot stream, plus the cache miss path on cold lines.
void serve_layers(const Options& o, const std::vector<std::string>& hot,
                  const std::vector<std::string>& cold, Metrics* out) {
  std::vector<serve::Request> reqs;
  std::vector<double> parse_us;
  for (const std::string& line : hot) {
    const auto t0 = Clock::now();
    serve::Request r = serve::parse_request(line);
    parse_us.push_back(us_since(t0));
    reqs.push_back(std::move(r));
  }
  out->put("serve.parse_us", median(parse_us));

  // Verified answers of the hot configs: the values a warm cache holds.
  serve::SolverCache cache(256);
  qbd::Workspace ws;
  for (std::size_t i = 0; i < o.hot_configs && i < reqs.size(); ++i) {
    const serve::Request& r = reqs[i];
    cache.insert(r.cache_key(), analyze(r.policy, r.config(), 3, r.verify, {}, &ws));
  }
  std::vector<double> encode_us;
  std::vector<double> lookup_us;
  for (const serve::Request& r : reqs) {
    if (r.op != serve::OpKind::kAnalyze) continue;
    auto t0 = Clock::now();
    const std::string key = r.cache_key();
    const std::optional<PolicyMetrics> hit = cache.lookup(key);
    lookup_us.push_back(us_since(t0));
    if (!hit.has_value()) throw std::runtime_error("hot config missed the warm cache");
    t0 = Clock::now();
    const std::string resp = serve::ok_response(r, serve::metrics_json(*hit));
    encode_us.push_back(us_since(t0));
  }
  out->put("serve.encode_us", median(encode_us));
  out->put("serve.cache_lookup_us", median(lookup_us));

  std::vector<double> miss_us;
  for (const std::string& line : cold) {
    const serve::Request r = serve::parse_request(line);
    const auto t0 = Clock::now();
    const std::string key = r.cache_key();
    const std::optional<PolicyMetrics> hit = cache.lookup(key);
    miss_us.push_back(us_since(t0));
    if (hit.has_value()) throw std::runtime_error("cold config hit the cache");
  }
  out->put("serve.cache_lookup_miss_us", median(miss_us));

  // Server::submit with a journal attached (workers = 0, so submit only
  // parses, admits and write-aheads; execution runs untimed after it).
  {
    unlink(o.journal.c_str());
    durable::Journal journal = durable::Journal::open(o.journal, {});
    serve::ServerOptions so;
    so.workers = 0;
    so.journal = &journal;
    serve::Server server(so);
    std::vector<double> submit_us;
    for (const std::string& line : hot) {
      const auto t0 = Clock::now();
      const std::shared_ptr<serve::Ticket> t = server.submit(line);
      submit_us.push_back(us_since(t0));
      while (server.process_one()) {
      }
    }
    server.drain();
    journal.close();
    unlink(o.journal.c_str());
    out->put("serve.submit_us", median(submit_us));
  }

  // Worker handoff: submit -> Ticket::wait at workers = 2 and the same line
  // executed inline by call() at workers = 0, both with warm caches. The
  // handoff cost is their difference, which run.py prints.
  std::vector<std::string> responses;
  {
    serve::ServerOptions inline_opts;
    inline_opts.workers = 0;
    serve::Server inline_server(inline_opts);
    serve::ServerOptions pool_opts;
    pool_opts.workers = 2;
    serve::Server pool_server(pool_opts);
    for (std::size_t i = 0; i < o.hot_configs && i < hot.size(); ++i) {
      (void)inline_server.call(hot[i]);
      (void)pool_server.call(hot[i]);
    }
    std::vector<double> inline_us;
    std::vector<double> pool_us;
    for (const std::string& line : hot) {
      auto t0 = Clock::now();
      responses.push_back(inline_server.call(line));
      inline_us.push_back(us_since(t0));
      t0 = Clock::now();
      const std::shared_ptr<serve::Ticket> t = pool_server.submit(line);
      (void)t->wait();
      pool_us.push_back(us_since(t0));
    }
    out->put("serve.pool_call_us", median(pool_us));
    out->put("serve.inline_call_us", median(inline_us));
  }

  // Journal append wall time (request + response record) at the default
  // fsync batching; the p99 carries the batched fsync.
  {
    unlink(o.journal.c_str());
    durable::Journal journal = durable::Journal::open(o.journal, {});
    std::vector<double> append_us;
    for (std::size_t i = 0; i < hot.size(); ++i) {
      const auto t0 = Clock::now();
      const std::uint64_t seq = journal.append_request(hot[i]);
      journal.append_response(seq, responses[i]);
      append_us.push_back(us_since(t0));
    }
    journal.close();
    unlink(o.journal.c_str());
    out->put("durable.append_p50_us", percentile(append_us, 0.5));
    out->put("durable.append_p99_us", percentile(append_us, 0.99));
  }
}

// analysis / dist / transforms / qbd layers on the cold lines.
void analysis_layers(const std::vector<std::string>& cold, Metrics* out) {
  std::map<std::string, std::vector<double>> by_policy;
  std::vector<SystemConfig> cscq_configs;
  std::vector<PolicyMetrics> cscq_metrics;
  qbd::Workspace ws;
  for (const std::string& line : cold) {
    const serve::Request r = serve::parse_request(line);
    const SystemConfig cfg = r.config();
    const auto t0 = Clock::now();
    const PolicyMetrics m = analyze(r.policy, cfg, 3, r.verify, {}, &ws);
    by_policy[policy_label(r.policy)].push_back(us_since(t0));
    if (r.policy == Policy::kCsCq) {
      cscq_configs.push_back(cfg);
      cscq_metrics.push_back(m);
    }
  }
  out->put("analysis.analyze_us.cscq", median(by_policy[policy_label(Policy::kCsCq)]));
  out->put("analysis.analyze_us.csid", median(by_policy[policy_label(Policy::kCsId)]));
  out->put("analysis.analyze_us.dedicated",
           median(by_policy[policy_label(Policy::kDedicated)]));

  // Stage spans of the CS-CQ analyses: per analysis, the fi / spectral /
  // boundary span time and the union of all qbd.solve.* spans.
  std::vector<double> fi_us;
  std::vector<double> spectral_us;
  std::vector<double> boundary_us;
  std::vector<double> qbd_us;
  std::vector<double> analyze_span_us;
  obs::clear_trace();
  obs::set_tracing(true);
  on_fresh_thread([&]() {
    analysis::CscqOptions copts;
    qbd::Workspace tws;
    copts.workspace = &tws;
    for (const SystemConfig& cfg : cscq_configs) (void)analysis::analyze_cscq(cfg, copts);
  });
  obs::set_tracing(false);
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  if (obs::trace_dropped() > 0) throw std::runtime_error("trace buffer overflowed");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& a = events[i];
    if (a.name != "analysis.cscq.analyze") continue;
    const std::int64_t end = a.start_ns + a.dur_ns;
    double fi = 0.0;
    double spectral = 0.0;
    double boundary = 0.0;
    std::int64_t covered = 0;
    std::int64_t cover_end = a.start_ns;
    for (std::size_t j = i + 1; j < events.size() && events[j].start_ns < end; ++j) {
      const obs::TraceEvent& e = events[j];
      if (e.tid != a.tid || e.name.rfind("qbd.solve.", 0) != 0) continue;
      const double us = static_cast<double>(e.dur_ns) * 1e-3;
      if (e.name == "qbd.solve.spectral") spectral += us;
      else if (e.name == "qbd.solve.boundary") boundary += us;
      else fi += us;  // fi, and the relaxed / logred fallbacks that replace it
      const std::int64_t s = std::max(e.start_ns, cover_end);
      const std::int64_t f = e.start_ns + e.dur_ns;
      if (f > s) covered += f - s;
      cover_end = std::max(cover_end, f);
    }
    fi_us.push_back(fi);
    spectral_us.push_back(spectral);
    boundary_us.push_back(boundary);
    qbd_us.push_back(static_cast<double>(covered) * 1e-3);
    analyze_span_us.push_back(static_cast<double>(a.dur_ns) * 1e-3);
  }
  obs::clear_trace();
  out->put("qbd.fi_us", median(fi_us));
  out->put("qbd.spectral_us", median(spectral_us));
  out->put("qbd.boundary_us", median(boundary_us));

  // Busy-period transforms and the two phase-type fits one CS-CQ analysis
  // runs.
  std::vector<double> transform_us;
  std::vector<double> fit_us;
  std::vector<double> verify_us;
  on_fresh_thread([&]() {
    for (std::size_t i = 0; i < cscq_configs.size(); ++i) {
      const SystemConfig& cfg = cscq_configs[i];
      const dist::Moments xl = cfg.long_size->moments();
      const double mu_s = 1.0 / cfg.short_size->mean();
      auto t0 = Clock::now();
      const dist::Moments single = transforms::mg1_busy_period(xl, cfg.lambda_long);
      const dist::Moments batch =
          transforms::batch_busy_period(xl, cfg.lambda_long, 2.0 * mu_s);
      transform_us.push_back(us_since(t0));
      t0 = Clock::now();
      const dist::PhaseType a = dist::fit_ph(single, 3);
      const dist::PhaseType b = dist::fit_ph(batch, 3);
      fit_us.push_back(us_since(t0));
      if (a.num_phases() == 0 || b.num_phases() == 0) throw std::runtime_error("empty fit");
      t0 = Clock::now();
      const SolverStatus st = verify_metrics(cscq_metrics[i], cfg, VerifyLevel::kBasic);
      verify_us.push_back(us_since(t0));
      if (!st.ok()) throw std::runtime_error("verify_metrics rejected a served answer");
    }
  });
  out->put("dist.fit_us", median(fit_us));
  out->put("transforms.busy_period_us", median(transform_us));
  out->put("analysis.verify_us", median(verify_us));
  const double attributed =
      median(fit_us) + median(transform_us) + median(qbd_us) + median(verify_us);
  out->put("analysis.unattributed_share", 1.0 - attributed / median(analyze_span_us));
}

// parallel / sweep / sim layers of the cli-panel workload.
void cli_layers(int threads, Metrics* out) {
  const std::vector<double> grid = fig_grid_rho_short();
  std::vector<double> t1_ms;
  std::vector<double> t4_ms;
  for (int rep = 0; rep < 15; ++rep) {
    for (const int n : {1, threads}) {
      SweepOptions so;
      so.threads = n;
      const auto t0 = Clock::now();
      const std::vector<SweepRow> rows = sweep_rho_short(0.5, 1.0, 1.0, 1.0, grid, so);
      (n == 1 ? t1_ms : t4_ms).push_back(us_since(t0) * 1e-3);
      if (rows.size() != grid.size()) throw std::runtime_error("short sweep");
    }
  }
  out->put("sweep.figure_ms.t1", median(t1_ms));
  out->put("sweep.figure_ms.t4", median(t4_ms));
  out->put("parallel.speedup_fine", median(t1_ms) / median(t4_ms));

  // Eight equal replications of one panel cell.
  const SystemConfig cell = panel_workload(JobSizeDist::kBPareto, 0.9, 0.5, 1.0, 1.0, 4.0);
  sim::SimOptions sopts;
  sopts.total_completions = 200000;
  std::vector<double> r1_ms;
  std::vector<double> r4_ms;
  for (int rep = 0; rep < 5; ++rep) {
    for (const int n : {1, threads}) {
      sim::ReplicationOptions ro;
      ro.replications = 8;
      ro.threads = n;
      ro.target_rel_ci = 0.0;
      const auto t0 = Clock::now();
      const sim::ReplicatedResult r =
          sim::simulate_replications(sim::PolicyKind::kStealHalf, cell, sopts, ro);
      (n == 1 ? r1_ms : r4_ms).push_back(us_since(t0) * 1e-3);
      if (r.replications.size() != 8) throw std::runtime_error("replication count");
    }
  }
  out->put("parallel.speedup_coarse", median(r1_ms) / median(r4_ms));

  // Pool dispatch cost: empty tasks at the pool's thread count.
  std::vector<double> dispatch_us;
  const std::size_t n = 20000;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    par::parallel_for(n, threads, [](std::size_t) {});
    dispatch_us.push_back(us_since(t0) / static_cast<double>(n));
  }
  out->put("parallel.dispatch_us", median(dispatch_us));

  // Simulator event rate on the same cell.
  std::vector<double> rate;
  for (int rep = 0; rep < 3; ++rep) {
    sim::SimOptions one;
    one.total_completions = 200000;
    const std::int64_t before = counter("sim.engine.events");
    const auto t0 = Clock::now();
    const sim::SimResult r = sim::simulate(sim::PolicyKind::kStealHalf, cell, one);
    const double secs = us_since(t0) * 1e-6;
    if (r.completions_total == 0) throw std::runtime_error("empty simulation");
    rate.push_back(static_cast<double>(counter("sim.engine.events") - before) / secs);
  }
  out->put("sim.events_per_s", median(rate));
}

// Tracing cost on one serve workload: the same lines through call() at
// workers = 0, tracing on against off, alternating; median of the ratios.
double serve_trace_overhead(const std::vector<std::string>& lines) {
  std::vector<double> ratios;
  for (int rep = 0; rep < 5; ++rep) {
    double secs[2] = {0.0, 0.0};
    for (const bool traced : {false, true}) {
      serve::ServerOptions so;
      so.workers = 0;
      serve::Server server(so);
      obs::clear_trace();
      obs::set_tracing(traced);
      const auto t0 = Clock::now();
      for (const std::string& line : lines) (void)server.call(line);
      secs[traced ? 1 : 0] = us_since(t0);
      obs::set_tracing(false);
    }
    ratios.push_back(secs[1] / secs[0]);
  }
  obs::clear_trace();
  return median(ratios);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const std::vector<std::string> hot = read_lines(o.hot, o.hot_configs + kHotSamples);
    const std::vector<std::string> cold = read_lines(o.cold, kColdSamples);
    Metrics m;
    serve_layers(o, hot, cold, &m);
    analysis_layers(cold, &m);
    cli_layers(o.threads, &m);
    if (o.overhead == "cold") m.put("trace.overhead_ratio", serve_trace_overhead(cold));
    if (o.overhead == "hot") m.put("trace.overhead_ratio", serve_trace_overhead(hot));
    m.print();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_replay: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
