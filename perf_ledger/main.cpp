// perf_ledger/main.cpp — the paxsim performance ledger.
//
//   perf_ledger --workload W --seed N --seconds S --trace 0|1
//               [--golden FILE] [--out-dir DIR] [--record-golden]
//
// --trace 0 measures the end-to-end metrics: set-up time, then timed
// repetitions of the workload, each on fresh engines and a fresh store, for
// as long as the next one should still end within S seconds.  --trace 1 runs
// the fixed-pattern probes, then
// alternates untraced and traced repetitions and reports the per-layer
// metrics; its spans are written to DIR as one JSON file.  Both modes check
// every simulated result (numeric verification, repeat-to-repeat digests,
// the committed golden digests at seed 0, a fast-vs-reference class-S cell)
// and print, as the last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 only when nothing failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "ledger.hpp"

namespace fs = std::filesystem;
using namespace ledger;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string golden = "perf_ledger/golden.tsv";
  std::string out_dir = ".bench_build/perf_ledger/out";
  bool record_golden = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--record-golden") {
      a.record_golden = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (f == "--workload") a.workload = v;
      else if (f == "--seed") a.seed = std::stoull(v);
      else if (f == "--seconds") a.seconds = std::stod(v);
      else if (f == "--trace") a.trace = std::stoi(v) != 0;
      else if (f == "--golden") a.golden = v;
      else if (f == "--out-dir") a.out_dir = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- golden digests -----------------------------------------------------------
// One line per cell: "<workload>\t<label>\t<digest>".

using Golden = std::map<std::string, std::map<std::string, std::string>>;

Golden read_golden(const std::string& path) {
  Golden g;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto a = line.find('\t');
    const auto b = line.rfind('\t');
    if (line.empty() || line[0] == '#' || a == std::string::npos || a == b) continue;
    g[line.substr(0, a)][line.substr(a + 1, b - a - 1)] = line.substr(b + 1);
  }
  return g;
}

void write_golden(const std::string& path, const Golden& g) {
  std::ofstream out(path);
  out << "# perf_ledger golden digests: workload seed 0 (RunOptions::base_seed "
         "314159265).\n# Regenerate with: python3 perf_ledger/run.py "
         "--record-golden\n";
  for (const auto& [w, cells] : g) {
    for (const auto& [label, d] : cells) out << w << '\t' << label << '\t' << d << '\n';
  }
}

// ---- fast-vs-reference class-S cross-check -------------------------------------

/// Runs the workload's class-S check cell on a machine of the given path.
harness::RunResult xcheck_run(const Workload& w, std::uint64_t base_seed,
                              bool fast_path, std::string* label) {
  const CheckCell& cell = w.check_cell();
  const harness::RunOptions o =
      paxville_options(npb::ProblemClass::kClassS, cell.scale, base_seed);
  const std::vector<harness::StudyConfig> cfgs = harness::configs_for(*o.topology);
  const int i = harness::find_config_index(cfgs, cell.config);
  if (i < 0) throw std::runtime_error("unknown configuration " + cell.config);
  sim::MachineParams p = o.machine_params();
  p.fast_path = fast_path;
  sim::Machine m(p);
  *label = "xcheck|" + std::string(npb::benchmark_name(cell.bench)) + "|" +
           cell.config + "|S|x" + std::to_string(cell.scale) + "|s" +
           std::to_string(o.trial_seed(0));
  return harness::run_single(m, cell.bench, cfgs[static_cast<std::size_t>(i)], o,
                             o.trial_seed(0));
}

// ---- span analysis -------------------------------------------------------------

std::string layer_of(const std::string& span) {
  return span.substr(0, span.find('.'));
}

/// Per-layer figures of one traced repetition.
struct SpanStats {
  std::map<std::string, double> self_s;  ///< layer -> self seconds
  double worker_s = 0;                   ///< worker-seconds of the rep
  double covered_s = 0;                  ///< worker-seconds in layer spans
  double idle_s = 0;                     ///< workers waiting in the window
  double npb_s = 0;
};

SpanStats analyse(const std::vector<Span>& spans, int workers) {
  SpanStats st;
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  // The window: harness.run, whose cells run unspanned on the engine's
  // worker pool, or else the whole repetition on one thread.
  const Span* rep = nullptr;
  const Span* run = nullptr;
  std::map<int, std::pair<double, double>> calls;  // thread -> first, last
  for (const Span& s : spans) {
    const double dur = s.end - s.start;
    if (s.name == "harness.run") {
      // The cells' simulation is sim's; the calling thread's wait for the
      // batch is no layer's work.
      run = &s;
      st.self_s["sim"] += s.sim_s;
      st.covered_s += s.sim_s;
      continue;
    }
    const double self = dur - child[static_cast<std::size_t>(s.id)] - s.sim_s;
    st.self_s[layer_of(s.name)] += self;
    if (s.sim_s > 0) st.self_s["sim"] += s.sim_s;
    if (s.name == "bench.rep") {
      if (rep == nullptr) rep = &s;
    } else {
      st.covered_s += self + s.sim_s;
    }
    if (s.name == "harness.single" || s.name == "model.profile" ||
        s.name == "tune.tune") {
      auto [it, fresh] = calls.emplace(s.thread, std::make_pair(s.start, s.end));
      if (!fresh) {
        it->second.first = std::min(it->second.first, s.start);
        it->second.second = std::max(it->second.second, s.end);
      }
    }
    if (s.name == "npb.cell") st.npb_s += dur - s.sim_s;
  }
  if (rep == nullptr) return st;
  const double rep_s = rep->end - rep->start;
  if (run != nullptr) {
    // The calling thread counts as one of the workers.  Worker-seconds of
    // the batch that are neither simulation nor the store I/O around it are
    // idle: mostly the wait for the slowest cell, plus NPB set-up and
    // verification, which run() gives no boundary to split off.
    const double window_s = run->end - run->start;
    st.worker_s = rep_s + window_s * (workers - 1);
    st.idle_s = std::max(0.0, workers * window_s - run->sim_s -
                                  child[static_cast<std::size_t>(run->id)]);
    return st;
  }
  // One thread: it idles before its first call and after its last.
  st.worker_s = rep_s;
  for (const auto& [thread, span] : calls) {
    st.idle_s += (span.first - rep->start) + (rep->end - span.second);
  }
  return st;
}

void write_spans(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const std::vector<std::vector<Span>>& reps,
                 const std::map<std::string, double>& self_s) {
  std::ofstream out(path);
  double t0 = 1e300;
  for (const auto& rep : reps) {
    for (const Span& s : rep) t0 = std::min(t0, s.start);
  }
  out << "{\"kind\":\"perf_ledger_trace\",\"workload\":\"" << workload
      << "\",\"seed\":" << seed << ",\"layer_self_s\":{";
  bool first = true;
  for (const auto& [layer, s] : self_s) {
    out << (first ? "" : ",") << '"' << layer << "\":" << s;
    first = false;
  }
  out << "},\"spans\":[";
  first = true;
  out.precision(9);
  for (std::size_t r = 0; r < reps.size(); ++r) {
    for (const Span& s : reps[r]) {
      out << (first ? "\n" : ",\n") << "{\"rep\":" << r << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
          << ",\"name\":";
      report::write_json_string(out, s.name);
      out << ",\"cell\":";
      report::write_json_string(out, s.cell);
      out << ",\"start\":" << s.start - t0 << ",\"end\":" << s.end - t0
          << ",\"sim_s\":" << s.sim_s << "}";
      first = false;
    }
  }
  out << "\n]}\n";
}

// ---- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int run_ledger(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: perf_ledger --workload W --seed N --seconds S "
                 "--trace 0|1 [--golden FILE] [--out-dir DIR] [--record-golden]\n";
    return 2;
  }
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed);
  if (wl == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'; known:";
    for (const std::string& n : workload_names()) std::cerr << ' ' << n;
    std::cerr << '\n';
    return 2;
  }
  if (args.record_golden && args.seed != 0) {
    std::cerr << "--record-golden records seed 0 only\n";
    return 2;
  }
  fs::create_directories(args.out_dir);
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  // Each run's stores live in a directory of its own, removed at exit.
  const std::string store_root =
      args.out_dir + "/stores-" + std::to_string(::getpid());
  fs::remove_all(store_root);
  fs::create_directories(store_root);

  // ---- per-layer probes (traced run only) ----------------------------------
  ProbeResults probes;
  if (args.trace) {
    probes = run_probes(store_root + "/probe");
    for (const std::string& f : probes.failures) failures.push_back("probe " + f);
  }

  // ---- set-up: resolve the machine, build engines and inputs -----------------
  // One set-up is microseconds of CPU work, so a single call is mostly clock
  // and scheduler jitter: each sample is the mean over a batch of set-ups,
  // and setup_s is the median sample.
  constexpr int kSetupBatches = 21;
  constexpr int kSetupsPerBatch = 500;
  std::vector<double> setup_samples;
  for (int b = 0; b < kSetupBatches; ++b) {
    double sum = 0;
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      const double t0 = now_s();
      wl->setup();
      sum += now_s() - t0;
      wl->teardown();
    }
    setup_samples.push_back(sum / kSetupsPerBatch);
  }

  // ---- timed repetitions ------------------------------------------------------
  std::vector<RepResult> untraced, traced;
  std::vector<std::vector<Span>> traced_spans;
  std::map<std::string, std::string> first_digests;
  const double phase_t0 = now_s();
  double longest = 0;
  for (int r = 0;; ++r) {
    const double rep_t0 = now_s();
    const bool trace_this = args.trace && r % 2 == 1;
    const std::string dir = store_root + "/" + std::to_string(r);
    wl->setup();
    tracer().enable(trace_this);
    const int root = tracer().begin("bench.rep", args.workload + "/" + std::to_string(r));
    const double cpu0 = process_cpu_s();
    RepResult rep = wl->run(dir);
    rep.cpu_s = process_cpu_s() - cpu0;
    tracer().end(root);
    tracer().enable(false);
    wl->teardown();
    fs::remove_all(dir);

    attempted += rep.cells + rep.answered_cells;
    for (const std::string& f : rep.failures) failures.push_back(f);
    if (rep.sim_cells != wl->expected_sim_cells()) {
      failures.push_back("repetition " + std::to_string(r) + " simulated " +
                         std::to_string(rep.sim_cells) + " cells, expected " +
                         std::to_string(wl->expected_sim_cells()));
    }
    if (r == 0) {
      first_digests = rep.digests;
    } else if (rep.digests != first_digests) {
      failures.push_back("repetition " + std::to_string(r) +
                         " digests differ from repetition 0");
    }
    if (trace_this) {
      traced_spans.push_back(tracer().take());
      traced.push_back(std::move(rep));
    } else {
      untraced.push_back(std::move(rep));
    }
    // Start another repetition only if it should end within --seconds, so
    // a run never overshoots its budget by more than its first repetitions.
    const double elapsed = now_s() - phase_t0;
    longest = std::max(longest, now_s() - rep_t0);
    const bool need_both = args.trace && (traced.empty() || untraced.empty());
    if (args.record_golden || (!need_both && elapsed + longest > args.seconds)) {
      break;
    }
  }

  // ---- correctness: golden digests and the fast/reference cross-check ------
  Golden golden = read_golden(args.golden);
  std::map<std::string, std::string>& want = golden[args.workload];
  std::map<std::string, std::string> got = first_digests;
  try {
    std::string label;
    const harness::RunResult fast =
        xcheck_run(*wl, base_seed_for(args.seed), true, &label);
    const harness::RunResult ref =
        xcheck_run(*wl, base_seed_for(args.seed), false, &label);
    attempted += 2;
    if (digest(fast) != digest(ref)) {
      failures.push_back("fast and reference paths disagree on " + label);
    }
    const harness::RunResult dflt =
        xcheck_run(*wl, kDefaultBaseSeed, true, &label);
    attempted += 1;
    got[label] = digest(dflt);
    if (args.seed != 0) {
      // Only the default-seed cross-check cell has a golden digest here.
      got = {{label, digest(dflt)}};
    }
  } catch (const std::exception& e) {
    failures.push_back(std::string("cross-check: ") + e.what());
  }
  if (args.record_golden) {
    want = got;
    write_golden(args.golden, golden);
    std::cout << "recorded " << got.size() << " digests for " << args.workload
              << " in " << args.golden << '\n';
  } else {
    if (want.empty()) failures.push_back("no golden digests for " + args.workload);
    for (const auto& [label, d] : got) {
      const auto it = want.find(label);
      if (it == want.end()) {
        failures.push_back("no golden digest for " + label);
      } else if (it->second != d) {
        failures.push_back("digest mismatch on " + label + ": " + d +
                           " != golden " + it->second);
      }
    }
    if (args.seed == 0) {
      for (const auto& [label, d] : want) {
        if (!got.contains(label)) failures.push_back("golden cell not run: " + label);
      }
    }
  }

  // ---- metrics -----------------------------------------------------------------
  auto med = [](const std::vector<RepResult>& reps, auto f) {
    std::vector<double> v;
    for (const RepResult& r : reps) v.push_back(f(r));
    return median(v);
  };
  const double wall_s = med(untraced, [](const RepResult& r) { return r.wall_s; });
  const double error_rate =
      attempted == 0 ? 1.0
                     : static_cast<double>(failures.size()) / static_cast<double>(attempted);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"wall_s", wall_s, "s"},
        {"setup_s", median(setup_samples), "s"},
        {"sim_events_per_s",
         med(untraced, [](const RepResult& r) { return r.events / r.wall_s; }), "1/s"},
        {"cells_per_s",
         med(untraced, [](const RepResult& r) { return r.cells / r.wall_s; }), "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    std::vector<SpanStats> stats;
    std::map<std::string, double> self_total;
    for (std::size_t i = 0; i < traced_spans.size(); ++i) {
      stats.push_back(analyse(traced_spans[i], traced[i].workers));
      for (const auto& [layer, s] : stats.back().self_s) self_total[layer] += s;
    }
    const std::string trace_path = args.out_dir + "/trace-" + args.workload +
                                   "-seed" + std::to_string(args.seed) + ".json";
    write_spans(trace_path, args.workload, args.seed, traced_spans, self_total);
    auto smed = [&](auto f) {
      std::vector<double> v;
      for (std::size_t i = 0; i < stats.size(); ++i) v.push_back(f(stats[i], traced[i]));
      return median(v);
    };
    auto umed = [&](auto f) { return med(untraced, f); };
    auto per = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
    using R = const RepResult&;
    using S = const SpanStats&;
    metrics = {
        {"sim.l2_invalidations", umed([](R r) { return double(r.l2_inval); }), "count"},
        {"sim.coherence_ns", probes.values["sim.coherence_ns"], "ns"},
        {"sim.l2_miss_ns", probes.values["sim.l2_miss_ns"], "ns"},
        {"sim.l1_hit_ns", probes.values["sim.l1_hit_ns"], "ns"},
        {"sim.l2_hit_ns", probes.values["sim.l2_hit_ns"], "ns"},
        {"sim.prefetch_ns", probes.values["sim.prefetch_ns"], "ns"},
        {"sim.bus_prefetches", umed([](R r) { return double(r.bus_pf); }), "count"},
        {"sim.events", umed([](R r) { return double(r.events); }), "count"},
        {"sim.l1d_misses", umed([](R r) { return double(r.l1d_miss); }), "count"},
        {"sim.l2_misses", umed([](R r) { return double(r.l2_miss); }), "count"},
        {"sim.busy_s", umed([](R r) { return r.sim_s; }), "s"},
        {"sim.ns_per_event",
         umed([&](R r) { return per(r.sim_s * 1e9, double(r.cell_events)); }), "ns"},
        {"sim.machine_reset_us", probes.values["sim.machine_reset_us"], "us"},
        {"harness.cell_overhead_ms", probes.values["harness.cell_overhead_ms"], "ms"},
        {"harness.worker_idle_frac",
         smed([&](S s, R) { return per(s.idle_s, s.worker_s); }), "frac"},
        {"harness.cells", umed([](R r) { return double(r.sim_cells); }), "count"},
        {"harness.cache_hits", umed([](R r) { return double(r.cache_hits); }), "count"},
        {"harness.machines_created",
         umed([](R r) { return double(r.machines_created); }), "count"},
        {"xomp.grain_ns", probes.values["xomp.grain_ns"], "ns"},
        {"xomp.barrier_ns", probes.values["xomp.barrier_ns"], "ns"},
        {"npb.setup_verify_s", smed([](S s, R) { return s.npb_s; }), "s"},
        {"model.profiles", umed([](R r) { return double(r.profiles); }), "count"},
        {"model.profile_s", probes.values["model.profile_s"], "s"},
        {"model.predict_us", probes.values["model.predict_us"], "us"},
        {"tune.sim_cells", umed([](R r) { return double(r.tune_sim_cells); }), "count"},
        {"tune.search_s", probes.values["tune.search_s"], "s"},
        {"serve.store_put_us",
         umed([&](R r) { return per(r.store_put_s * 1e6, double(r.store_puts)); }), "us"},
        {"serve.store_get_us",
         umed([&](R r) { return per(r.store_get_s * 1e6, double(r.store_gets)); }), "us"},
        {"serve.store_writes", umed([](R r) { return double(r.store_puts); }), "count"},
        {"serve.store_hits", umed([](R r) { return double(r.store_hits); }), "count"},
        {"bench.unattributed_frac",
         smed([&](S s, R) { return per(s.worker_s - s.covered_s, s.worker_s); }), "frac"},
        {"bench.trace_overhead",
         per(med(traced, [](R r) { return r.wall_s; }), wall_s), "ratio"},
    };
    std::cout << "layer self time over " << traced.size()
              << " traced repetition(s), spans in " << trace_path << ":\n";
    for (const auto& [layer, s] : self_total) {
      std::printf("  %-8s %10.4f s\n", layer.c_str(), s);
    }
  }

  fs::remove_all(store_root);

  // ---- report ------------------------------------------------------------------
  std::printf("perf_ledger %s seed=%llu trace=%d: %zu untraced + %zu traced "
              "repetition(s)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, untraced.size(), traced.size());
#if defined(__clang__)
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::printf("host: nproc=%u compiler=\"%s %s\" build=%s\n",
              std::thread::hardware_concurrency(), compiler, __VERSION__,
              PAXSIM_BUILD_TYPE);
  std::printf("  repetition wall_s:");
  for (const RepResult& r : untraced) std::printf(" %.4f", r.wall_s);
  std::printf("\n  repetition cpu_s:");
  for (const RepResult& r : untraced) std::printf(" %.4f", r.cpu_s);
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-26s %16.6g %s\n", "error_rate", error_rate, "frac");
  for (const std::string& f : failures) std::printf("FAIL %s\n", f.c_str());
  if (args.record_golden) return failures.empty() ? 0 : 1;
  emit(failures.empty(), attempted, failures.size(), metrics);
  return failures.empty() ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return run_ledger(argc, argv);
  } catch (const std::exception& e) {
    std::printf("FAIL %s\n", e.what());
    return 1;
  }
}
