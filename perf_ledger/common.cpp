// perf_ledger/common.cpp — span recorder, digests and the timed store.
#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "ledger.hpp"

namespace ledger {

namespace {

thread_local std::vector<int> open_spans;  // ids of this thread's open spans

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv_double(std::uint64_t h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return fnv(h, &bits, sizeof bits);
}

std::string hex(std::uint64_t h) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) s[static_cast<std::size_t>(i)] = kDigits[h & 15];
  return s;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::size_t thread_key() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::thread_index() {
  thread_local int idx = -1;
  if (idx < 0) {
    std::lock_guard<std::mutex> lock(mu_);
    idx = threads_.emplace(thread_key(), static_cast<int>(threads_.size()))
              .first->second;
  }
  return idx;
}

int Tracer::begin(const std::string& name, const std::string& cell) {
  if (!enabled_) return -1;
  const int thread = thread_index();
  Span s;
  s.name = name;
  s.cell = cell;
  s.thread = thread;
  s.parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int>(spans_.size());
  s.start = now_s();
  spans_.push_back(std::move(s));
  open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t = now_s();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

void Tracer::annotate(int id, double sim_s) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].sim_s = sim_s;
}

void Tracer::add(const std::string& name, double start, double end,
                 const std::string& cell, double sim_s) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.cell = cell;
  s.sim_s = sim_s;
  s.thread = thread_index();
  s.parent = open_spans.empty() ? -1 : open_spans.back();
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
}

std::vector<Span> Tracer::take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

std::string digest(const harness::RunResult& r) {
  std::uint64_t h = fnv_double(kFnvBasis, r.wall_cycles);
  for (std::size_t e = 0; e < perf::kEventCount; ++e) {
    const std::uint64_t v = r.counters.get(static_cast<perf::Event>(e));
    h = fnv(h, &v, sizeof v);
  }
  const unsigned char ok = r.verified ? 1 : 0;
  return hex(fnv(h, &ok, 1));
}

std::string digest(const model::KernelProfile::Anchor& a) {
  std::uint64_t h = kFnvBasis;
  for (const double d :
       {a.wall_cycles, a.cycles, a.instructions, a.l1d_refs, a.l1d_misses,
        a.l2_refs, a.l2_misses, a.tc_refs, a.tc_misses, a.itlb_refs,
        a.itlb_misses, a.dtlb_misses, a.branches, a.mispredicts, a.bus_reads,
        a.bus_writes, a.bus_prefetches, a.prefetches_issued,
        a.prefetches_useful, a.stall_mem, a.stall_branch, a.stall_tlb,
        a.stall_fe}) {
    h = fnv_double(h, d);
  }
  return hex(h);
}

std::string cell_label(const harness::CellKey& key) {
  std::ostringstream os;
  os << npb::benchmark_name(key.a);
  if (key.kind == harness::CellKey::Kind::kPair) os << '+' << npb::benchmark_name(key.b);
  os << '|' << key.config << '|' << npb::class_name(key.cls) << "|x"
     << std::to_string(key.machine_scale) << "|s" << key.seed << "|g" << key.grain
     << "|k" << key.sched_kind << '/' << key.sched_chunk;
  return os.str();
}

harness::RunOptions paxville_options(npb::ProblemClass cls, double scale,
                                     std::uint64_t base_seed) {
  sim::Topology topo;
  std::string why;
  if (!sim::Topology::resolve("paxville", &topo, &why)) {
    throw std::runtime_error("topology: " + why);
  }
  harness::RunOptions o;
  o.cls = cls;
  o.machine_scale = scale;
  o.trials = 1;
  o.base_seed = base_seed;
  o.topology = std::make_shared<const sim::Topology>(std::move(topo));
  return o;
}

std::uint64_t events_of(const perf::CounterSet& c) {
  using perf::Event;
  return c.get(Event::kInstructions) + c.get(Event::kL1dReferences) +
         c.get(Event::kDtlbReferences) + c.get(Event::kTraceCacheReferences);
}

// ---- TimedStore ---------------------------------------------------------------

bool TimedStore::load_cell(const harness::CellKey& key,
                           harness::CellValue* out) {
  const int span = tracer().begin("serve.get", cell_label(key));
  const double t0 = now_s();
  const bool hit = store_.load_cell(key, out);
  const double t1 = now_s();
  tracer().end(span);
  note_get(t0, t1, hit, key,
           hit && key.kind == harness::CellKey::Kind::kSingle ? &out->single
                                                              : nullptr);
  return hit;
}

void TimedStore::store_cell(const harness::CellKey& key,
                            const harness::CellValue& value) {
  const int span = tracer().begin("serve.put", cell_label(key));
  const double t0 = now_s();
  store_.store_cell(key, value);
  const double t1 = now_s();
  tracer().end(span);
  note_put(t0, t1, key,
           key.kind == harness::CellKey::Kind::kSingle ? &value.single : nullptr,
           "npb.cell");
}

bool TimedStore::load_prediction(const harness::CellKey& key,
                                 model::Prediction* out) {
  const int span = tracer().begin("serve.get", cell_label(key));
  const double t0 = now_s();
  const bool hit = store_.load_prediction(key, out);
  const double t1 = now_s();
  tracer().end(span);
  note_get(t0, t1, hit, key, nullptr);
  return hit;
}

void TimedStore::store_prediction(const harness::CellKey& key,
                                  const model::Prediction& p) {
  const int span = tracer().begin("serve.put", cell_label(key));
  const double t0 = now_s();
  store_.store_prediction(key, p);
  const double t1 = now_s();
  tracer().end(span);
  note_put(t0, t1, key, nullptr, "model.predict");
}

void TimedStore::note_get(double t0, double t1, bool hit,
                          const harness::CellKey& key,
                          const harness::RunResult* r) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tally_.gets;
  tally_.get_s += t1 - t0;
  pending_.erase(thread_key());
  if (hit) {
    ++tally_.hits;
    if (r != nullptr) {
      ++tally_.cell_hits;
      note_digest(cell_label(key), digest(*r));
    }
  } else if (tracer().enabled()) {
    pending_[thread_key()] = {harness::cell_fingerprint(key), t1};
  }
}

void TimedStore::note_put(double t0, double t1, const harness::CellKey& key,
                          const harness::RunResult* r, const char* derived) {
  double miss_end = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++tally_.puts;
    tally_.put_s += t1 - t0;
    if (r != nullptr) {
      note_digest(cell_label(key), digest(*r));
      tally_.events += events_of(r->counters);
      tally_.sim_s += r->host_sim_sec;
      tally_.l2_inval += r->counters.get(perf::Event::kL2Invalidations);
      tally_.l1d_miss += r->counters.get(perf::Event::kL1dMisses);
      tally_.l2_miss += r->counters.get(perf::Event::kL2Misses);
      tally_.bus_pf += r->counters.get(perf::Event::kBusPrefetches);
      if (!r->verified) ++tally_.unverified;
    }
    const auto it = pending_.find(thread_key());
    if (it != pending_.end()) {
      if (it->second.first == harness::cell_fingerprint(key)) {
        miss_end = it->second.second;
      }
      pending_.erase(it);
    }
  }
  if (miss_end >= 0) {
    tracer().add(derived, miss_end, t0, cell_label(key),
                 r != nullptr ? r->host_sim_sec : 0);
  }
}

void TimedStore::note_digest(const std::string& label, const std::string& d) {
  const auto [it, inserted] = tally_.digests.emplace(label, d);
  if (!inserted && it->second != d) tally_.mismatches.push_back(label);
}

TimedStore::Tally TimedStore::tally() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tally_;
}

}  // namespace ledger
