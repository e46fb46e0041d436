#include "telemetry/schema.h"

#include <algorithm>

#include "core/options.h"
#include "pram/machine.h"
#include "pram/metrics.h"

namespace wfsort::telemetry {
namespace {

const char* phase1_name(Phase1 phase1) {
  switch (phase1) {
    case Phase1::kTree: return "tree";
    case Phase1::kPartition: return "partition";
  }
  return "?";
}

// Provenance check of a stats document.  A missing build_type
// (pre-provenance documents) is tolerated unless the caller demands a
// release build.
bool check_build_type(const Json& doc, bool require_release,
                      std::string* error) {
  const Json* bt = doc.find("build_type");
  if (bt == nullptr) {
    if (require_release) {
      *error = "missing key: build_type (release provenance required)";
      return false;
    }
    return true;
  }
  if (bt->type() != Json::Type::kString) {
    *error = "wrong type for key: build_type";
    return false;
  }
  if (require_release && bt->as_string() != "release") {
    *error = "build_type is \"" + bt->as_string() +
             "\" but a release build is required";
    return false;
  }
  return true;
}

// The native contention sites: counters that each count one absorbed
// memory-contention event on a distinct shared structure.
constexpr Counter kContentionSites[] = {
    Counter::kCasFailures,
    Counter::kWatProbes,
    Counter::kFatMisses,
    Counter::kSeqBlockRepeats,
    Counter::kLcProbes,
};

Json native_contention_json(const Report* rep) {
  Json sites = Json::object();
  if (rep != nullptr) {
    for (Counter c : kContentionSites) {
      sites.set(counter_name(c), rep->counter_total(c));
    }
  }
  const char* max_site = "";
  std::uint64_t max_value = 0;
  bool first = true;
  for (const auto& [key, value] : sites.object_items()) {
    const std::uint64_t v = value.as_u64();
    if (first || v > max_value) {
      max_site = key.c_str();
      max_value = v;
      first = false;
    }
  }
  Json out = Json::object();
  out.set("max_site", std::string(max_site));
  out.set("max_value", max_value);
  out.set("sites", std::move(sites));
  return out;
}

bool check_key(const Json& doc, const char* key, Json::Type type,
               std::string* error) {
  const Json* v = doc.find(key);
  if (v == nullptr) {
    *error = std::string("missing key: ") + key;
    return false;
  }
  if (v->type() != type) {
    *error = std::string("wrong type for key: ") + key;
    return false;
  }
  return true;
}

}  // namespace

NativeRunInfo native_run_info(const Options& opts, std::uint64_t n) {
  NativeRunInfo info;
  info.variant = opts.variant == Variant::kDeterministic ? "det" : "lc";
  info.n = n;
  info.threads = opts.resolved_threads();
  info.seed = opts.seed;
  info.phase1 = phase1_name(opts.phase1);
  info.level = opts.telemetry;
  return info;
}

Json histogram_json(const LogHistogram& h) {
  Json out = Json::object();
  out.set("kind", "log2");
  out.set("total", h.total);
  out.set("sum", h.sum);
  out.set("max", h.max);
  out.set("mean", h.mean());
  Json counts = Json::array();
  const std::size_t last = h.max_nonzero_bucket();
  for (std::size_t b = 0; b <= last; ++b) counts.push_back(h.counts[b]);
  out.set("counts", std::move(counts));
  return out;
}

Json sketch_json(const LatencySketch& sk) {
  Json out = Json::object();
  out.set("kind", "loglin");
  out.set("sub_bits", static_cast<std::uint64_t>(LatencySketch::kSubBits));
  out.set("count", sk.count());
  out.set("sum", sk.sum());
  out.set("max_us", sk.max());
  out.set("mean_us", sk.mean());
  out.set("p50_us", sk.quantile(0.50));
  out.set("p99_us", sk.quantile(0.99));
  out.set("p999_us", sk.quantile(0.999));
  return out;
}

Json flight_event_json(const FlightEvent& e) {
  Json out = Json::object();
  out.set("t", e.t);
  out.set("kind", flight_kind_name(e.flight_kind()));
  out.set("a8", static_cast<std::uint64_t>(e.a8));
  out.set("a32", static_cast<std::uint64_t>(e.a32));
  out.set("value", e.value);
  out.set("tid", static_cast<std::uint64_t>(e.tid));
  return out;
}

Json native_stats_json(const NativeRunInfo& info, const SortStats& stats) {
  const Report* rep = stats.telemetry.get();

  Json doc = Json::object();
  doc.set("schema", kStatsSchema);
  doc.set("substrate", "native");
  doc.set("build_type", build_type_name());

  Json config = Json::object();
  config.set("variant", info.variant);
  config.set("n", info.n);
  config.set("threads", static_cast<std::uint64_t>(info.threads));
  config.set("seed", info.seed);
  config.set("phase1", info.phase1);
  config.set("telemetry",
             level_name(rep != nullptr ? rep->level : info.level));
  doc.set("config", std::move(config));

  // Every run counter is read off the Report; a run with N <= 1 has none
  // and exports zeros and empty sections.
  const Report empty;
  const Report& r = rep != nullptr ? *rep : empty;
  Json totals = Json::object();
  totals.set("wall_ms", static_cast<double>(r.wall_us) / 1000.0);
  totals.set("workers", static_cast<std::uint64_t>(stats.workers));
  totals.set("crashed_workers", static_cast<std::uint64_t>(r.crashed_workers()));
  totals.set("completed_workers", static_cast<std::uint64_t>(stats.completed_workers));
  totals.set("tree_depth", r.tree_depth());
  totals.set("max_build_iters", r.max_build_iters());
  totals.set("total_build_iters", r.counter_total(Counter::kBuildIters));
  totals.set("cas_successes", r.counter_total(Counter::kCasInstalls));
  doc.set("totals", std::move(totals));

  Json phases = Json::array();
  for (PhaseId p : r.phases_present()) {
    std::uint64_t total_us = 0;
    std::uint64_t max_us = 0;
    std::uint32_t workers = 0;
    for (const WorkerReport& w : r.workers) {
      bool any = false;
      for (const Span& s : w.spans) {
        if (s.phase != p) continue;
        any = true;
        total_us += s.duration_us();
        max_us = std::max(max_us, s.duration_us());
      }
      if (any) ++workers;
    }
    Json ph = Json::object();
    ph.set("name", phase_name(p));
    ph.set("max_ms", static_cast<double>(max_us) / 1000.0);
    ph.set("total_ms", static_cast<double>(total_us) / 1000.0);
    ph.set("workers", static_cast<std::uint64_t>(workers));
    phases.push_back(std::move(ph));
  }
  doc.set("phases", std::move(phases));

  // Every counter, at every level; the ones only Level::kFull records read
  // 0 at kPhases.
  Json counters = Json::object();
  if (rep != nullptr) {
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      counters.set(counter_name(static_cast<Counter>(c)),
                   r.counter_total(static_cast<Counter>(c)));
    }
  }
  doc.set("counters", std::move(counters));

  Json hists = Json::object();
  if (r.level == Level::kFull) {
    hists.set("cas_retries", histogram_json(r.merged_cas_retries()));
    hists.set("wat_probes", histogram_json(r.merged_wat_probes()));
  }
  doc.set("histograms", std::move(hists));

  // Per-phase latency sketches (one sample per worker-span): the p50/p99/
  // p999 block the sort-as-a-service story keys on.
  Json sketches = Json::object();
  for (PhaseId p : r.phases_present()) {
    sketches.set(phase_name(p), sketch_json(r.phase_sketch(p)));
  }
  doc.set("sketches", std::move(sketches));

  doc.set("contention", native_contention_json(rep));

  // Crash post-mortems: the frozen flight-recorder window of every worker
  // that died mid-run (empty array on clean runs and when rings are off).
  Json rings = Json::array();
  for (const WorkerReport& w : r.workers) {
    if (!w.crashed || w.ring.empty()) continue;
    Json ring = Json::object();
    ring.set("tid", static_cast<std::uint64_t>(w.tid));
    ring.set("total_events", w.ring_total);
    Json events = Json::array();
    for (const FlightEvent& e : w.ring) events.push_back(flight_event_json(e));
    ring.set("events", std::move(events));
    rings.push_back(std::move(ring));
  }
  doc.set("rings", std::move(rings));
  return doc;
}

Json sim_stats_json(const SimRunInfo& info, const pram::Metrics& metrics,
                    const pram::CommitStats* commit) {
  Json doc = Json::object();
  doc.set("schema", kStatsSchema);
  doc.set("substrate", "sim");
  doc.set("build_type", build_type_name());

  Json config = Json::object();
  config.set("program", info.program);
  config.set("n", info.n);
  config.set("procs", static_cast<std::uint64_t>(info.procs));
  config.set("sched", info.sched);
  config.set("seed", info.seed);
  config.set("engine", info.sim_threads > 1 ? "par" : "seq");
  config.set("sim_threads", static_cast<std::uint64_t>(info.sim_threads));
  doc.set("config", std::move(config));

  Json totals = Json::object();
  totals.set("rounds", metrics.rounds());
  totals.set("total_ops", metrics.total_ops());
  totals.set("qrqw_time", metrics.qrqw_time());
  totals.set("stalls", metrics.stalls());
  totals.set("max_proc_ops", metrics.max_proc_ops());
  totals.set("max_finish_steps", metrics.max_finish_steps());
  doc.set("totals", std::move(totals));

  // Per-shard busy-time spans for parallel runs (sequential runs keep the
  // empty phases array the schema has always emitted).
  Json phases = Json::array();
  if (commit != nullptr && info.sim_threads > 1) {
    for (std::size_t t = 0; t < commit->shard_busy_ns.size(); ++t) {
      const double ms = static_cast<double>(commit->shard_busy_ns[t]) / 1e6;
      Json ph = Json::object();
      ph.set("name", "shard" + std::to_string(t));
      ph.set("max_ms", ms);
      ph.set("total_ms", ms);
      ph.set("workers", std::uint64_t{1});
      phases.push_back(std::move(ph));
    }
  }
  doc.set("phases", std::move(phases));

  Json counters = Json::object();
  counters.set("total_ops", metrics.total_ops());
  counters.set("stalls", metrics.stalls());
  if (commit != nullptr && info.sim_threads > 1) {
    Json sc = Json::object();
    sc.set("par_rounds", commit->par_rounds);
    sc.set("seq_rounds", commit->seq_rounds);
    sc.set("shards", static_cast<std::uint64_t>(commit->shards));
    sc.set("collect_ns", commit->collect_ns);
    sc.set("group_ns", commit->group_ns);
    sc.set("arb_ns", commit->arb_ns);
    sc.set("serve_ns", commit->serve_ns);
    sc.set("merge_ns", commit->merge_ns);
    counters.set("sim_commit", std::move(sc));
  }
  doc.set("counters", std::move(counters));

  Json hists = Json::object();
  {
    const wfsort::Histogram& h = metrics.contention_histogram();
    Json hj = Json::object();
    hj.set("kind", "linear");
    hj.set("total", h.total());
    hj.set("buckets", static_cast<std::uint64_t>(h.buckets()));
    Json counts = Json::array();
    const std::size_t last = h.max_nonzero();
    for (std::size_t b = 0; b <= last; ++b) counts.push_back(h.count(b));
    hj.set("counts", std::move(counts));
    hists.set("cell_contention", std::move(hj));
  }
  doc.set("histograms", std::move(hists));

  Json contention = Json::object();
  contention.set("max_value",
                 static_cast<std::uint64_t>(metrics.max_cell_contention()));
  contention.set("hottest_addr", metrics.hottest_addr());
  contention.set("hottest_round", metrics.hottest_round());
  Json attribution = Json::object();
  for (const auto& [region, value] : metrics.region_contention()) {
    attribution.set(region, static_cast<std::uint64_t>(value));
  }
  contention.set("attribution", std::move(attribution));
  doc.set("contention", std::move(contention));
  return doc;
}

bool validate_stats_json(const Json& doc, std::string* error,
                         bool require_release) {
  error->clear();
  if (doc.type() != Json::Type::kObject) {
    *error = "stats document is not an object";
    return false;
  }
  if (!check_key(doc, "schema", Json::Type::kString, error)) return false;
  if (doc.at("schema").as_string() != kStatsSchema) {
    *error = "unexpected schema: " + doc.at("schema").as_string();
    return false;
  }
  if (!check_build_type(doc, require_release, error)) return false;
  if (!check_key(doc, "substrate", Json::Type::kString, error)) return false;
  const std::string& substrate = doc.at("substrate").as_string();
  if (substrate != "native" && substrate != "sim") {
    *error = "unexpected substrate: " + substrate;
    return false;
  }
  if (!check_key(doc, "config", Json::Type::kObject, error)) return false;
  if (substrate == "sim") {
    // A run stamped as parallel-engine must say how parallel: downstream
    // throughput comparisons are meaningless without the shard count, so
    // reject engine="par" documents that omit or contradict it.
    const Json& config = doc.at("config");
    const Json* engine = config.find("engine");
    if (engine != nullptr && engine->type() == Json::Type::kString &&
        engine->as_string() == "par") {
      const Json* threads = config.find("sim_threads");
      if (threads == nullptr) {
        *error = "sim config has engine=par but no sim_threads";
        return false;
      }
      if (threads->as_u64() < 2) {
        *error = "sim config has engine=par but sim_threads < 2";
        return false;
      }
    }
  }
  if (!check_key(doc, "totals", Json::Type::kObject, error)) return false;
  if (!check_key(doc, "phases", Json::Type::kArray, error)) return false;
  if (!check_key(doc, "counters", Json::Type::kObject, error)) return false;
  if (!check_key(doc, "histograms", Json::Type::kObject, error)) return false;
  if (!check_key(doc, "contention", Json::Type::kObject, error)) return false;

  for (const Json& ph : doc.at("phases").items()) {
    if (!check_key(ph, "name", Json::Type::kString, error)) return false;
    if (ph.find("max_ms") == nullptr) {
      *error = "phase entry missing max_ms";
      return false;
    }
  }
  for (const auto& [name, h] : doc.at("histograms").object_items()) {
    if (h.type() != Json::Type::kObject ||
        !check_key(h, "kind", Json::Type::kString, error) ||
        !check_key(h, "counts", Json::Type::kArray, error)) {
      if (error->empty()) *error = "malformed histogram: " + name;
      else *error = "histogram " + name + ": " + *error;
      return false;
    }
  }
  const Json& contention = doc.at("contention");
  if (contention.find("max_value") == nullptr) {
    *error = "contention missing max_value";
    return false;
  }
  // "sketches" and "rings" postdate the v1 documents already committed, so
  // absence is tolerated — but a present key must have the right shape.
  if (const Json* sketches = doc.find("sketches"); sketches != nullptr) {
    if (sketches->type() != Json::Type::kObject) {
      *error = "wrong type for key: sketches";
      return false;
    }
    for (const auto& [name, sk] : sketches->object_items()) {
      if (sk.type() != Json::Type::kObject || sk.find("p50_us") == nullptr ||
          sk.find("p99_us") == nullptr || sk.find("p999_us") == nullptr) {
        *error = "malformed sketch: " + name;
        return false;
      }
    }
  }
  if (const Json* rings = doc.find("rings"); rings != nullptr) {
    if (rings->type() != Json::Type::kArray) {
      *error = "wrong type for key: rings";
      return false;
    }
    for (const Json& r : rings->items()) {
      if (r.type() != Json::Type::kObject || r.find("tid") == nullptr ||
          r.find("events") == nullptr) {
        *error = "malformed post-mortem ring entry";
        return false;
      }
    }
  }
  return true;
}

const char* build_type_name() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

}  // namespace wfsort::telemetry
