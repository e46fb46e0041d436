// wfsort — command-line driver for the library.
//
//   wfsort sort --n=1000000 --threads=8 --variant=lc --dist=uniform
//   wfsort sort file.txt                 # sort whitespace-separated integers
//   wfsort sim  --n=256 --procs=256 --variant=det --schedule=serial --trace=20
//   wfsort sort --n=1048576 --phase1=partition --stats-json=stats.json
//   wfsort validate stats.json --require-release
//   wfsort hunt --n=256 --procs=16 --prune=placed --out=repro.json
//   wfsort replay repro.json
//   wfsort sort --n=1000000 --monitor-out=monitor.jsonl
//   wfsort report monitor.jsonl          # or: wfsort report repro.json
//
// `sort` runs the native wait-free sorter (reads integers from positional
// files, or generates --n keys); `sim` runs the chosen variant on the CRCW
// PRAM simulator and prints rounds, contention and (optionally) the tail of
// the execution trace.  Native performance is measured by the repository
// benchmark (benchmark/README.md), not here.  `validate` structurally checks
// an emitted stats document, monitor stream or google-benchmark report;
// with --require-release it additionally rejects files not produced by a
// release build (committed BENCH files must pass this).  `hunt` unleashes
// the searching adversary — fault scripts swept across scheduler families —
// and writes a replay artifact if any scenario fails; `replay` re-executes
// such an artifact and reports whether the failure reproduces (see
// docs/fault_model.md and docs/observability.md).
//
// Observability flags (see docs/observability.md):
//   --telemetry=off|phases|full   native per-worker recording level
//   --stats-json=PATH             write the "wfsort-stats-v1" document
//                                 (sort/sim; hunt writes search stats)
//   --trace-out=PATH              write a Perfetto/chrome://tracing trace
//   --monitor-out=PATH            live monitor: append "wfsort-monitor-v1"
//                                 JSONL samples while the run is in flight
//                                 (sort/sim); render with `wfsort report`
//   --monitor-interval-ms=N       sampling period of the live monitor
//   --ring-capacity=N             flight-recorder events retained per worker
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "core/pool.h"
#include "core/sort.h"
#include "exp/workloads.h"
#include "pram/machine.h"
#include "pram/scheduler.h"
#include "pram/trace.h"
#include "pramsort/driver.h"
#include "pramsort/validate.h"
#include "runtime/scenario.h"
#include "runtime/search.h"
#include "telemetry/monitor.h"
#include "telemetry/ring.h"
#include "telemetry/schema.h"
#include "telemetry/trace_export.h"

namespace {

namespace tel = wfsort::telemetry;
using wfsort::Json;

// Write a JSON document to `path`; complains on stderr, returns exit-worthy
// success.
bool write_json(const wfsort::Json& doc, const std::string& path) {
  std::string error;
  if (!tel::write_text_file(path, doc.dump(2) + "\n", &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

// The telemetry level the flags ask for; --stats-json/--trace-out imply
// full recording when --telemetry was left at its default.
tel::Level requested_level(const wfsort::CliFlags& flags) {
  tel::Level level = tel::Level::kOff;
  if (!tel::parse_level(flags.str("telemetry"), &level)) {
    std::fprintf(stderr, "unknown --telemetry '%s' (off|phases|full)\n",
                 flags.str("telemetry").c_str());
    std::exit(2);
  }
  if (level == tel::Level::kOff &&
      (!flags.str("stats-json").empty() || !flags.str("trace-out").empty() ||
       !flags.str("monitor-out").empty())) {
    level = tel::Level::kFull;
  }
  return level;
}

// Fill Options' monitor knobs from the flags.  The sink is truncated once up
// front by truncate_monitor_file (the Monitor itself appends).
void apply_monitor_flags(const wfsort::CliFlags& flags, wfsort::Options* opts) {
  opts->ring_capacity = static_cast<std::uint32_t>(flags.u64("ring-capacity"));
  const std::string path = flags.str("monitor-out");
  if (path.empty()) return;
  opts->monitor_path = path;
  opts->monitor_interval_ms =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(
                                     flags.u64("monitor-interval-ms")));
}

// Truncate the monitor sink so this invocation's sessions start fresh.
bool truncate_monitor_file(const std::string& path) {
  if (path.empty()) return true;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  return true;
}

// Validate + report a freshly written monitor file; the emitting run is the
// first consumer of its own stream.
int check_monitor_file(const std::string& path) {
  if (path.empty()) return 0;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "monitor file %s disappeared\n", path.c_str());
    return 2;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string error;
  if (!tel::validate_monitor_jsonl(text, &error)) {
    std::fprintf(stderr, "internal error: emitted monitor stream invalid: %s\n",
                 error.c_str());
    return 2;
  }
  std::fprintf(stderr, "wrote %s (render with: wfsort report %s)\n",
               path.c_str(), path.c_str());
  return 0;
}

// Best-effort "max contention" line from a stats document, for replay diffs.
bool contention_summary(const wfsort::Json& stats, std::uint64_t* value,
                        std::string* site) {
  if (stats.is_null()) return false;
  const wfsort::Json* c = stats.find("contention");
  if (c == nullptr) return false;
  const wfsort::Json* v = c->find("max_value");
  if (v == nullptr) return false;
  *value = v->as_u64();
  site->clear();
  if (const wfsort::Json* s = c->find("max_site"); s != nullptr) {
    *site = s->as_string();
  }
  return true;
}

wfsort::Phase1 parse_phase1(const std::string& s) {
  if (s == "tree") return wfsort::Phase1::kTree;
  if (s == "partition") return wfsort::Phase1::kPartition;
  std::fprintf(stderr, "unknown --phase1 '%s' (tree|partition)\n", s.c_str());
  std::exit(2);
}

wfsort::exp::Dist parse_dist(const std::string& s) {
  wfsort::exp::Dist d{};
  if (!wfsort::exp::parse_dist(s, &d)) {
    std::fprintf(stderr,
                 "unknown --dist '%s' (uniform|shuffled|sorted|reversed|few|pipe)\n",
                 s.c_str());
    std::exit(2);
  }
  return d;
}

int run_sort(const wfsort::CliFlags& flags) {
  std::vector<std::uint64_t> data;
  if (!flags.positional().empty()) {
    for (std::size_t i = 1; i < flags.positional().size(); ++i) {
      std::ifstream in(flags.positional()[i]);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", flags.positional()[i].c_str());
        return 2;
      }
      std::uint64_t x;
      while (in >> x) data.push_back(x);
    }
  }
  if (data.empty()) {
    data = wfsort::exp::make_u64_keys(flags.u64("n"), parse_dist(flags.str("dist")),
                                      flags.u64("seed"));
  }

  wfsort::Options opts;
  opts.threads = static_cast<std::uint32_t>(flags.u64("threads"));
  opts.variant = flags.str("variant") == "lc" ? wfsort::Variant::kLowContention
                                              : wfsort::Variant::kDeterministic;
  opts.phase1 = parse_phase1(flags.str("phase1"));
  opts.seed = flags.u64("seed");
  opts.telemetry = requested_level(flags);
  apply_monitor_flags(flags, &opts);
  if (!truncate_monitor_file(opts.monitor_path)) return 2;
  wfsort::SortStats stats;
  if (flags.flag("pool")) {
    wfsort::default_pool().sort(std::span<std::uint64_t>(data), opts, &stats);
  } else {
    wfsort::sort(std::span<std::uint64_t>(data), opts, &stats);
  }
  if (const int rc = check_monitor_file(opts.monitor_path); rc != 0) return rc;

  bool ok = true;
  for (std::size_t i = 1; i < data.size(); ++i) ok &= data[i - 1] <= data[i];
  // The Report's wall time (run start to snapshot); N <= 1 has no Report.
  const double wall_ms =
      stats.telemetry != nullptr ? static_cast<double>(stats.telemetry->wall_us) / 1000.0
                                 : 0.0;
  std::fprintf(stderr,
               "sorted %zu keys: %s  (%.2f ms, depth=%u, max build iters=%llu, "
               "workers=%u)\n",
               data.size(), ok ? "ok" : "BROKEN", wall_ms, stats.tree_depth,
               static_cast<unsigned long long>(stats.max_build_iters), stats.workers);

  const std::string stats_path = flags.str("stats-json");
  if (!stats_path.empty()) {
    const wfsort::Json doc =
        tel::native_stats_json(tel::native_run_info(opts, data.size()), stats);
    if (!write_json(doc, stats_path)) return 2;
  }
  const std::string trace_path = flags.str("trace-out");
  if (!trace_path.empty()) {
    if (stats.telemetry == nullptr) {
      std::fprintf(stderr,
                   "--trace-out: no trace (runs of at most one key record none)\n");
    } else {
      std::string error;
      const wfsort::Json doc = tel::chrome_trace_json(*stats.telemetry, "wfsort sort");
      if (!tel::write_text_file(trace_path, doc.dump() + "\n", &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
      std::fprintf(stderr, "wrote %s (load in Perfetto / chrome://tracing)\n",
                   trace_path.c_str());
    }
  }

  if (flags.flag("print")) {
    for (std::uint64_t x : data) std::printf("%llu\n", static_cast<unsigned long long>(x));
  }
  return ok ? 0 : 1;
}

// Validate: structural check of an emitted JSON file, dispatched on its
// "schema" key.  --require-release turns on the release-build check.
int run_validate(const wfsort::CliFlags& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "usage: wfsort validate <file.json> [--require-release]\n");
    return 2;
  }
  const std::string& path = flags.positional()[1];
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const bool require_release = flags.flag("require-release");

  // JSONL dispatch: a monitor stream is a line sequence, not one document.
  // Peek at the first line's schema.
  {
    const std::size_t eol = text.find('\n');
    const std::string first = text.substr(0, eol);
    std::string lerr;
    const wfsort::Json head = wfsort::Json::parse(first, &lerr);
    if (lerr.empty() && head.type() == wfsort::Json::Type::kObject &&
        eol != std::string::npos) {
      const wfsort::Json* ls = head.find("schema");
      if (ls != nullptr && ls->type() == wfsort::Json::Type::kString) {
        if (ls->as_string() == tel::kMonitorSchema) {
          std::string merr;
          if (!tel::validate_monitor_jsonl(text, &merr, require_release)) {
            std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(), merr.c_str());
            return 1;
          }
          std::fprintf(stderr, "%s: ok (%s)\n", path.c_str(), tel::kMonitorSchema);
          return 0;
        }
      }
    }
  }

  std::string error;
  const wfsort::Json doc = wfsort::Json::parse(text, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const wfsort::Json* schema = doc.find("schema");
  std::string name =
      schema != nullptr && schema->type() == wfsort::Json::Type::kString
          ? schema->as_string()
          : "";
  bool valid = false;
  const wfsort::Json* bt = doc.find("build_type");
  if (name == tel::kStatsSchema) {
    valid = tel::validate_stats_json(doc, &error, require_release);
  } else if (doc.find("context") != nullptr && doc.find("benchmarks") != nullptr) {
    // A google-benchmark report.  Its context carries a fixed
    // "library_build_type" describing the distro LIBRARY, which is not this
    // repo's provenance; our bench mains stamp "wfsort_build_type" instead
    // and that is what the release gate reads.
    name = "google-benchmark";
    const wfsort::Json& ctx = doc.at("context");
    bt = ctx.find("wfsort_build_type");
    if (bt == nullptr || bt->type() != wfsort::Json::Type::kString) {
      error = "missing context.wfsort_build_type (is this the report of a "
              "wfsort bench binary such as bench_sim_perf?)";
    } else if (require_release && bt->as_string() != "release") {
      error = "context.wfsort_build_type is \"" + bt->as_string() +
              "\" but a release build is required";
    } else {
      valid = true;
    }
  } else {
    error = "unknown schema: \"" + name + "\"";
  }
  if (!valid) {
    std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: ok (%s%s%s)\n", path.c_str(), name.c_str(),
               bt != nullptr ? ", build_type=" : "",
               bt != nullptr ? bt->as_string().c_str() : "");
  return 0;
}

// Sim-substrate monitor adapter: one flight-recorder ring fed from the
// machine's trace stream (ops via to_flight, round markers via on_round),
// sampled live by a telemetry::Monitor.  The machine flushes trace events on
// the coordinating thread even under the sharded engine, so the ring keeps
// its single writer; the monitor reads seqlock snapshots from its own
// thread.  Chains to an optional downstream tracer so --trace still works.
class SimMonitorTracer final : public pram::Tracer {
 public:
  SimMonitorTracer(std::uint32_t capacity, pram::Tracer* next) : next_(next) {
    ring_.reset(capacity);
  }

  void on_event(const pram::TraceEvent& e) override {
    ring_.push(pram::to_flight(e));
    if (next_ != nullptr) next_->on_event(e);
  }

  void on_round(std::uint64_t round, std::uint64_t ops) override {
    wfsort::telemetry::FlightEvent ev{};
    ev.t = round;
    ev.value = ops;
    ev.kind = static_cast<std::uint8_t>(tel::FlightKind::kSimRound);
    ring_.push(ev);
    if (next_ != nullptr) next_->on_round(round, ops);
  }

  void on_fault(std::uint64_t round, pram::ProcId pid,
                pram::TraceFault fault) override {
    wfsort::telemetry::FlightEvent ev{};
    ev.t = round;
    ev.tid = static_cast<std::uint16_t>(pid);
    ev.kind = static_cast<std::uint8_t>(tel::FlightKind::kFault);
    ev.a8 = static_cast<std::uint8_t>(fault);
    ring_.push(ev);
    if (next_ != nullptr) next_->on_fault(round, pid, fault);
  }

  const tel::FlightRing* ring() const { return &ring_; }

 private:
  tel::FlightRing ring_;
  pram::Tracer* next_;
};

int run_sim(const wfsort::CliFlags& flags) {
  const std::size_t n = flags.u64("n");
  const auto procs = static_cast<std::uint32_t>(flags.u64("procs"));
  auto keys = wfsort::exp::make_word_keys(n, parse_dist(flags.str("dist")),
                                          flags.u64("seed"));

  pram::MachineOptions mopts;
  if (flags.str("memory") == "stall") mopts.memory_model = pram::MemoryModel::kStall;
  mopts.sim_threads = static_cast<std::uint32_t>(flags.u64("sim-threads"));
  pram::Machine m(mopts);

  pram::RingTracer tracer(flags.u64("trace"));
  if (flags.u64("trace") > 0) m.set_tracer(&tracer);

  // Live monitor: interpose the flight-recorder adapter in front of any
  // --trace ring and sample it from a Monitor thread while the sim runs.
  std::unique_ptr<SimMonitorTracer> mon_tracer;
  std::unique_ptr<tel::Monitor> monitor;
  const std::string monitor_path = flags.str("monitor-out");
  if (!monitor_path.empty()) {
    if (!truncate_monitor_file(monitor_path)) return 2;
    mon_tracer = std::make_unique<SimMonitorTracer>(
        static_cast<std::uint32_t>(flags.u64("ring-capacity")),
        flags.u64("trace") > 0 ? &tracer : nullptr);
    m.set_tracer(mon_tracer.get());
    tel::Monitor::Config mcfg;
    mcfg.path = monitor_path;
    mcfg.interval_ms = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(flags.u64("monitor-interval-ms")));
    mcfg.source = "sim";
    mcfg.config.set("program", flags.str("variant") + "_sort");
    mcfg.config.set("n", static_cast<std::uint64_t>(n));
    mcfg.config.set("procs", static_cast<std::uint64_t>(procs));
    mcfg.config.set("sched", flags.str("schedule"));
    mcfg.config.set("seed", flags.u64("seed"));
    monitor = std::make_unique<tel::Monitor>(
        std::vector<const tel::FlightRing*>{mon_tracer->ring()}, std::move(mcfg));
    if (!monitor->ok()) {
      std::fprintf(stderr, "cannot open %s\n", monitor_path.c_str());
      return 2;
    }
    monitor->start();
  }

  std::unique_ptr<pram::Scheduler> sched;
  const std::string s = flags.str("schedule");
  if (s == "sync") {
    sched = std::make_unique<pram::SynchronousScheduler>();
  } else if (s == "serial") {
    sched = std::make_unique<pram::RoundRobinScheduler>(1);
  } else if (s == "subset") {
    sched = std::make_unique<pram::RandomSubsetScheduler>(0.5, flags.u64("seed"));
  } else if (s == "freeze") {
    sched = std::make_unique<pram::HalfFreezeScheduler>(8);
  } else {
    std::fprintf(stderr, "unknown --schedule '%s' (sync|serial|subset|freeze)\n",
                 s.c_str());
    return 2;
  }

  bool sorted = false;
  std::uint64_t rounds = 0;
  const auto t_run0 = std::chrono::steady_clock::now();
  if (flags.str("variant") == "lc") {
    auto res = wfsort::sim::run_lc_sort(m, keys, procs, *sched);
    sorted = res.sorted;
    rounds = res.run.rounds;
  } else if (flags.str("variant") == "classic") {
    auto res = wfsort::sim::run_classic_sort(m, keys, procs, *sched);
    sorted = res.sorted;
    rounds = res.run.rounds;
    if (res.run.hit_round_cap) std::printf("classic sort hit the round cap (deadlock?)\n");
  } else {
    auto res = wfsort::sim::run_det_sort(m, keys, procs, *sched);
    sorted = res.sorted;
    rounds = res.run.rounds;
    auto report = wfsort::sim::validate_sort_run(m, res.layout, 0);
    if (!report.ok) {
      std::fprintf(stderr, "VALIDATION FAILED: %s\n", report.error.c_str());
      return 1;
    }
  }
  if (monitor != nullptr) {
    monitor->note_job(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t_run0)
            .count()));
    monitor->stop();
    if (const int rc = check_monitor_file(monitor_path); rc != 0) return rc;
  }

  std::printf("n=%zu procs=%u schedule=%s variant=%s\n", n, procs, s.c_str(),
              flags.str("variant").c_str());
  std::printf("rounds=%llu total_ops=%llu qrqw_time=%llu stalls=%llu\n",
              static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(m.metrics().total_ops()),
              static_cast<unsigned long long>(m.metrics().qrqw_time()),
              static_cast<unsigned long long>(m.metrics().stalls()));
  std::printf("max contention=%zu  max steps/proc=%llu  sorted=%s\n",
              m.metrics().max_cell_contention(),
              static_cast<unsigned long long>(m.metrics().max_proc_ops()),
              sorted ? "yes" : "NO");
  for (const auto& [name, c] : m.metrics().region_contention()) {
    std::printf("  region %-28s max contention %zu\n", name.c_str(), c);
  }
  if (flags.u64("trace") > 0) {
    std::printf("last %zu trace events:\n", tracer.events().size());
    for (const auto& e : tracer.events()) {
      std::printf("  %s\n", pram::format_event(e, &m.mem()).c_str());
    }
  }

  const std::string stats_path = flags.str("stats-json");
  if (!stats_path.empty()) {
    tel::SimRunInfo info;
    info.program = flags.str("variant") + "_sort";
    info.n = n;
    info.procs = procs;
    info.sched = s;
    info.seed = flags.u64("seed");
    info.sim_threads = static_cast<std::uint32_t>(flags.u64("sim-threads"));
    if (!write_json(tel::sim_stats_json(info, m.metrics(), &m.commit_stats()), stats_path)) {
      return 2;
    }
  }
  return sorted ? 0 : 1;
}

// Base scenario shared by hunt and (implicitly) the artifacts it writes.
wfsort::runtime::ScenarioSpec spec_from_flags(const wfsort::CliFlags& flags) {
  wfsort::runtime::ScenarioSpec spec;
  spec.substrate = flags.str("substrate") == "native"
                       ? wfsort::runtime::Substrate::kNative
                       : wfsort::runtime::Substrate::kSim;
  spec.n = flags.u64("n");
  spec.dist = parse_dist(flags.str("dist"));
  spec.workload_seed = flags.u64("seed");
  spec.procs = static_cast<std::uint32_t>(
      flags.u64(spec.substrate == wfsort::runtime::Substrate::kSim ? "procs" : "threads"));
  spec.variant = flags.str("variant") == "lc" ? wfsort::runtime::SortKind::kLc
                                              : wfsort::runtime::SortKind::kDet;
  spec.phase1 = parse_phase1(flags.str("phase1")) == wfsort::Phase1::kPartition
                    ? wfsort::runtime::Phase1Kind::kPartition
                    : wfsort::runtime::Phase1Kind::kTree;
  const std::string prune = flags.str("prune");
  if (prune == "none") spec.prune = wfsort::sim::PlacePrune::kNone;
  else if (prune == "placed") spec.prune = wfsort::sim::PlacePrune::kPlaced;
  else if (prune == "completed") spec.prune = wfsort::sim::PlacePrune::kCompleted;
  else {
    std::fprintf(stderr, "unknown --prune '%s' (none|placed|completed)\n", prune.c_str());
    std::exit(2);
  }
  if (flags.str("memory") == "stall") spec.memory = pram::MemoryModel::kStall;
  spec.sim_threads = static_cast<std::uint32_t>(flags.u64("sim-threads"));
  return spec;
}

int run_hunt(const wfsort::CliFlags& flags) {
  const wfsort::runtime::ScenarioSpec spec = spec_from_flags(flags);
  if (const std::string err = wfsort::runtime::native_spec_error(spec); !err.empty()) {
    std::fprintf(stderr, "hunt: %s\n", err.c_str());
    return 2;
  }
  wfsort::runtime::SearchOptions sopts;
  sopts.max_runs = flags.u64("budget");
  sopts.seed = flags.u64("seed") * 0x9e3779b97f4a7c15ULL + 1;

  wfsort::runtime::ReplayArtifact artifact;
  wfsort::runtime::SearchStats stats;
  const bool found = wfsort::runtime::search_for_violation(spec, sopts, &artifact, &stats);
  std::fprintf(stderr, "hunt: %llu runs, %llu probes, %llu scripts\n",
               static_cast<unsigned long long>(stats.runs),
               static_cast<unsigned long long>(stats.probes),
               static_cast<unsigned long long>(stats.scripts));
  for (const auto& fam : stats.families) {
    std::fprintf(stderr, "  family %-8s runs=%llu scripts=%llu failures=%llu\n",
                 fam.family.c_str(), static_cast<unsigned long long>(fam.runs),
                 static_cast<unsigned long long>(fam.scripts),
                 static_cast<unsigned long long>(fam.failures));
  }
  const std::string stats_path = flags.str("stats-json");
  if (!stats_path.empty() &&
      !write_json(wfsort::runtime::search_stats_json(stats), stats_path)) {
    return 2;
  }
  if (!found) {
    std::fprintf(stderr, "no violation found within the budget\n");
    return 0;
  }
  std::fprintf(stderr, "VIOLATION (%s): %s\n",
               wfsort::runtime::failure_kind_name(artifact.failure),
               artifact.detail.c_str());
  if (flags.flag("shrink")) {
    artifact = wfsort::runtime::shrink_artifact(artifact);
    std::fprintf(stderr, "shrunk to %zu event(s)\n", artifact.spec.script.events.size());
  }
  const std::string out = flags.str("out");
  if (!wfsort::runtime::write_artifact(artifact, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 2;
  }
  std::fprintf(stderr, "repro written to %s — re-run with: wfsort replay %s\n",
               out.c_str(), out.c_str());
  return 1;
}

// Render a "rings" section (array of {tid, total_events, events}) — the
// post-mortem flight recorder of a failure artifact or stats document.
// Prints at most the last `last_k` events per ring.
void print_rings(const wfsort::Json& rings, std::size_t last_k) {
  if (rings.is_null() || rings.type() != wfsort::Json::Type::kArray) return;
  for (const wfsort::Json& r : rings.items()) {
    const wfsort::Json* tid = r.find("tid");
    const wfsort::Json* total = r.find("total_events");
    const wfsort::Json* events = r.find("events");
    if (tid == nullptr || events == nullptr) continue;
    const auto& evs = events->items();
    const std::size_t show = std::min(last_k, evs.size());
    std::printf("post-mortem ring of worker %llu: last %zu of %llu events\n",
                static_cast<unsigned long long>(tid->as_u64()), show,
                static_cast<unsigned long long>(
                    total != nullptr ? total->as_u64() : evs.size()));
    for (std::size_t i = evs.size() - show; i < evs.size(); ++i) {
      const wfsort::Json& e = evs[i];
      const wfsort::Json* kind = e.find("kind");
      std::printf("  t=%-8llu %-14s a8=%-3llu a32=%-10llu value=%llu\n",
                  static_cast<unsigned long long>(e.at("t").as_u64()),
                  kind != nullptr ? kind->as_string().c_str() : "?",
                  static_cast<unsigned long long>(e.at("a8").as_u64()),
                  static_cast<unsigned long long>(e.at("a32").as_u64()),
                  static_cast<unsigned long long>(e.at("value").as_u64()));
    }
  }
}

// Report: human rendering of observability artifacts.  A monitor JSONL file
// becomes a per-session sample timeline with the final quantile table; a
// replay artifact becomes its failure summary plus the kill victims' post-
// mortem ring dump.
int run_report(const wfsort::CliFlags& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "usage: wfsort report <monitor.jsonl|artifact.json>\n");
    return 2;
  }
  const std::string& path = flags.positional()[1];
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  // Replay artifact?  (One pretty-printed document with a format marker.)
  {
    std::string perr;
    const wfsort::Json doc = wfsort::Json::parse(text, &perr);
    if (perr.empty() && doc.type() == wfsort::Json::Type::kObject) {
      const wfsort::Json* format = doc.find("format");
      if (format != nullptr && format->type() == wfsort::Json::Type::kString &&
          format->as_string() == "wfsort-repro-v1") {
        if (const wfsort::Json* failure = doc.find("failure"); failure != nullptr) {
          const wfsort::Json* kind = failure->find("kind");
          const wfsort::Json* detail = failure->find("detail");
          std::printf("failure: %s — %s\n",
                      kind != nullptr ? kind->as_string().c_str() : "?",
                      detail != nullptr ? detail->as_string().c_str() : "");
        }
        const wfsort::Json* rings = doc.find("rings");
        if (rings == nullptr && doc.find("observed") != nullptr) {
          rings = doc.at("observed").find("rings");
        }
        if (rings == nullptr || rings->items().empty()) {
          std::printf("no post-mortem rings recorded (script kills nobody, or "
                      "the artifact predates the flight recorder)\n");
          return 0;
        }
        print_rings(*rings, 16);
        return 0;
      }
      std::fprintf(stderr,
                   "%s: not a monitor stream or replay artifact (schema %s)\n",
                   path.c_str(),
                   doc.find("schema") != nullptr
                       ? doc.at("schema").as_string().c_str()
                       : "?");
      return 1;
    }
  }

  // Otherwise: monitor JSONL.  Validate first, then render the timeline.
  std::string error;
  if (!tel::validate_monitor_jsonl(text, &error)) {
    std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::size_t session = 0, pos = 0;
  while (pos < text.size()) {
    const std::size_t end = text.find('\n', pos);
    const std::string line =
        text.substr(pos, end == std::string::npos ? end : end - pos);
    pos = end == std::string::npos ? text.size() : end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string lerr;
    const wfsort::Json rec = wfsort::Json::parse(line, &lerr);
    if (!lerr.empty()) continue;  // validated above; be tolerant here
    const std::string record = rec.at("record").as_string();
    if (record == "header") {
      ++session;
      std::printf("session %zu: source=%s build=%s interval=%llums rings=%llu\n",
                  session, rec.at("source").as_string().c_str(),
                  rec.at("build_type").as_string().c_str(),
                  static_cast<unsigned long long>(rec.at("interval_ms").as_u64()),
                  static_cast<unsigned long long>(
                      rec.find("rings") != nullptr ? rec.at("rings").as_u64() : 0));
      std::printf("  config: %s\n", rec.at("config").dump_compact().c_str());
      continue;
    }
    const bool final_sample =
        rec.find("final") != nullptr && rec.at("final").as_bool();
    std::printf("  t=%-6llums events=%-8llu dropped=%-6llu workers=%llu%s\n",
                static_cast<unsigned long long>(rec.at("t_ms").as_u64()),
                static_cast<unsigned long long>(rec.at("events").as_u64()),
                static_cast<unsigned long long>(rec.at("dropped").as_u64()),
                static_cast<unsigned long long>(rec.at("workers_active").as_u64()),
                final_sample ? "  (final)" : "");
    if (final_sample) {
      std::printf("  %-14s %10s %10s %10s %10s %10s\n", "phase", "count",
                  "p50_us", "p99_us", "p999_us", "max_us");
      for (const auto& [name, ph] : rec.at("phases").object_items()) {
        std::printf("  %-14s %10llu %10llu %10llu %10llu %10llu\n", name.c_str(),
                    static_cast<unsigned long long>(ph.at("count").as_u64()),
                    static_cast<unsigned long long>(ph.at("p50_us").as_u64()),
                    static_cast<unsigned long long>(ph.at("p99_us").as_u64()),
                    static_cast<unsigned long long>(ph.at("p999_us").as_u64()),
                    static_cast<unsigned long long>(ph.at("max_us").as_u64()));
      }
      std::printf("  counters: %s\n", rec.at("counters").dump_compact().c_str());
      if (rec.find("jobs") != nullptr) {
        std::printf("  jobs: %s\n", rec.at("jobs").dump_compact().c_str());
      }
    }
  }
  return 0;
}

int run_replay(const wfsort::CliFlags& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "usage: wfsort replay <artifact.json>\n");
    return 2;
  }
  const std::string& path = flags.positional()[1];
  wfsort::runtime::ReplayArtifact artifact;
  std::string error;
  if (!wfsort::runtime::load_artifact(path, &artifact, &error)) {
    std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  std::fprintf(stderr, "replaying %s (recorded failure: %s)\n", path.c_str(),
               wfsort::runtime::failure_kind_name(artifact.failure));
  // sim_threads is a host property, never serialized (see ScenarioSpec);
  // the replay runs at whatever this invocation asks for and must reproduce
  // the recorded failure regardless.
  artifact.spec.sim_threads = static_cast<std::uint32_t>(flags.u64("sim-threads"));
  const wfsort::runtime::ReplayOutcome outcome = wfsort::runtime::replay(artifact);
  std::fprintf(stderr, "result: %s%s%s\n",
               wfsort::runtime::failure_kind_name(outcome.result.failure),
               outcome.result.detail.empty() ? "" : " — ",
               outcome.result.detail.c_str());
  // Diff this run's contention against the artifact's recorded telemetry —
  // a replay that fails the same way through a different hot spot is a
  // different interleaving of the same bug.
  std::uint64_t was = 0, now = 0;
  std::string was_site, now_site;
  if (contention_summary(artifact.observed, &was, &was_site) &&
      contention_summary(outcome.result.stats, &now, &now_site)) {
    std::fprintf(stderr, "contention: observed max=%llu%s%s, replay max=%llu%s%s\n",
                 static_cast<unsigned long long>(was),
                 was_site.empty() ? "" : " at ", was_site.c_str(),
                 static_cast<unsigned long long>(now),
                 now_site.empty() ? "" : " at ", now_site.c_str());
  }
  // The artifact's post-mortem flight recorder: the kill victims' final
  // events, as recorded by the original failing run.
  if (!artifact.rings.is_null() && !artifact.rings.items().empty()) {
    print_rings(artifact.rings, 16);
  }
  if (outcome.reproduced) {
    std::fprintf(stderr, "reproduced%s\n", outcome.exact ? " (identical detail)" : "");
    return 1;  // the bug is (still) there
  }
  if (artifact.spec.substrate == wfsort::runtime::Substrate::kNative) {
    std::fprintf(stderr,
                 "did not reproduce — native replays re-run the configuration, not the "
                 "interleaving; try several times\n");
  } else {
    std::fprintf(stderr, "did not reproduce\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  wfsort::CliFlags flags(
      "wfsort — wait-free sorting (Shavit/Upfal/Zemach PODC'97)\n"
      "usage: wfsort <sort|sim|validate|hunt|replay|report> [flags] [files...]");
  flags.add_u64("n", 100000, "number of keys to generate when no input file is given");
  flags.add_u64("threads", 4, "native worker threads (sort mode)");
  flags.add_u64("procs", 256, "virtual processors (sim mode)");
  flags.add_u64("seed", 1, "workload / randomized-variant seed");
  flags.add_u64("trace", 0, "sim: keep and print the last K trace events");
  flags.add_u64("sim-threads", 1,
                "sim/hunt/replay: OS threads sharding the round engine "
                "(observables are identical at any value)");
  flags.add_string("variant", "det", "det | lc | classic (sim only)");
  flags.add_string("phase1", "tree",
                   "native det phase 1: tree | partition (sort/hunt mode)");
  flags.add_string("dist", "uniform", "uniform|shuffled|sorted|reversed|few|pipe");
  flags.add_string("schedule", "sync", "sim: sync|serial|subset|freeze");
  flags.add_string("memory", "crcw", "sim: crcw | stall");
  flags.add_bool("print", false, "sort: print the sorted keys to stdout");
  flags.add_bool("pool", false,
                 "sort: route the run through the process-wide SortPool "
                 "(persistent workers, recycled arenas)");
  flags.add_string("substrate", "sim", "hunt: sim | native");
  flags.add_string("prune", "completed",
                   "hunt: phase-3 pruning (none|placed|completed; native: completed)");
  flags.add_u64("budget", 400, "hunt: max scenario executions");
  flags.add_string("out", "wfsort-repro.json", "hunt: replay artifact path");
  flags.add_bool("shrink", true, "hunt: delta-debug the failing script before writing");
  flags.add_bool("require-release", false,
                 "validate: reject files not from a release build");
  flags.add_string("telemetry", "off", "native recording level: off|phases|full");
  flags.add_string("stats-json", "", "write the run's stats document to this path");
  flags.add_string("trace-out", "", "write a Perfetto-loadable trace to this path");
  flags.add_string("monitor-out", "",
                   "append live \"wfsort-monitor-v1\" JSONL samples to this "
                   "path while the run is in flight (sort/sim)");
  flags.add_u64("monitor-interval-ms", 25, "live-monitor sampling period");
  flags.add_u64("ring-capacity", 256,
                "flight-recorder events retained per worker ring");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  if (flags.help_requested() || flags.positional().empty()) {
    std::fputs(flags.help_text().c_str(), stderr);
    return flags.help_requested() ? 0 : 2;
  }

  const std::string& mode = flags.positional().front();
  if (mode == "sort") return run_sort(flags);
  if (mode == "sim") return run_sim(flags);
  if (mode == "validate") return run_validate(flags);
  if (mode == "hunt") return run_hunt(flags);
  if (mode == "replay") return run_replay(flags);
  if (mode == "report") return run_report(flags);
  std::fprintf(stderr,
               "unknown mode '%s' (sort|sim|validate|hunt|replay|report)\n",
               mode.c_str());
  return 2;
}
