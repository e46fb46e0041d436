#include "runtime/scenario.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "core/sort.h"
#include "pram/scheduler.h"
#include "pram/trace.h"
#include "pramsort/lc_layout.h"
#include "pramsort/lc_programs.h"
#include "pramsort/validate.h"
#include "runtime/oracle.h"
#include "telemetry/schema.h"
#include "workalloc/wat_program.h"

namespace wfsort::runtime {

namespace {

const char* substrate_name(Substrate s) {
  return s == Substrate::kSim ? "sim" : "native";
}

bool parse_substrate(const std::string& name, Substrate* out) {
  if (name == "sim") *out = Substrate::kSim;
  else if (name == "native") *out = Substrate::kNative;
  else return false;
  return true;
}

const char* sort_kind_name(SortKind v) { return v == SortKind::kDet ? "det" : "lc"; }

bool parse_sort_kind(const std::string& name, SortKind* out) {
  if (name == "det") *out = SortKind::kDet;
  else if (name == "lc") *out = SortKind::kLc;
  else return false;
  return true;
}

const char* phase1_kind_name(Phase1Kind p) {
  return p == Phase1Kind::kPartition ? "partition" : "tree";
}

bool parse_phase1_kind(const std::string& name, Phase1Kind* out) {
  if (name == "tree") *out = Phase1Kind::kTree;
  else if (name == "partition") *out = Phase1Kind::kPartition;
  else return false;
  return true;
}

const char* prune_name(sim::PlacePrune p) {
  switch (p) {
    case sim::PlacePrune::kNone: return "none";
    case sim::PlacePrune::kPlaced: return "placed";
    case sim::PlacePrune::kCompleted: return "completed";
  }
  return "?";
}

bool parse_prune(const std::string& name, sim::PlacePrune* out) {
  if (name == "none") *out = sim::PlacePrune::kNone;
  else if (name == "placed") *out = sim::PlacePrune::kPlaced;
  else if (name == "completed") *out = sim::PlacePrune::kCompleted;
  else return false;
  return true;
}

const char* memory_name(pram::MemoryModel m) {
  return m == pram::MemoryModel::kCrcw ? "crcw" : "stall";
}

bool parse_memory(const std::string& name, pram::MemoryModel* out) {
  if (name == "crcw") *out = pram::MemoryModel::kCrcw;
  else if (name == "stall") *out = pram::MemoryModel::kStall;
  else return false;
  return true;
}

bool sorted_matches(std::span<const pram::Word> keys, const std::vector<pram::Word>& out) {
  std::vector<pram::Word> expected(keys.begin(), keys.end());
  std::sort(expected.begin(), expected.end());
  return out == expected;
}

// Events retained per kill victim in a failure artifact's post-mortem ring:
// enough to see the victim's final claims and descents, small enough that a
// multi-kill artifact stays readable.
constexpr std::uint32_t kVictimRingCapacity = 64;

// Flight recorder for the adversary's victims.  Keeps one ring per scripted
// kill target, fed from the machine's trace stream (served ops, via
// to_flight) and from the adversary engine's lifecycle callbacks
// (kill/suspend/revive land as kFault events in the victim's own ring).
// Trace flush and round hooks run on the coordinating thread even under the
// sharded engine, so each ring keeps its single writer; events are stamped
// with round numbers, so two replays of the same spec serialize
// byte-identically.
class VictimRingTracer final : public pram::Tracer {
 public:
  explicit VictimRingTracer(const std::vector<std::uint32_t>& victims) {
    for (const std::uint32_t p : victims) rings_[p].reset(kVictimRingCapacity);
  }

  void on_event(const pram::TraceEvent& e) override {
    const auto it = rings_.find(static_cast<std::uint32_t>(e.pid));
    if (it != rings_.end()) it->second.push(pram::to_flight(e));
  }

  void on_fault(std::uint64_t round, pram::ProcId pid,
                pram::TraceFault fault) override {
    const auto it = rings_.find(static_cast<std::uint32_t>(pid));
    if (it == rings_.end()) return;
    telemetry::FlightEvent ev{};
    ev.t = round;
    ev.tid = static_cast<std::uint16_t>(pid);
    ev.kind = static_cast<std::uint8_t>(telemetry::FlightKind::kFault);
    ev.a8 = static_cast<std::uint8_t>(fault);  // TraceFault mirrors FaultCode
    it->second.push(ev);
  }

  // The artifact's "rings" section: [{tid, total_events, events:[...]}],
  // victims in pid order, empty rings skipped.  Null when nothing recorded.
  Json rings_json() const {
    Json arr = Json::array();
    bool any = false;
    for (const auto& [pid, ring] : rings_) {
      if (ring.total() == 0) continue;
      any = true;
      Json r = Json::object();
      r.set("tid", static_cast<std::int64_t>(pid));
      r.set("total_events", ring.total());
      Json evs = Json::array();
      for (const telemetry::FlightEvent& e : ring.snapshot()) {
        evs.push_back(telemetry::flight_event_json(e));
      }
      r.set("events", std::move(evs));
      arr.push_back(std::move(r));
    }
    return any ? arr : Json();
  }

 private:
  std::map<std::uint32_t, telemetry::FlightRing> rings_;
};

// Judge own-step counts for every processor that finished; fills
// res->max_finish_steps and flips the result to kOwnStep on a violation.
void certify_own_steps(const ScenarioSpec& spec, ScenarioResult* res,
                       const std::function<bool(std::uint32_t)>& finished,
                       const std::function<std::uint64_t(std::uint32_t)>& steps) {
  for (std::uint32_t p = 0; p < spec.procs; ++p) {
    if (!finished(p)) continue;
    const std::uint64_t s = steps(p);
    res->max_finish_steps = std::max(res->max_finish_steps, s);
    if (spec.own_step_bound != 0 && s > spec.own_step_bound &&
        res->failure == FailureKind::kNone) {
      res->failure = FailureKind::kOwnStep;
      res->detail = "processor " + std::to_string(p) + " finished after " +
                    std::to_string(s) + " own steps, above the certified bound of " +
                    std::to_string(spec.own_step_bound);
    }
  }
}

ScenarioResult run_sim_scenario(const ScenarioSpec& spec) {
  ScenarioResult res;
  const std::vector<pram::Word> keys =
      exp::make_word_keys(spec.n, spec.dist, spec.workload_seed);

  pram::MachineOptions mopts;
  mopts.seed = spec.machine_seed;
  mopts.memory_model = spec.memory;
  mopts.max_rounds = spec.max_rounds != 0 ? spec.max_rounds : default_round_cap(spec);
  mopts.sim_threads = spec.sim_threads;
  // Adversary crews are small (tens of processors), so the default width
  // threshold would route every round through the sequential engine and a
  // multi-threaded spec would silently test nothing; force the sharded path.
  if (spec.sim_threads > 1) mopts.par_round_min = 1;
  pram::Machine m(mopts);
  const std::unique_ptr<pram::Scheduler> sched = make_scheduler(spec.sched);

  // Post-mortem flight recorder: when the script kills processors, record
  // each victim's final ops + lifecycle faults for the failure artifact.
  std::unique_ptr<VictimRingTracer> victim_rings;
  if (const std::vector<std::uint32_t> victims = spec.script.killed_targets();
      !victims.empty()) {
    victim_rings = std::make_unique<VictimRingTracer>(victims);
    m.set_tracer(victim_rings.get());
  }

  std::unique_ptr<SortOracle> oracle;
  sim::SortLayout det_layout;
  sim::SortLayout out_layout;  // whichever layout owns the output region

  if (spec.variant == SortKind::kDet) {
    det_layout = sim::make_sort_layout(m.mem(), keys);
    out_layout = det_layout;
    auto l = std::make_shared<const sim::SortLayout>(det_layout);
    auto wat = std::make_shared<const sim::PramWat>(
        sim::make_pram_wat(m.mem(), "phase1 WAT", keys.size()));
    sim::DetSortConfig cfg;
    cfg.procs = spec.procs;
    cfg.prune = spec.prune;
    cfg.random_first = spec.random_first;
    for (std::uint32_t p = 0; p < spec.procs; ++p) {
      m.spawn([l, wat, cfg](pram::Ctx& ctx) { return sim::det_sort_worker(ctx, *l, *wat, cfg); });
    }
    if (spec.oracle_period != 0) {
      oracle = std::make_unique<SortOracle>(det_layout, 0);
      m.add_round_hook(oracle->hook(spec.oracle_period));
    }
  } else {
    WFSORT_CHECK(spec.n >= 4);  // LC variant's minimum problem size
    const sim::LcSortLayout lc_layout = sim::make_lc_sort_layout(m, keys, spec.procs);
    out_layout = lc_layout.main;
    auto l = std::make_shared<const sim::LcSortLayout>(lc_layout);
    for (std::uint32_t p = 0; p < spec.procs; ++p) {
      m.spawn([l](pram::Ctx& ctx) { return sim::lc_sort_worker(ctx, *l); });
    }
  }

  if (!spec.script.empty()) m.add_round_hook(make_round_hook(spec.script));

  pram::Machine::StopPredicate stop;
  if (oracle != nullptr) {
    stop = [o = oracle.get()](const pram::Machine&) { return o->violated(); };
  }
  const pram::RunResult run = m.run(*sched, stop);
  if (oracle != nullptr) oracle->check(m);  // catch corruption in the final state

  res.rounds = run.rounds;
  res.total_ops = m.metrics().total_ops();
  res.max_contention = m.metrics().max_cell_contention();
  {
    telemetry::SimRunInfo info;
    info.program = std::string(sort_kind_name(spec.variant)) + "_sort";
    info.n = spec.n;
    info.procs = spec.procs;
    info.sched = sched_family_name(spec.sched.family);
    info.seed = spec.machine_seed;
    info.sim_threads = spec.sim_threads;
    res.stats = telemetry::sim_stats_json(info, m.metrics(), &m.commit_stats());
  }
  if (victim_rings != nullptr) res.rings = victim_rings->rings_json();

  if (oracle != nullptr && oracle->violated()) {
    res.failure = FailureKind::kOracle;
    res.detail = "round " + std::to_string(oracle->violation_round()) + ": " + oracle->error();
    return res;
  }
  if (run.hit_round_cap) {
    res.failure = FailureKind::kHang;
    res.detail = "survivors made no collective progress within " +
                 std::to_string(mopts.max_rounds) + " rounds";
    return res;
  }

  const std::vector<pram::Word> output = sim::read_output(m, out_layout);
  if (!sorted_matches(keys, output)) {
    res.failure = FailureKind::kUnsorted;
    std::size_t i = 0;
    while (i + 1 < output.size() && output[i] <= output[i + 1]) ++i;
    res.detail = "output is not the sorted input";
    if (i + 1 < output.size()) {
      res.detail += " (first inversion at rank " + std::to_string(i) + ": " +
                    std::to_string(output[i]) + " > " + std::to_string(output[i + 1]) + ")";
    } else {
      res.detail += " (ordered but not a permutation of the input)";
    }
    return res;
  }
  if (spec.variant == SortKind::kDet) {
    const sim::ValidationReport report = sim::validate_sort_run(m, det_layout, 0);
    if (!report.ok) {
      res.failure = FailureKind::kValidation;
      res.detail = report.error;
      return res;
    }
  }

  certify_own_steps(
      spec, &res, [&m](std::uint32_t p) { return m.finished(p); },
      [&m](std::uint32_t p) { return m.metrics().finish_steps(p); });
  return res;
}

ScenarioResult run_native_scenario(const ScenarioSpec& spec) {
  ScenarioResult res;
  std::vector<std::uint64_t> data = exp::make_u64_keys(spec.n, spec.dist, spec.workload_seed);
  std::vector<std::uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());

  Options opts;
  opts.threads = spec.procs;
  opts.variant = spec.variant == SortKind::kLc ? Variant::kLowContention : Variant::kDeterministic;
  opts.phase1 = spec.phase1 == Phase1Kind::kPartition ? Phase1::kPartition
                                                      : Phase1::kTree;
  opts.seed = spec.sort_seed;
  // Full telemetry: adversarial runs are small, and the per-phase timeline
  // plus contention attribution is what makes a failure artifact diagnosable.
  opts.telemetry = telemetry::Level::kFull;

  FaultPlan plan(spec.procs);
  program_plan(spec.script, plan);
  SortStats stats;
  const bool ok = sort_with_faults(std::span<std::uint64_t>(data), opts, plan, &stats);
  res.stats = telemetry::native_stats_json(telemetry::native_run_info(opts, spec.n), stats);
  // The stats document already carries the crashed workers' post-mortem
  // rings; mirror them into the result so both substrates expose one field.
  if (const Json* r = res.stats.find("rings");
      r != nullptr && !r->items().empty()) {
    res.rings = *r;
  }

  const std::vector<std::uint32_t> killed = spec.script.killed_targets();
  const auto survived = [&killed](std::uint32_t tid) {
    return std::find(killed.begin(), killed.end(), tid) == killed.end();
  };
  if (!ok) {
    res.failure = FailureKind::kHang;
    res.detail = "no worker completed the sort although " +
                 std::to_string(spec.procs - killed.size()) + " of " +
                 std::to_string(spec.procs) + " survived the fault script";
  } else if (data != expected) {
    res.failure = FailureKind::kUnsorted;
    std::size_t i = 0;
    while (i + 1 < data.size() && data[i] <= data[i + 1]) ++i;
    res.detail = "output is not the sorted input";
    if (i + 1 < data.size()) {
      res.detail += " (first inversion at rank " + std::to_string(i) + ")";
    } else {
      res.detail += " (ordered but not a permutation of the input)";
    }
  }
  if (res.failure != FailureKind::kHang) {
    certify_own_steps(spec, &res, survived,
                      [&plan](std::uint32_t tid) { return plan.steps(tid); });
  }
  return res;
}

}  // namespace

const char* failure_kind_name(FailureKind k) {
  switch (k) {
    case FailureKind::kNone: return "none";
    case FailureKind::kHang: return "hang";
    case FailureKind::kUnsorted: return "unsorted";
    case FailureKind::kValidation: return "validation";
    case FailureKind::kOracle: return "oracle";
    case FailureKind::kOwnStep: return "own-step";
  }
  return "?";
}

bool parse_failure_kind(const std::string& name, FailureKind* out) {
  if (name == "none") *out = FailureKind::kNone;
  else if (name == "hang") *out = FailureKind::kHang;
  else if (name == "unsorted") *out = FailureKind::kUnsorted;
  else if (name == "validation") *out = FailureKind::kValidation;
  else if (name == "oracle") *out = FailureKind::kOracle;
  else if (name == "own-step") *out = FailureKind::kOwnStep;
  else return false;
  return true;
}

std::uint64_t default_round_cap(const ScenarioSpec& spec) {
  // A processor's own work is O(N log N) memory operations (the kNone-prune
  // worst case re-traverses the whole tree); the serial schedule stretches
  // wall-rounds to the crew's *total* ops, so scale by P for every family
  // that steps a strict subset per round.  ~10x headroom over measured runs.
  const std::uint64_t n = std::max<std::uint64_t>(spec.n, 2);
  const std::uint64_t logn = std::bit_width(n - 1) + 1;
  const std::uint64_t per_proc = 512 + 48 * n * logn;
  const std::uint64_t stretch =
      spec.sched.family == SchedFamily::kSync ? 4 : std::max<std::uint32_t>(spec.procs, 4);
  return 4096 + per_proc * stretch;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  WFSORT_CHECK(spec.n >= 1);
  WFSORT_CHECK(spec.procs >= 1);
  WFSORT_CHECK(spec.script.concrete());
  const std::string verr = spec.script.validate(spec.procs);
  if (!verr.empty()) {
    WFSORT_CHECK(false && "invalid fault script passed to run_scenario");
  }
  WFSORT_CHECK(native_spec_error(spec).empty());
  return spec.substrate == Substrate::kSim ? run_sim_scenario(spec)
                                           : run_native_scenario(spec);
}

std::string native_spec_error(const ScenarioSpec& spec) {
  if (spec.substrate != Substrate::kNative ||
      spec.prune == sim::PlacePrune::kCompleted) {
    return "";
  }
  return std::string("the native engine has one phase-3 rule (prune=completed); "
                     "prune=") +
         prune_name(spec.prune) + " runs only on the simulator";
}

Json spec_to_json(const ScenarioSpec& spec) {
  Json j = Json::object();
  j.set("substrate", substrate_name(spec.substrate));
  j.set("n", spec.n);
  j.set("dist", exp::dist_name(spec.dist));
  j.set("workload_seed", spec.workload_seed);
  j.set("procs", static_cast<std::uint64_t>(spec.procs));
  j.set("variant", sort_kind_name(spec.variant));
  j.set("prune", prune_name(spec.prune));
  j.set("phase1", phase1_kind_name(spec.phase1));
  j.set("random_first", spec.random_first);
  j.set("machine_seed", spec.machine_seed);
  j.set("memory", memory_name(spec.memory));
  j.set("max_rounds", spec.max_rounds);
  Json sched = Json::object();
  sched.set("family", sched_family_name(spec.sched.family));
  sched.set("param", spec.sched.param);
  sched.set("seed", spec.sched.seed);
  j.set("sched", std::move(sched));
  j.set("sort_seed", spec.sort_seed);
  j.set("script", script_to_json(spec.script));
  j.set("oracle_period", spec.oracle_period);
  j.set("own_step_bound", spec.own_step_bound);
  return j;
}

bool spec_from_json(const Json& j, ScenarioSpec* out, std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (j.type() != Json::Type::kObject) return fail("scenario must be an object");
  ScenarioSpec spec;

  const auto str_field = [&](const char* key, const std::string& dflt) {
    const Json* f = j.find(key);
    return f != nullptr ? f->as_string() : dflt;
  };
  const auto u64_field = [&](const char* key, std::uint64_t dflt) {
    const Json* f = j.find(key);
    return f != nullptr ? f->as_u64() : dflt;
  };

  if (!parse_substrate(str_field("substrate", "sim"), &spec.substrate)) {
    return fail("unknown substrate");
  }
  spec.n = u64_field("n", spec.n);
  if (spec.n == 0) return fail("n must be >= 1");
  if (!exp::parse_dist(str_field("dist", "shuffled"), &spec.dist)) {
    return fail("unknown dist");
  }
  spec.workload_seed = u64_field("workload_seed", spec.workload_seed);
  const std::uint64_t procs = u64_field("procs", spec.procs);
  if (procs == 0 || procs > 4096) return fail("procs out of range");
  spec.procs = static_cast<std::uint32_t>(procs);
  if (!parse_sort_kind(str_field("variant", "det"), &spec.variant)) {
    return fail("unknown variant");
  }
  if (!parse_prune(str_field("prune", "completed"), &spec.prune)) {
    return fail("unknown prune policy");
  }
  if (!parse_phase1_kind(str_field("phase1", "tree"), &spec.phase1)) {
    return fail("unknown phase1 strategy");
  }
  const Json* rf = j.find("random_first");
  spec.random_first = rf != nullptr && rf->as_bool();
  spec.machine_seed = u64_field("machine_seed", spec.machine_seed);
  if (!parse_memory(str_field("memory", "crcw"), &spec.memory)) {
    return fail("unknown memory model");
  }
  spec.max_rounds = u64_field("max_rounds", spec.max_rounds);
  if (const Json* sched = j.find("sched"); sched != nullptr) {
    if (!parse_sched_family(sched->at("family").as_string(), &spec.sched.family)) {
      return fail("unknown scheduler family");
    }
    spec.sched.param = sched->find("param") != nullptr ? sched->at("param").as_u64() : 0;
    spec.sched.seed = sched->find("seed") != nullptr ? sched->at("seed").as_u64() : 1;
  }
  spec.sort_seed = u64_field("sort_seed", spec.sort_seed);
  if (const Json* script = j.find("script"); script != nullptr) {
    if (!script_from_json(*script, &spec.script, error)) return false;
  }
  spec.oracle_period = u64_field("oracle_period", spec.oracle_period);
  spec.own_step_bound = u64_field("own_step_bound", spec.own_step_bound);

  if (std::string nerr = native_spec_error(spec); !nerr.empty()) return fail(nerr);
  if (!spec.script.concrete()) return fail("artifact scripts must be concrete (round triggers)");
  const std::string verr = spec.script.validate(spec.procs);
  if (!verr.empty()) return fail("invalid script: " + verr);
  *out = spec;
  return true;
}

std::string artifact_to_text(const ReplayArtifact& a) {
  Json j = Json::object();
  j.set("format", "wfsort-repro-v1");
  j.set("scenario", spec_to_json(a.spec));
  Json failure = Json::object();
  failure.set("kind", failure_kind_name(a.failure));
  failure.set("detail", a.detail);
  j.set("failure", std::move(failure));
  if (!a.observed.is_null()) j.set("observed", a.observed);
  if (!a.rings.is_null()) j.set("rings", a.rings);
  return j.dump();
}

bool artifact_from_text(const std::string& text, ReplayArtifact* out, std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  std::string perr;
  const Json j = Json::parse(text, &perr);
  if (!perr.empty()) return fail("parse error: " + perr);
  if (j.type() != Json::Type::kObject) return fail("artifact must be an object");
  const Json* format = j.find("format");
  if (format == nullptr || format->as_string() != "wfsort-repro-v1") {
    return fail("missing or unsupported format marker");
  }
  ReplayArtifact a;
  const Json* scenario = j.find("scenario");
  if (scenario == nullptr) return fail("missing scenario");
  if (!spec_from_json(*scenario, &a.spec, error)) return false;
  if (const Json* failure = j.find("failure"); failure != nullptr) {
    if (!parse_failure_kind(failure->at("kind").as_string(), &a.failure)) {
      return fail("unknown failure kind");
    }
    if (const Json* detail = failure->find("detail"); detail != nullptr) {
      a.detail = detail->as_string();
    }
  }
  if (const Json* observed = j.find("observed"); observed != nullptr) {
    a.observed = *observed;
  }
  if (const Json* rings = j.find("rings"); rings != nullptr) {
    a.rings = *rings;
  }
  *out = a;
  return true;
}

bool write_artifact(const ReplayArtifact& a, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << artifact_to_text(a);
  return static_cast<bool>(out);
}

bool load_artifact(const std::string& path, ReplayArtifact* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return artifact_from_text(buf.str(), out, error);
}

ReplayOutcome replay(const ReplayArtifact& a) {
  ReplayOutcome outcome;
  outcome.result = run_scenario(a.spec);
  outcome.reproduced =
      a.failure != FailureKind::kNone && outcome.result.failure == a.failure;
  outcome.exact = outcome.reproduced && outcome.result.detail == a.detail;
  return outcome;
}

}  // namespace wfsort::runtime
