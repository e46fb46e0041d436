#include "runtime/search.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "pram/trace.h"
#include "pramsort/lc_layout.h"
#include "pramsort/lc_programs.h"
#include "pramsort/layout.h"
#include "workalloc/wat_program.h"

namespace wfsort::runtime {

namespace {

// Watches the deterministic sort's regions during a faultless run and
// records the landmark rounds symbolic triggers refer to.
class ProbeTracer final : public pram::Tracer {
 public:
  ProbeTracer(const sim::SortLayout& l, const pram::Region& wat)
      : size_(l.size), place_(l.place), child_(l.child), wat_(wat) {}

  void on_event(const pram::TraceEvent& e) override {
    if (e.kind == pram::OpKind::kWrite) {
      if (report_.phase2_entry == 0 && size_.contains(e.addr)) {
        report_.phase2_entry = e.round;
      }
      if (report_.phase3_entry == 0 && place_.contains(e.addr)) {
        report_.phase3_entry = e.round;
      }
      // WAT nodes are claimed by plain kDone writes (Figure 1 marks nodes,
      // it does not CAS them), so a claim landmark is a write into the WAT.
      if (wat_.contains(e.addr)) {
        if (report_.first_wat_claim == 0) report_.first_wat_claim = e.round;
        report_.last_wat_claim = e.round;
      }
      return;
    }
    if (e.kind != pram::OpKind::kCas || e.result != e.arg0) return;  // failed CAS
    if (child_.contains(e.addr) && report_.cas_install_rounds.size() < kMaxInstalls) {
      report_.cas_install_rounds.push_back(e.round);
    }
  }

  ProbeReport take() { return std::move(report_); }

 private:
  static constexpr std::size_t kMaxInstalls = 1u << 20;

  pram::Region size_;
  pram::Region place_;
  pram::Region child_;
  pram::Region wat_;
  ProbeReport report_;
};

std::uint64_t resolve_one(const FaultEvent& e, const ProbeReport& probe) {
  const auto offset = [&e](std::uint64_t landmark) {
    // A landmark that never happened (e.g. a sort too small to reach the
    // phase) degrades to a plain round trigger.
    return landmark == 0 ? std::max<std::uint64_t>(e.at, 1) : landmark + e.at;
  };
  switch (e.trigger) {
    case TriggerKind::kRound: return e.at;
    case TriggerKind::kPhase2Entry: return offset(probe.phase2_entry);
    case TriggerKind::kPhase3Entry: return offset(probe.phase3_entry);
    case TriggerKind::kFirstWatClaim: return offset(probe.first_wat_claim);
    case TriggerKind::kLastWatClaim: return offset(probe.last_wat_claim);
    case TriggerKind::kInstallCas: {
      if (probe.cas_install_rounds.empty()) return std::max<std::uint64_t>(e.at, 1);
      const std::uint64_t idx =
          std::min<std::uint64_t>(std::max<std::uint64_t>(e.at, 1),
                                  probe.cas_install_rounds.size());
      return probe.cas_install_rounds[static_cast<std::size_t>(idx - 1)];
    }
  }
  return e.at;
}

// Kill patterns aimed at one landmark round, for a crew of `procs`.
void add_patterns_at(std::uint32_t procs, std::uint64_t r, std::vector<FaultScript>* out) {
  if (procs < 2) return;
  const std::uint64_t at = std::max<std::uint64_t>(r, 1);

  FaultScript all_but_one;  // the lone-survivor scenario wait-freedom promises
  for (std::uint32_t p = 1; p < procs; ++p) {
    all_but_one.add({FaultAction::kKill, TriggerKind::kRound, p, at, 0});
  }
  out->push_back(std::move(all_but_one));

  FaultScript half;
  for (std::uint32_t p = 0; p < procs / 2; ++p) {
    half.add({FaultAction::kKill, TriggerKind::kRound, p, at, 0});
  }
  out->push_back(std::move(half));

  FaultScript single;
  single.add({FaultAction::kKill, TriggerKind::kRound, procs - 1, at, 0});
  out->push_back(std::move(single));

  FaultScript staggered;  // one casualty per round, marching across the crew
  for (std::uint32_t p = 1; p < procs; ++p) {
    staggered.add({FaultAction::kKill, TriggerKind::kRound, p, at + p, 0});
  }
  out->push_back(std::move(staggered));

  FaultScript stall_half;  // page-fault burst: half the crew naps together
  for (std::uint32_t p = 0; p < procs / 2; ++p) {
    stall_half.add({FaultAction::kSleep, TriggerKind::kRound, p, at, 64});
  }
  out->push_back(std::move(stall_half));
}

bool native_representable(const FaultScript& s) {
  for (const FaultEvent& e : s.events) {
    if (e.action == FaultAction::kSuspend || e.action == FaultAction::kRevive) return false;
  }
  return true;
}

}  // namespace

SearchStats::FamilyProgress& SearchStats::family(const std::string& name) {
  for (FamilyProgress& f : families) {
    if (f.family == name) return f;
  }
  families.push_back(FamilyProgress{name, 0, 0, 0});
  return families.back();
}

Json search_stats_json(const SearchStats& stats) {
  Json doc = Json::object();
  doc.set("schema", "wfsort-search-v1");
  doc.set("runs", stats.runs);
  doc.set("probes", stats.probes);
  doc.set("scripts", stats.scripts);
  doc.set("failures", stats.failures);
  Json families = Json::array();
  for (const SearchStats::FamilyProgress& f : stats.families) {
    Json fj = Json::object();
    fj.set("family", f.family);
    fj.set("runs", f.runs);
    fj.set("scripts", f.scripts);
    fj.set("failures", f.failures);
    families.push_back(std::move(fj));
  }
  doc.set("families", std::move(families));
  return doc;
}

ProbeReport probe_scenario(const ScenarioSpec& spec) {
  WFSORT_CHECK(spec.substrate == Substrate::kSim);
  const std::vector<pram::Word> keys =
      exp::make_word_keys(spec.n, spec.dist, spec.workload_seed);

  pram::MachineOptions mopts;
  mopts.seed = spec.machine_seed;
  mopts.memory_model = spec.memory;
  mopts.max_rounds = spec.max_rounds != 0 ? spec.max_rounds : default_round_cap(spec);
  mopts.sim_threads = spec.sim_threads;
  if (spec.sim_threads > 1) mopts.par_round_min = 1;  // as in run_sim_scenario
  pram::Machine m(mopts);
  const std::unique_ptr<pram::Scheduler> sched = make_scheduler(spec.sched);

  if (spec.variant == SortKind::kDet) {
    const sim::SortLayout layout = sim::make_sort_layout(m.mem(), keys);
    auto l = std::make_shared<const sim::SortLayout>(layout);
    auto wat = std::make_shared<const sim::PramWat>(
        sim::make_pram_wat(m.mem(), "phase1 WAT", keys.size()));
    sim::DetSortConfig cfg;
    cfg.procs = spec.procs;
    cfg.prune = spec.prune;
    cfg.random_first = spec.random_first;
    for (std::uint32_t p = 0; p < spec.procs; ++p) {
      m.spawn([l, wat, cfg](pram::Ctx& ctx) { return sim::det_sort_worker(ctx, *l, *wat, cfg); });
    }
    ProbeTracer tracer(layout, wat->region);
    m.set_tracer(&tracer);
    const pram::RunResult run = m.run(*sched);
    ProbeReport report = tracer.take();
    report.rounds = run.rounds;
    return report;
  }

  WFSORT_CHECK(spec.n >= 4);
  const sim::LcSortLayout layout = sim::make_lc_sort_layout(m, keys, spec.procs);
  auto l = std::make_shared<const sim::LcSortLayout>(layout);
  for (std::uint32_t p = 0; p < spec.procs; ++p) {
    m.spawn([l](pram::Ctx& ctx) { return sim::lc_sort_worker(ctx, *l); });
  }
  const pram::RunResult run = m.run(*sched);
  ProbeReport report;  // no det landmarks; offsets degrade to plain rounds
  report.rounds = run.rounds;
  return report;
}

FaultScript resolve_script(const FaultScript& script, const ProbeReport& probe) {
  FaultScript out;
  for (const FaultEvent& e : script.events) {
    FaultEvent r = e;
    r.at = resolve_one(e, probe);
    r.trigger = TriggerKind::kRound;
    out.add(r);
  }
  return out;
}

std::vector<FaultScript> structured_scripts(std::uint32_t procs, const ProbeReport& probe) {
  std::vector<std::uint64_t> landmarks;
  const auto add_landmark = [&landmarks](std::uint64_t r) {
    if (r != 0 &&
        std::find(landmarks.begin(), landmarks.end(), r) == landmarks.end()) {
      landmarks.push_back(r);
    }
  };
  add_landmark(1);
  add_landmark(probe.phase2_entry);
  add_landmark(probe.phase2_entry + 1);
  add_landmark(probe.phase3_entry);
  add_landmark(probe.phase3_entry + 1);
  add_landmark(probe.first_wat_claim);
  add_landmark(probe.last_wat_claim);
  if (!probe.cas_install_rounds.empty()) {
    add_landmark(probe.cas_install_rounds.front());
    add_landmark(probe.cas_install_rounds[probe.cas_install_rounds.size() / 2]);
    add_landmark(probe.cas_install_rounds.back());
  }
  if (probe.rounds > 2) add_landmark(probe.rounds / 2);

  std::vector<FaultScript> scripts;
  for (const std::uint64_t r : landmarks) add_patterns_at(procs, r, &scripts);

  if (procs >= 2 && probe.rounds > 8) {
    FaultScript freeze_revive;  // suspend half mid-run, wake them near the end
    for (std::uint32_t p = 0; p < procs / 2; ++p) {
      freeze_revive.add(
          {FaultAction::kSuspend, TriggerKind::kRound, p, probe.rounds / 2, 0});
      freeze_revive.add(
          {FaultAction::kRevive, TriggerKind::kRound, p, probe.rounds - 1, 0});
    }
    scripts.push_back(std::move(freeze_revive));
  }
  return scripts;
}

FaultScript random_script(std::uint32_t procs, std::uint64_t horizon, Rng& rng) {
  FaultScript s;
  const std::uint64_t h = std::max<std::uint64_t>(horizon, 2);
  const std::uint32_t n_events = 1 + static_cast<std::uint32_t>(rng.below(4));
  std::vector<std::uint8_t> killed(procs, 0);
  std::uint32_t kills = 0;
  for (std::uint32_t i = 0; i < n_events; ++i) {
    const std::uint32_t target = static_cast<std::uint32_t>(rng.below(procs));
    const std::uint64_t at = 1 + rng.below(h);
    const std::uint64_t roll = rng.below(100);
    if (roll < 60 && kills + 1 < procs && killed[target] == 0) {
      s.add({FaultAction::kKill, TriggerKind::kRound, target, at, 0});
      killed[target] = 1;
      ++kills;
    } else if (roll < 85) {
      s.add({FaultAction::kSleep, TriggerKind::kRound, target, at, 1 + rng.below(128)});
    } else {
      s.add({FaultAction::kSuspend, TriggerKind::kRound, target, at, 0});
      s.add({FaultAction::kRevive, TriggerKind::kRound, target, at + 1 + rng.below(64), 0});
    }
  }
  return s;
}

bool search_for_violation(const ScenarioSpec& base, const SearchOptions& opts,
                          ReplayArtifact* out, SearchStats* stats) {
  SearchStats local;
  SearchStats& st = stats != nullptr ? *stats : local;
  st = SearchStats{};
  Rng rng(opts.seed);

  std::vector<SchedSpec> scheds;
  if (opts.sweep_schedulers && base.substrate == Substrate::kSim) {
    scheds = all_sched_specs(base.procs, base.machine_seed);
  } else {
    scheds.push_back(base.sched);
  }

  for (const SchedSpec& sched : scheds) {
    SearchStats::FamilyProgress& fam = st.family(sched_family_name(sched.family));
    ScenarioSpec probe_spec = base;
    probe_spec.sched = sched;
    probe_spec.script = FaultScript{};

    ProbeReport probe;
    if (base.substrate == Substrate::kSim) {
      probe = probe_scenario(probe_spec);
      ++st.probes;
    } else {
      // Native triggers are checkpoint counts; a worker takes at least ~n/P
      // checkpoints, so early counts are where the damage is.
      probe.rounds = std::max<std::uint64_t>(base.n, 64);
    }

    std::vector<FaultScript> scripts = structured_scripts(base.procs, probe);
    for (std::uint32_t i = 0; i < opts.random_scripts; ++i) {
      scripts.push_back(random_script(base.procs, probe.rounds, rng));
    }
    st.scripts += scripts.size();
    fam.scripts += scripts.size();

    for (const FaultScript& script : scripts) {
      if (st.runs >= opts.max_runs) return false;
      const FaultScript resolved = resolve_script(script, probe);
      if (!resolved.validate(base.procs).empty()) continue;
      if (base.substrate == Substrate::kNative && !native_representable(resolved)) continue;

      ScenarioSpec candidate = base;
      candidate.sched = sched;
      candidate.script = resolved;
      const ScenarioResult res = run_scenario(candidate);
      ++st.runs;
      ++fam.runs;
      if (!res.ok()) {
        ++st.failures;
        ++fam.failures;
        out->spec = candidate;
        out->failure = res.failure;
        out->detail = res.detail;
        out->observed = res.stats;
        out->rings = res.rings;
        return true;
      }
    }
  }
  return false;
}

ReplayArtifact shrink_artifact(const ReplayArtifact& artifact, const ShrinkOptions& opts,
                               SearchStats* stats) {
  SearchStats local;
  SearchStats& st = stats != nullptr ? *stats : local;
  st = SearchStats{};

  ReplayArtifact best = artifact;
  std::vector<FaultEvent> events = artifact.spec.script.events;
  Json observed = artifact.observed;
  Json rings = artifact.rings;

  const auto still_fails = [&](const std::vector<FaultEvent>& candidate,
                               std::string* detail) {
    if (st.runs >= opts.max_runs) return false;
    FaultScript s;
    s.events = candidate;
    if (!s.concrete() || !s.validate(artifact.spec.procs).empty()) return false;
    ScenarioSpec spec = artifact.spec;
    spec.script = s;
    const ScenarioResult res = run_scenario(spec);
    ++st.runs;
    if (res.failure != artifact.failure) return false;
    if (detail != nullptr) *detail = res.detail;
    // Every accepted candidate becomes the artifact, so keep its stats as
    // the observed document the minimized artifact ships with.
    observed = res.stats;
    rings = res.rings;
    ++st.failures;
    return true;
  };

  // ddmin over the event list: remove chunks while the failure survives,
  // halving the chunk size whenever a full pass removes nothing.
  std::string detail = artifact.detail;
  std::size_t chunk = std::max<std::size_t>(1, (events.size() + 1) / 2);
  while (!events.empty()) {
    bool removed = false;
    for (std::size_t start = 0; start < events.size();) {
      std::vector<FaultEvent> candidate;
      candidate.reserve(events.size());
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (i < start || i >= start + chunk) candidate.push_back(events[i]);
      }
      if (candidate.size() < events.size() && still_fails(candidate, &detail)) {
        events = std::move(candidate);
        removed = true;
      } else {
        start += chunk;
      }
    }
    if (!removed) {
      if (chunk == 1) break;
      chunk = std::max<std::size_t>(1, chunk / 2);
    } else {
      chunk = std::min(chunk, std::max<std::size_t>(1, events.size() / 2));
    }
  }

  // Pull each surviving trigger (and sleep duration) toward 1.
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (auto field : {&FaultEvent::at, &FaultEvent::sleep_for}) {
      if (events[i].*field <= 1) continue;
      bool shrunk = true;
      while (shrunk && events[i].*field > 1) {
        shrunk = false;
        const std::uint64_t cur = events[i].*field;
        for (const std::uint64_t smaller : {std::uint64_t{1}, cur / 2, cur - 1}) {
          if (smaller >= cur || smaller == 0) continue;
          std::vector<FaultEvent> candidate = events;
          candidate[i].*field = smaller;
          if (still_fails(candidate, &detail)) {
            events = std::move(candidate);
            shrunk = true;
            break;
          }
        }
      }
    }
  }

  best.spec.script.events = std::move(events);
  best.detail = detail;
  best.observed = std::move(observed);
  best.rings = std::move(rings);
  return best;
}

}  // namespace wfsort::runtime
