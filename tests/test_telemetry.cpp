// Tests for the unified telemetry layer: the LogHistogram/Recorder data
// model, native-engine recording at each Level, the "wfsort-stats-v1" JSON
// schema (golden-pinned so downstream dashboards can rely on its shape),
// the Chrome-trace exporter, and the observed-stats plumbing through
// adversary artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/pool.h"
#include "core/session.h"
#include "core/sort.h"
#include "runtime/fault_plan.h"
#include "runtime/scenario.h"
#include "runtime/search.h"
#include "telemetry/recorder.h"
#include "telemetry/report.h"
#include "telemetry/schema.h"
#include "telemetry/trace_export.h"

namespace {

namespace tel = wfsort::telemetry;
using wfsort::Json;
using wfsort::Options;
using wfsort::SortStats;
using wfsort::Variant;

std::vector<std::uint64_t> random_data(std::size_t n, std::uint64_t seed) {
  wfsort::Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.next();
  return v;
}

SortStats sorted_run(std::size_t n, Variant variant, tel::Level level,
                     std::uint32_t threads = 4) {
  auto v = random_data(n, 42);
  Options opts;
  opts.threads = threads;
  opts.variant = variant;
  opts.telemetry = level;
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v), opts, &stats);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  return stats;
}

std::vector<std::string> object_keys(const Json& j) {
  std::vector<std::string> keys;
  for (const auto& [k, v] : j.object_items()) keys.push_back(k);
  return keys;
}

// ---- LogHistogram -------------------------------------------------------

TEST(LogHistogram, BucketMapping) {
  tel::LogHistogram h;
  h.add(0);  // bucket 0
  h.add(1);  // bucket 1
  h.add(2);  // bucket 2: [2, 4)
  h.add(3);
  h.add(4);  // bucket 3: [4, 8)
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 2u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.total, 5u);
  EXPECT_EQ(h.sum, 10u);
  EXPECT_EQ(h.max, 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_EQ(h.max_nonzero_bucket(), 3u);
}

TEST(LogHistogram, HugeValuesClampToLastBucket) {
  tel::LogHistogram h;
  h.add(std::uint64_t{1} << 40);
  h.add(~std::uint64_t{0});
  EXPECT_EQ(h.counts[tel::LogHistogram::kBuckets - 1], 2u);
  EXPECT_EQ(h.max, ~std::uint64_t{0});
  EXPECT_EQ(h.max_nonzero_bucket(), tel::LogHistogram::kBuckets - 1);
}

TEST(LogHistogram, MergeAccumulates) {
  tel::LogHistogram a, b;
  a.add(1);
  a.add(8);
  b.add(8);
  b.add(100);
  a.merge(b);
  EXPECT_EQ(a.total, 4u);
  EXPECT_EQ(a.sum, 117u);
  EXPECT_EQ(a.max, 100u);
  EXPECT_EQ(a.counts[4], 2u);  // 8 is in [8, 16)
}

// ---- Recorder -----------------------------------------------------------

TEST(Recorder, SpansAndBoundsCheckedScratch) {
  tel::Recorder rec(tel::Level::kPhases, 4);
  EXPECT_FALSE(rec.detail());
  EXPECT_EQ(rec.scratch(4), nullptr);  // beyond the preallocated range
  tel::WorkerScratch* s = rec.scratch(2);
  ASSERT_NE(s, nullptr);
  s->begin_phase(tel::PhaseId::kBuild);
  s->begin_phase(tel::PhaseId::kSum);  // closes kBuild at the same instant
  s->end_phase();
  const tel::Report rep = rec.snapshot();
  ASSERT_EQ(rep.workers.size(), 1u);
  EXPECT_EQ(rep.workers[0].tid, 2u);
  ASSERT_EQ(rep.workers[0].spans.size(), 2u);
  EXPECT_EQ(rep.workers[0].spans[0].phase, tel::PhaseId::kBuild);
  EXPECT_EQ(rep.workers[0].spans[0].end_us, rep.workers[0].spans[1].begin_us);
  const auto present = rep.phases_present();
  EXPECT_EQ(present, (std::vector<tel::PhaseId>{tel::PhaseId::kBuild,
                                                tel::PhaseId::kSum}));
}

TEST(Recorder, ScratchCloserTruncatesOpenSpan) {
  tel::Recorder rec(tel::Level::kFull, 2);
  {
    tel::WorkerScratch* s = rec.scratch(0);
    tel::ScratchCloser closer(s);
    s->begin_phase(tel::PhaseId::kPlace);
    // "crash": scope exit without end_phase()
  }
  const tel::Report rep = rec.snapshot();
  ASSERT_EQ(rep.workers.size(), 1u);
  ASSERT_EQ(rep.workers[0].spans.size(), 1u);
  EXPECT_EQ(rep.workers[0].spans[0].phase, tel::PhaseId::kPlace);
}

// ---- native engine recording --------------------------------------------

TEST(NativeTelemetry, OffByDefaultAndFreeOfReport) {
  // A kOff run whose caller wants no SortStats builds no Recorder at all.
  auto v = random_data(20000, 42);
  wfsort::detail::Engine<std::uint64_t, std::less<std::uint64_t>> engine(
      std::span<std::uint64_t>(v), {}, Options{.threads = 4});
  EXPECT_EQ(engine.recorder(), nullptr);
  // Asking for SortStats makes the same run record at kPhases, without rings.
  const SortStats stats = sorted_run(20000, Variant::kDeterministic, tel::Level::kOff);
  ASSERT_NE(stats.telemetry, nullptr);
  EXPECT_EQ(stats.telemetry->level, tel::Level::kPhases);
  for (const tel::WorkerReport& w : stats.telemetry->workers) {
    EXPECT_TRUE(w.ring.empty());
    EXPECT_EQ(w.ring_total, 0u);
  }
}

TEST(NativeTelemetry, PhasesLevelRecordsSpansOnly) {
  const SortStats stats =
      sorted_run(20000, Variant::kDeterministic, tel::Level::kPhases);
  ASSERT_NE(stats.telemetry, nullptr);
  EXPECT_EQ(stats.telemetry->level, tel::Level::kPhases);
  EXPECT_GT(stats.telemetry->wall_us, 0u);
  ASSERT_FALSE(stats.telemetry->workers.empty());
  for (const tel::WorkerReport& w : stats.telemetry->workers) {
    EXPECT_FALSE(w.spans.empty());
  }
  const auto present = stats.telemetry->phases_present();
  for (tel::PhaseId p : {tel::PhaseId::kBuild, tel::PhaseId::kSum, tel::PhaseId::kPlace}) {
    EXPECT_NE(std::find(present.begin(), present.end(), p), present.end())
        << tel::phase_name(p);
  }
  // The run counters SortStats reads are recorded at kPhases; histograms
  // are full-level only.
  EXPECT_EQ(stats.telemetry->counter_total(tel::Counter::kCasInstalls), 20000u - 1);
  EXPECT_EQ(stats.telemetry->merged_cas_retries().total, 0u);
}

TEST(NativeTelemetry, FullLevelDetCountersAreExact) {
  const std::size_t n = 20000;
  const SortStats stats = sorted_run(n, Variant::kDeterministic, tel::Level::kFull);
  ASSERT_NE(stats.telemetry, nullptr);
  const tel::Report& rep = *stats.telemetry;
  // Every tree node except the root is installed by exactly one winning CAS.
  EXPECT_EQ(rep.counter_total(tel::Counter::kCasInstalls), n - 1);
  EXPECT_EQ(stats.cas_successes, n - 1);
  EXPECT_GT(rep.counter_total(tel::Counter::kWatClaims), 0u);
  EXPECT_GE(rep.counter_total(tel::Counter::kWatProbes),
            rep.counter_total(tel::Counter::kWatClaims));
  // One cas_retries sample per retired element insertion.
  EXPECT_GE(rep.merged_cas_retries().total, n - 1);
  EXPECT_EQ(rep.counter_total(tel::Counter::kCasFailures),
            rep.merged_cas_retries().sum);
}

TEST(NativeTelemetry, FullLevelLeafSortCounters) {
  auto v = random_data(20000, 42);
  Options opts;
  opts.threads = 4;
  opts.telemetry = tel::Level::kFull;
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v), opts, &stats);
  ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
  ASSERT_NE(stats.telemetry, nullptr);
  const tel::Report& rep = *stats.telemetry;
  // With the default seq_cutoff, phase 3 bottoms out in leaf-sorted blocks,
  // and small blocks go through the insertion-sort dispatch.
  EXPECT_GT(rep.counter_total(tel::Counter::kLeafBlocks), 0u);
  EXPECT_GT(rep.counter_total(tel::Counter::kLeafInsertionSorts), 0u);
}

TEST(NativeTelemetry, FullLevelPartitionCountersAndPhases) {
  auto v = random_data(20000, 43);
  Options opts;
  opts.threads = 4;
  opts.phase1 = wfsort::Phase1::kPartition;
  opts.telemetry = tel::Level::kFull;
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v), opts, &stats);
  ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
  ASSERT_NE(stats.telemetry, nullptr);
  const tel::Report& rep = *stats.telemetry;
  const auto present = rep.phases_present();
  for (tel::PhaseId p : {tel::PhaseId::kPartClassify, tel::PhaseId::kPartScatter,
                         tel::PhaseId::kPartSort}) {
    EXPECT_NE(std::find(present.begin(), present.end(), p), present.end())
        << tel::phase_name(p);
  }
  // n = 20000 yields several buckets, so splitters were sampled and every
  // bucket went through the leaf sort.
  EXPECT_GT(rep.counter_total(tel::Counter::kSplitterSamples), 0u);
  EXPECT_GT(rep.counter_total(tel::Counter::kLeafBlocks), 0u);
  const Json doc =
      tel::native_stats_json(tel::native_run_info(opts, v.size()), stats);
  EXPECT_EQ(doc.at("config").at("phase1").as_string(), "partition");
  std::string error;
  EXPECT_TRUE(tel::validate_stats_json(doc, &error)) << error;
}

TEST(NativeTelemetry, FullLevelLcRecordsStageSpans) {
  const SortStats stats =
      sorted_run(20000, Variant::kLowContention, tel::Level::kFull);
  ASSERT_NE(stats.telemetry, nullptr);
  const auto present = stats.telemetry->phases_present();
  for (tel::PhaseId p :
       {tel::PhaseId::kLcPresort, tel::PhaseId::kLcWinner, tel::PhaseId::kLcSortedIdx,
        tel::PhaseId::kLcFatten, tel::PhaseId::kLcInsert, tel::PhaseId::kSum,
        tel::PhaseId::kPlace}) {
    EXPECT_NE(std::find(present.begin(), present.end(), p), present.end())
        << tel::phase_name(p);
  }
  EXPECT_GT(stats.telemetry->counter_total(tel::Counter::kFatHits) +
                stats.telemetry->counter_total(tel::Counter::kFatMisses),
            0u);
}

// SortStats has no counters of its own: every counter field is read off
// the run's Report, at every level a stats request can record at, crashed
// workers' tallies included.
TEST(NativeTelemetry, SortStatsEqualsReport) {
  constexpr std::size_t kN = 20000;
  constexpr std::uint32_t kThreads = 4;
  for (const Variant variant : {Variant::kDeterministic, Variant::kLowContention}) {
    for (const tel::Level level : {tel::Level::kOff, tel::Level::kPhases, tel::Level::kFull}) {
      for (const bool faults : {false, true}) {
        const std::string where = std::string(variant == Variant::kDeterministic ? "det" : "lc") +
                                  " level=" + tel::level_name(level) +
                                  (faults ? " staggered kills" : "");
        auto v = random_data(kN, 77);
        Options opts;
        opts.threads = kThreads;
        opts.variant = variant;
        opts.telemetry = level;
        wfsort::runtime::FaultPlan plan(kThreads);
        if (faults) {
          plan.crash_at(1, 1);
          plan.crash_at(2, 2000);
          plan.crash_at(3, 15000);
        }
        SortStats stats;
        ASSERT_TRUE(wfsort::sort_with_faults(std::span<std::uint64_t>(v), opts, plan, &stats))
            << where;
        ASSERT_TRUE(std::is_sorted(v.begin(), v.end())) << where;
        ASSERT_NE(stats.telemetry, nullptr) << where;
        const tel::Report& rep = *stats.telemetry;
        EXPECT_EQ(rep.level, std::max(level, tel::Level::kPhases)) << where;
        EXPECT_EQ(stats.cas_successes, rep.counter_total(tel::Counter::kCasInstalls)) << where;
        EXPECT_EQ(stats.cas_failures, rep.counter_total(tel::Counter::kCasFailures)) << where;
        EXPECT_EQ(stats.fat_read_misses, rep.counter_total(tel::Counter::kFatMisses)) << where;
        EXPECT_EQ(stats.total_build_iters, rep.counter_total(tel::Counter::kBuildIters)) << where;
        EXPECT_EQ(stats.max_build_iters, rep.max_build_iters()) << where;
        EXPECT_EQ(stats.crashed_workers, rep.crashed_workers()) << where;
        EXPECT_EQ(stats.crashed_workers + stats.completed_workers, kThreads) << where;
        if (faults) {
          // Worker 1 dies at its first checkpoint; the later kills land only
          // if the survivors have not finished the sort by then.
          EXPECT_GE(stats.crashed_workers, 1u) << where;
          continue;
        }
        EXPECT_EQ(stats.crashed_workers, 0u) << where;
        // Real values, not zeros.  One install per non-root element of the
        // pivot tree; lc also installs the non-root elements of each of its
        // two group pre-sort trees (127-element slices at this N and t),
        // one of which becomes the pivot tree's top.
        const std::uint64_t installs =
            variant == Variant::kDeterministic ? kN - 1 : kN - 1 + (127 - 1);
        EXPECT_EQ(stats.cas_successes, installs) << where;
        EXPECT_GT(stats.total_build_iters, 0u) << where;
        EXPECT_GE(stats.total_build_iters, stats.cas_successes) << where;
        EXPECT_LE(stats.max_build_iters, kN - 1) << where;  // Lemma 2.4
      }
    }
  }
  // cas_failures counts lost CASes, not occupied-slot hops: one worker has
  // no rival, so a one-thread det-tree or lc run loses none.
  for (const Variant variant : {Variant::kDeterministic, Variant::kLowContention}) {
    auto v = random_data(kN, 78);
    Options opts;
    opts.threads = 1;
    opts.variant = variant;
    opts.phase1 = wfsort::Phase1::kTree;
    SortStats stats;
    wfsort::sort(std::span<std::uint64_t>(v), opts, &stats);
    EXPECT_EQ(stats.cas_failures, 0u) << (variant == Variant::kDeterministic ? "det" : "lc");
  }
}

// SortStats::workers counts the workers that ran, each of which completed
// or crashed, on every path: one-shot and sort_permutation (the caller alone
// below kCallerOnlyCutoff, all `threads` at or above it), pooled caller-only
// and pooled wake (where a parked thread may not claim its id before the
// sort is done).  The stats document's totals.workers is the same number.
TEST(NativeTelemetry, StatsWorkersAreTheWorkersThatRan) {
  constexpr std::uint32_t kThreads = 4;
  wfsort::SortPool pool(kThreads);
  for (const std::size_t n : {std::size_t{1000}, std::size_t{20000}}) {
    const bool solo = n < wfsort::kCallerOnlyCutoff;
    for (const wfsort::Phase1 phase1 : {wfsort::Phase1::kTree, wfsort::Phase1::kPartition}) {
      Options opts;
      opts.threads = kThreads;
      opts.phase1 = phase1;
      const auto input = random_data(n, 79);
      const auto check = [&](const char* path, const SortStats& stats, bool width_known) {
        const std::string where = std::string(path) + " n=" + std::to_string(n) +
                                  (phase1 == wfsort::Phase1::kTree ? " tree" : " partition");
        EXPECT_EQ(stats.completed_workers + stats.crashed_workers, stats.workers) << where;
        EXPECT_GE(stats.workers, 1u) << where;
        EXPECT_LE(stats.workers, kThreads) << where;
        if (width_known) {
          EXPECT_EQ(stats.workers, solo ? 1u : kThreads) << where;
        }
        const Json doc = tel::native_stats_json(tel::native_run_info(opts, n), stats);
        EXPECT_EQ(doc.at("totals").at("workers").as_u64(), stats.workers) << where;
      };
      SortStats stats;
      auto v = input;
      wfsort::sort(std::span<std::uint64_t>(v), opts, &stats);
      check("sort", stats, true);
      wfsort::sort_permutation(std::span<const std::uint64_t>(input), opts,
                               std::less<std::uint64_t>{}, &stats);
      check("sort_permutation", stats, true);
      v = input;
      pool.sort(std::span<std::uint64_t>(v), opts, &stats);
      check(solo ? "pooled caller-only" : "pooled wake", stats, solo);
    }
  }
}

TEST(NativeTelemetry, SessionExposesReportAfterWait) {
  auto v = random_data(20000, 7);
  Options opts;
  opts.threads = 2;
  opts.telemetry = tel::Level::kPhases;
  wfsort::SortSession<std::uint64_t> session(std::span<std::uint64_t>(v), opts);
  EXPECT_EQ(session.telemetry(), nullptr);  // not snapshotted until wait()
  session.spawn_worker();
  session.wait();
  ASSERT_NE(session.telemetry(), nullptr);
  EXPECT_FALSE(session.telemetry()->workers.empty());
}

// ---- stats schema -------------------------------------------------------

TEST(StatsSchema, GoldenNativeShape) {
  Options opts;
  opts.threads = 4;
  opts.telemetry = tel::Level::kFull;
  auto v = random_data(20000, 11);
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v), opts, &stats);

  const Json doc = tel::native_stats_json(tel::native_run_info(opts, v.size()), stats);
  // Golden pin: the document's top-level shape is the schema contract.
  EXPECT_EQ(object_keys(doc),
            (std::vector<std::string>{"schema", "substrate", "build_type",
                                      "config", "totals", "phases", "counters",
                                      "histograms", "sketches", "contention",
                                      "rings"}));
  EXPECT_EQ(doc.at("schema").as_string(), "wfsort-stats-v1");
  EXPECT_EQ(doc.at("substrate").as_string(), "native");
  EXPECT_EQ(object_keys(doc.at("config")),
            (std::vector<std::string>{"variant", "n", "threads", "seed", "wat_batch",
                                      "seq_cutoff", "lc_copies", "phase1", "telemetry"}));
  EXPECT_EQ(doc.at("config").at("phase1").as_string(), "tree");
  EXPECT_EQ(doc.at("config").at("telemetry").as_string(), "full");
  EXPECT_EQ(object_keys(doc.at("histograms")),
            (std::vector<std::string>{"cas_retries", "wat_probes"}));
  EXPECT_EQ(object_keys(doc.at("contention")),
            (std::vector<std::string>{"max_site", "max_value", "sites"}));
  EXPECT_FALSE(doc.at("phases").items().empty());
  // Latency sketches fill for every recorded phase; post-mortem rings stay
  // empty on a clean (crash-free) run.
  EXPECT_FALSE(doc.at("sketches").object_items().empty());
  EXPECT_TRUE(doc.at("rings").items().empty());
  // Golden pin: the full-level counters object names the leaf-sort and
  // partition instrumentation — dashboards key on these exact strings.
  const Json& counters = doc.at("counters");
  for (const char* name : {"leaf_blocks", "leaf_insertion_sorts",
                           "leaf_heapsorts", "partition_swaps",
                           "splitter_samples"}) {
    EXPECT_NE(counters.find(name), nullptr) << name;
  }

  std::string error;
  EXPECT_TRUE(tel::validate_stats_json(doc, &error)) << error;
  // Stats documents carry build provenance and honor the release gate.
  const bool is_release = std::string(tel::build_type_name()) == "release";
  EXPECT_EQ(tel::validate_stats_json(doc, &error, /*require_release=*/true),
            is_release);
}

TEST(StatsSchema, NativeOffLevelStillValidates) {
  const SortStats stats = sorted_run(20000, Variant::kDeterministic, tel::Level::kOff);
  Options opts;
  opts.threads = 4;
  const Json doc = tel::native_stats_json(tel::native_run_info(opts, 20000), stats);
  std::string error;
  EXPECT_TRUE(tel::validate_stats_json(doc, &error)) << error;
  // The stats request recorded spans: the paper's three phases plus the
  // copy-back, under their own names.
  std::vector<std::string> names;
  for (const Json& ph : doc.at("phases").items()) names.push_back(ph.at("name").as_string());
  EXPECT_EQ(names, (std::vector<std::string>{"build", "sum", "place", "copy_back"}));
}

TEST(StatsSchema, SimScenarioProducesValidStats) {
  wfsort::runtime::ScenarioSpec spec;
  spec.n = 128;
  spec.procs = 8;
  const wfsort::runtime::ScenarioResult res = wfsort::runtime::run_scenario(spec);
  EXPECT_TRUE(res.ok()) << res.detail;
  ASSERT_FALSE(res.stats.is_null());
  std::string error;
  EXPECT_TRUE(tel::validate_stats_json(res.stats, &error)) << error;
  EXPECT_EQ(res.stats.at("substrate").as_string(), "sim");
  EXPECT_EQ(res.stats.at("config").at("program").as_string(), "det_sort");
  // Region attribution is the simulator's contention story.
  EXPECT_FALSE(res.stats.at("contention").at("attribution").object_items().empty());
}

TEST(StatsSchema, ValidatorRejectsMissingKeys) {
  Json doc = Json::object();
  doc.set("schema", tel::kStatsSchema);
  std::string error;
  EXPECT_FALSE(tel::validate_stats_json(doc, &error));
  EXPECT_FALSE(error.empty());
}

// The three native configurations (det tree, det partition, lc) each export
// a valid full-level stats document; the retired bench envelope's schema
// name is not one the validator accepts.
TEST(StatsSchema, BenchEnvelopeValidates) {
  const std::pair<Variant, wfsort::Phase1> configs[] = {
      {Variant::kDeterministic, wfsort::Phase1::kTree},
      {Variant::kDeterministic, wfsort::Phase1::kPartition},
      {Variant::kLowContention, wfsort::Phase1::kTree},
  };
  std::string error;
  for (const auto& [variant, phase1] : configs) {
    auto v = random_data(20000, 42);
    Options opts;
    opts.threads = 4;
    opts.variant = variant;
    opts.phase1 = phase1;
    opts.telemetry = tel::Level::kFull;
    SortStats stats;
    wfsort::sort(std::span<std::uint64_t>(v), opts, &stats);
    ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
    const Json doc = tel::native_stats_json(tel::native_run_info(opts, v.size()), stats);
    EXPECT_TRUE(tel::validate_stats_json(doc, &error))
        << doc.at("config").at("variant").as_string() << "/"
        << doc.at("config").at("phase1").as_string() << ": " << error;

    Json renamed = doc;
    renamed.set("schema", "wfsort-bench-v1");
    EXPECT_FALSE(tel::validate_stats_json(renamed, &error));
  }
}

// ---- Chrome trace export ------------------------------------------------

TEST(TraceExport, ChromeTraceShape) {
  const SortStats stats =
      sorted_run(20000, Variant::kDeterministic, tel::Level::kPhases);
  ASSERT_NE(stats.telemetry, nullptr);
  const Json doc = tel::chrome_trace_json(*stats.telemetry, "wfsort test");
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").items();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].at("ph").as_string(), "M");  // process_name metadata
  bool saw_span = false;
  for (const Json& ev : events) {
    if (ev.at("ph").as_string() != "X") continue;
    saw_span = true;
    EXPECT_NE(ev.find("ts"), nullptr);
    EXPECT_NE(ev.find("dur"), nullptr);
    EXPECT_NE(ev.find("pid"), nullptr);
    EXPECT_NE(ev.find("tid"), nullptr);
    EXPECT_EQ(ev.at("cat").as_string(), "phase");
  }
  EXPECT_TRUE(saw_span);
}

TEST(TraceExport, FileRoundTrip) {
  const SortStats stats =
      sorted_run(20000, Variant::kDeterministic, tel::Level::kPhases);
  ASSERT_NE(stats.telemetry, nullptr);
  const Json doc = tel::chrome_trace_json(*stats.telemetry, "wfsort test");
  const std::string path = testing::TempDir() + "/wfsort_trace.json";
  std::string error;
  ASSERT_TRUE(tel::write_text_file(path, doc.dump(), &error)) << error;

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const Json parsed = Json::parse(buf.str(), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(parsed.at("traceEvents").items().size(),
            doc.at("traceEvents").items().size());
}

// ---- adversary integration ----------------------------------------------

TEST(Artifacts, ObservedStatsRoundTrip) {
  wfsort::runtime::ReplayArtifact a;
  a.failure = wfsort::runtime::FailureKind::kUnsorted;
  a.detail = "test";
  Json observed = Json::object();
  observed.set("schema", tel::kStatsSchema);
  observed.set("marker", std::uint64_t{12345});
  a.observed = std::move(observed);

  const std::string text = wfsort::runtime::artifact_to_text(a);
  wfsort::runtime::ReplayArtifact back;
  std::string error;
  ASSERT_TRUE(wfsort::runtime::artifact_from_text(text, &back, &error)) << error;
  ASSERT_FALSE(back.observed.is_null());
  EXPECT_EQ(back.observed.dump(), a.observed.dump());
}

TEST(Artifacts, ObservedIsOptionalForOldArtifacts) {
  wfsort::runtime::ReplayArtifact a;  // no observed stats
  const std::string text = wfsort::runtime::artifact_to_text(a);
  EXPECT_EQ(text.find("observed"), std::string::npos);
  wfsort::runtime::ReplayArtifact back;
  std::string error;
  ASSERT_TRUE(wfsort::runtime::artifact_from_text(text, &back, &error)) << error;
  EXPECT_TRUE(back.observed.is_null());
}

TEST(SearchStats, PerFamilyProgressAndJson) {
  wfsort::runtime::SearchStats st;
  st.runs = 5;
  st.probes = 2;
  st.scripts = 9;
  st.family("sync").runs = 3;
  st.family("serial").runs = 2;
  st.family("sync").failures = 1;  // same entry found again, not duplicated
  ASSERT_EQ(st.families.size(), 2u);

  const Json doc = wfsort::runtime::search_stats_json(st);
  EXPECT_EQ(doc.at("schema").as_string(), "wfsort-search-v1");
  EXPECT_EQ(doc.at("runs").as_u64(), 5u);
  const auto& fams = doc.at("families").items();
  ASSERT_EQ(fams.size(), 2u);
  EXPECT_EQ(fams[0].at("family").as_string(), "sync");
  EXPECT_EQ(fams[0].at("failures").as_u64(), 1u);
}

TEST(SearchStats, HuntFillsFamilyCountersAndObserved) {
  // A tiny sim search over a correct algorithm: no violation, but every
  // family swept must account for its runs.
  wfsort::runtime::ScenarioSpec spec;
  spec.n = 64;
  spec.procs = 4;
  wfsort::runtime::SearchOptions sopts;
  sopts.max_runs = 6;
  sopts.random_scripts = 1;
  wfsort::runtime::ReplayArtifact artifact;
  wfsort::runtime::SearchStats st;
  const bool found =
      wfsort::runtime::search_for_violation(spec, sopts, &artifact, &st);
  EXPECT_FALSE(found);
  EXPECT_EQ(st.runs, 6u);
  ASSERT_FALSE(st.families.empty());
  std::uint64_t family_runs = 0;
  for (const auto& f : st.families) family_runs += f.runs;
  EXPECT_EQ(family_runs, st.runs);
}

}  // namespace
