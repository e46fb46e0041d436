// The live monitor — an optional sampler thread that turns the workers'
// flight-recorder rings into a stream of "wfsort-monitor-v1" JSONL records.
//
// The monitor never touches worker scratch: its only channel is the rings'
// seqlock snapshots (ring.h), so sampling can run at any interval while the
// sort is live without adding a single synchronizing instruction to a
// worker's path — the wait-free guarantee is what makes live observation
// free.  Each tick drains every ring incrementally (a per-ring cursor),
// folds phase-exit events into streaming latency sketches (sketch.h),
// tallies contention events by kind, and appends one sample record; stop()
// takes a final drain so even a run shorter than the interval produces a
// complete session.
//
// File format (validated by schema.h validate_monitor_jsonl, rendered by
// `wfsort report`): one session per run, a "header" record (schema,
// build_type provenance, source substrate, run config echo) followed by
// "sample" records.  Appending is deliberate — each monitored run adds its
// own session, so several runs can share one file.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "telemetry/recorder.h"
#include "telemetry/ring.h"
#include "telemetry/sketch.h"

namespace wfsort::telemetry {

class Monitor {
 public:
  struct Config {
    std::string path;               // JSONL sink, opened in append mode
    std::uint32_t interval_ms = 50; // sampling period
    std::string source = "native";  // "native" | "sim"
    Json config = Json::object();   // run-config echo for the header record
  };

  // Native form: sample every ring the recorder owns.  The recorder must
  // outlive the monitor.
  Monitor(const Recorder* recorder, Config cfg);
  // Sim / custom form: sample an explicit ring set (rings must outlive the
  // monitor; each ring still has exactly one writer elsewhere).
  Monitor(std::vector<const FlightRing*> rings, Config cfg);
  ~Monitor();

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  // False when the sink could not be opened; start()/stop() are no-ops then.
  bool ok() const { return ok_; }

  void start();
  // Final drain + closing sample, then joins the sampler and flushes.
  void stop();

  // Record one finished job's latency (a whole sort call) into the per-job
  // sketch.  Thread-safe against the sampler.
  void note_job(std::uint64_t duration_us);

  std::uint64_t samples() const { return samples_; }

 private:
  void run_loop();
  void take_sample(bool final_sample);
  void drain_rings();
  Json sample_json(bool final_sample);

  std::vector<const FlightRing*> rings_;
  Config cfg_;
  std::ofstream out_;
  bool ok_ = false;
  bool started_ = false;
  bool stopped_ = false;

  std::thread thread_;
  std::mutex mu_;  // guards stop flag + job sketch + sample state handoff
  std::condition_variable cv_;
  bool stop_requested_ = false;

  std::chrono::steady_clock::time_point t0_{};
  std::uint64_t samples_ = 0;

  // Sampler-owned stream state (touched under mu_ only for note_job's jobs_).
  std::vector<std::uint64_t> cursors_;
  LatencySketch phase_lat_[kPhaseCount];
  LatencySketch jobs_;
  std::uint64_t events_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t counts_[static_cast<std::size_t>(FlightKind::kKindCount)] = {};
  std::uint64_t sim_round_ = 0;  // high-water round seen in kSimRound events
};

}  // namespace wfsort::telemetry
