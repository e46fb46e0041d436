#include "telemetry/trace_export.h"

#include <fstream>

namespace wfsort::telemetry {
namespace {

constexpr int kPid = 1;

Json metadata_event(const char* name, std::int64_t tid,
                    const std::string& value) {
  Json ev = Json::object();
  ev.set("name", name);
  ev.set("ph", "M");
  ev.set("pid", kPid);
  if (tid >= 0) ev.set("tid", tid);
  Json args = Json::object();
  args.set("name", value);
  ev.set("args", std::move(args));
  return ev;
}

}  // namespace

Json chrome_trace_json(const Report& report, const std::string& process_name) {
  Json events = Json::array();
  events.push_back(metadata_event("process_name", -1, process_name));
  for (const WorkerReport& w : report.workers) {
    std::string label = "worker " + std::to_string(w.tid);
    if (w.crashed) label += " (crashed)";
    events.push_back(
        metadata_event("thread_name", static_cast<std::int64_t>(w.tid), label));
    for (const Span& s : w.spans) {
      Json ev = Json::object();
      ev.set("name", phase_name(s.phase));
      ev.set("cat", "phase");
      ev.set("ph", "X");
      ev.set("ts", s.begin_us);
      ev.set("dur", s.duration_us());
      ev.set("pid", kPid);
      ev.set("tid", static_cast<std::uint64_t>(s.tid));
      events.push_back(std::move(ev));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

bool write_text_file(const std::string& path, const std::string& text,
                     std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    *error = "cannot open for writing: " + path;
    return false;
  }
  out << text;
  out.flush();
  if (!out) {
    *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace wfsort::telemetry
