// Chrome trace_event ("Perfetto JSON") export of a Report's span timeline.
//
// The emitted document is the classic {"traceEvents":[...]} array format
// understood by chrome://tracing and ui.perfetto.dev: one "X" (complete)
// event per recorded span, timestamped in microseconds on the run's shared
// clock, plus "M" metadata events naming the process and each worker's
// track.  One trace holds one run, as process 1.
#pragma once

#include <string>

#include "common/json.h"
#include "telemetry/report.h"

namespace wfsort::telemetry {

// {"traceEvents":[...],"displayTimeUnit":"ms"}: the run's process and
// worker-track metadata, then one event per span.
Json chrome_trace_json(const Report& report,
                       const std::string& process_name = "wfsort");

// Write `text` to `path`; false + *error on I/O failure.
bool write_text_file(const std::string& path, const std::string& text,
                     std::string* error);

}  // namespace wfsort::telemetry
