// Exporters: turn a TraceRecorder's ring into analyst-facing artifacts.
//
//   text_trace()   — one line per event, `@t_us category name uid=U arg=A`.
//                    The byte stream depends only on the recorded events,
//                    so it is stable across fleet worker counts and
//                    diffs cleanly (the golden-trace suite stores exactly
//                    these bytes).
//   chrome_trace() — Chrome trace_event JSON (the "JSON Array Format"),
//                    loadable in Perfetto / chrome://tracing. Events are
//                    instants; each uid gets its own named track (tid) and
//                    system-wide events (uid -1) land on a "system" track.
//
// Both write one std::string sized up front from the event count and the
// longest name, with integers through std::to_chars and no iostreams;
// chrome_trace() escapes each name once per export, not once per event.
// The cost is linear in the events held, not in the ring's capacity.
#pragma once

#include <string>

#include "obs/trace.h"

namespace eandroid::obs {

/// Compact deterministic text form. Starts with a `# trace` header line
/// carrying held/dropped counts (both deterministic).
[[nodiscard]] std::string text_trace(const TraceRecorder& recorder);

/// Chrome trace_event JSON; `pid` labels the device (fleet index).
[[nodiscard]] std::string chrome_trace(const TraceRecorder& recorder,
                                       int pid = 0);

}  // namespace eandroid::obs
