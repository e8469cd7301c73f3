// Per-request trace spans: the timeline half of observability.
//
// A request gets a 64-bit trace id in BrowserClient::classify(); every
// stage it passes through (browser conv1, binary branch, serialize,
// network wait, edge deserialize/complete/serialize) opens a RAII Span
// tagged with that id. The id rides the wire in the protocol frame
// header, so client-side and server-side spans for one request stitch
// into a single timeline in whatever sink is installed.
//
// Timestamps are steady_clock nanoseconds anchored at process start --
// monotonic, immune to NTP steps, and fine-grained enough that even a
// sub-microsecond serialize stage records non-zero duration.
//
// Sinks: tests use RingBufferSink (bounded, drop-counting); offline
// analysis uses JsonlFileSink (one JSON object per finished span).
// When no sink is installed, a Span is two relaxed atomic loads and
// nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "common/sync.h"

namespace lcrs::obs {

/// Nanoseconds since an arbitrary process-local steady_clock anchor.
std::int64_t steady_now_ns();

/// Deterministic, collision-resistant, nonzero 64-bit trace id
/// (splitmix64 over a process-wide counter -- no std::random_device,
/// per the repo's reproducibility rule; zero is reserved for
/// "untraced").
std::uint64_t next_trace_id();

/// One finished span, as delivered to a TraceSink.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::string name;          // e.g. "client.network", "edge.complete"
  std::int64_t start_ns = 0; // steady_now_ns() at construction
  std::int64_t end_ns = 0;   // steady_now_ns() at destruction

  double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

/// Destination for finished spans. Implementations must be thread-safe:
/// client and server threads emit concurrently.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void emit(const SpanRecord& span) = 0;
};

/// Bounded in-memory sink for tests and the lcrs_tool `metrics`
/// subcommand; overflow drops the oldest spans and counts the drops.
class RingBufferSink : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 4096);

  void emit(const SpanRecord& span) override;

  /// Copy of the buffered spans, oldest first.
  std::vector<SpanRecord> spans() const;
  std::int64_t dropped() const;
  void clear();

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_{"obs.trace.ring"};  // leaf lock
  std::deque<SpanRecord> buffer_ LCRS_GUARDED_BY(mutex_);
  std::int64_t dropped_ LCRS_GUARDED_BY(mutex_) = 0;
};

/// Appends one JSON object per span to a file -- the offline-analysis
/// format (each line: trace_id, name, start/end ns, duration_us).
class JsonlFileSink : public TraceSink {
 public:
  explicit JsonlFileSink(const std::string& path);

  void emit(const SpanRecord& span) override;
  void flush();

 private:
  Mutex mutex_{"obs.trace.jsonl"};  // leaf lock
  std::ofstream out_ LCRS_GUARDED_BY(mutex_);
};

/// Installs (or, with nullptr, removes) the process-wide sink. The sink
/// must outlive every span emitted while it is installed; ScopedTraceSink
/// handles that for tests.
void set_trace_sink(TraceSink* sink);
TraceSink* trace_sink();

/// RAII installer for tests: installs `sink` on construction, restores
/// the previous sink on destruction.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink* sink) : prev_(trace_sink()) {
    set_trace_sink(sink);
  }
  ~ScopedTraceSink() { set_trace_sink(prev_); }
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

 private:
  TraceSink* prev_;
};

/// Flight-recorder tap (implemented in flight_recorder.cpp, declared
/// here so Span need not include the recorder). While enabled, every
/// finished span is also delivered to FlightRecorder::global() -- the
/// tail-sampling layer behind the ops plane's /tracez endpoint.
bool flight_recording_enabled();
void set_flight_recording_enabled(bool on);
void flight_record_span(const SpanRecord& span);

/// RAII span: records start on construction, emits to the sink captured
/// at construction (and/or the flight recorder) on destruction.
/// Inactive (zero cost beyond two relaxed loads in the constructor) when
/// trace_id is 0 or neither a sink nor flight recording is installed.
class Span {
 public:
  Span(std::uint64_t trace_id, std::string name)
      : sink_(trace_sink()), trace_id_(trace_id) {
    active_ = trace_id_ != 0 &&
              (sink_ != nullptr || flight_recording_enabled());
    if (active_) {
      name_ = std::move(name);
      start_ns_ = steady_now_ns();
    }
  }

  ~Span() {
    if (active_) {
      const SpanRecord rec{trace_id_, name_, start_ns_, steady_now_ns()};
      if (sink_ != nullptr) sink_->emit(rec);
      flight_record_span(rec);  // no-op when recording is disabled
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceSink* sink_;
  std::uint64_t trace_id_;
  bool active_ = false;
  std::string name_;
  std::int64_t start_ns_ = 0;
};

}  // namespace lcrs::obs
