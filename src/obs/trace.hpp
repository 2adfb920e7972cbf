#pragma once
// JSONL run traces — the machine-readable counterpart of fl/report.hpp.
//
// A TraceWriter streams one JSON object per line to a sink (file or caller
// stream). The default-constructed writer is the *null sink*: enabled() is
// false and every write is a no-op, so code paths can emit unconditionally —
// a runner handed no writer behaves bit-identically to one built without
// tracing at all (the disabled-sink guarantee, mirroring the disabled-faults
// guarantee of fl/faults.hpp).
//
// Determinism contract: producers record *simulated* time only — never host
// wall-clock — and emit from serial code in a fixed order, so a trace is
// byte-identical at every `parallelism` width and across reruns with equal
// seeds (tests/fl/test_obs_runners.cpp pins this).
//
// Not thread-safe: emit from one thread (the runners only trace from their
// serial bookkeeping sections).

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "common/json.hpp"

namespace fedsched::obs {

class TraceWriter {
 public:
  /// Null sink: disabled, every write() is a no-op.
  TraceWriter() = default;

  /// Stream sink; the stream must outlive the writer.
  explicit TraceWriter(std::ostream& os) : out_(&os) {}

  TraceWriter(TraceWriter&&) noexcept = default;
  TraceWriter& operator=(TraceWriter&&) noexcept = default;
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// File sink at `path` (parent directories created); throws
  /// std::runtime_error when the file cannot be opened.
  [[nodiscard]] static TraceWriter to_file(const std::string& path);

  /// Memory sink: enabled with capture on, writing nowhere else, so the
  /// trace lives only in captured().
  [[nodiscard]] static TraceWriter to_memory();

  [[nodiscard]] bool enabled() const noexcept { return out_ != nullptr; }
  [[nodiscard]] std::size_t events_written() const noexcept { return events_; }

  /// Emit `event` as one JSONL line. No-op on the null sink.
  void write(const common::JsonObject& event);

  /// Start mirroring every byte written into an in-memory buffer. The
  /// checkpoint subsystem captures this prefix so a resumed run can replay
  /// it and produce a trace byte-identical to an uninterrupted one. No-op on
  /// the null sink.
  void enable_capture();
  /// Everything written since enable_capture() (including replayed bytes).
  [[nodiscard]] const std::string& captured() const noexcept { return captured_; }
  /// Event count inside captured(). Checkpoints store this — not
  /// events_written(), which also counts pre-capture events the resuming
  /// caller re-emits itself (e.g. the CLI's schedule trace).
  [[nodiscard]] std::size_t captured_events() const noexcept {
    return captured_events_;
  }

  /// Replay pre-rendered JSONL bytes (a checkpointed trace prefix) verbatim:
  /// written to the sink, mirrored into the capture buffer, and counted as
  /// `events` lines. No-op on the null sink.
  void write_raw(std::string_view bytes, std::size_t events);

  void flush();

 private:
  std::unique_ptr<std::ostream> owned_;  // set only by to_file()
  std::ostream* out_ = nullptr;
  std::size_t events_ = 0;
  bool capture_ = false;
  std::string captured_;
  std::size_t captured_events_ = 0;
};

}  // namespace fedsched::obs
