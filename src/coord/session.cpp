#include "coord/session.hpp"

#include <stdexcept>

namespace fedsched::coord {

StepOutcome RunSession::step(std::size_t completed_rounds) {
  if (completed_rounds >= total_rounds_) {
    throw std::runtime_error("run session: run already complete");
  }
  const bool replay = rounds_completed() == completed_rounds + 1;
  if (!replay && rounds_completed() != completed_rounds) {
    throw std::runtime_error("run session: checkpoint round mismatch");
  }
  const std::string ckpt = replay ? std::string() : advance();
  const bool done = rounds_completed() == total_rounds_;
  if (done) finish();
  obs::TraceWriter file = obs::TraceWriter::to_file(trace_path_);
  file.write_raw(trace_.captured(), 0);
  file.flush();
  if (!replay) write_file_atomic(ckpt_path_, ckpt, write_);
  return {rounds_completed(), done};
}

}  // namespace fedsched::coord
