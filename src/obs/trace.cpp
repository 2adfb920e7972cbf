#include "obs/trace.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace fedsched::obs {

TraceWriter TraceWriter::to_file(const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  auto file = std::make_unique<std::ofstream>(p, std::ios::trunc);
  if (!*file) throw std::runtime_error("TraceWriter: cannot open " + path);
  TraceWriter writer;
  writer.out_ = file.get();
  writer.owned_ = std::move(file);
  return writer;
}

TraceWriter TraceWriter::to_memory() {
  TraceWriter writer;
  writer.owned_ = std::make_unique<std::ostream>(nullptr);  // discards output
  writer.out_ = writer.owned_.get();
  writer.capture_ = true;
  return writer;
}

void TraceWriter::write(const common::JsonObject& event) {
  if (!out_) return;
  const std::string line = event.str();
  *out_ << line << '\n';
  if (capture_) {
    captured_ += line;
    captured_ += '\n';
    ++captured_events_;
  }
  ++events_;
}

void TraceWriter::enable_capture() {
  if (!out_) return;
  capture_ = true;
}

void TraceWriter::write_raw(std::string_view bytes, std::size_t events) {
  if (!out_ || bytes.empty()) return;
  *out_ << bytes;
  if (capture_) {
    captured_ += bytes;
    captured_events_ += events;
  }
  events_ += events;
}

void TraceWriter::flush() {
  if (out_) out_->flush();
}

}  // namespace fedsched::obs
