#include "coord/registry.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "coord/chaos/chaos.hpp"
#include "fl/checkpoint/codec.hpp"

namespace fedsched::coord {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("registry: " + what + ": " +
                           std::strerror(errno));
}

// POSIX write path used in durable mode so the temp file's bytes can be
// fsync'd before the rename makes them visible.
void write_bytes_durable(const std::string& path, const std::string& bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) sys_fail("cannot open " + path);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      sys_fail("write failed for " + path);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("fsync failed for " + path);
  }
  if (::close(fd) != 0) sys_fail("close failed for " + path);
}

// The rename itself is only durable once the directory entry is, so durable
// mode also fsyncs the parent directory.
void fsync_parent_dir(const std::string& path) {
  fs::path parent = fs::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) sys_fail("cannot open directory " + parent.string());
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    sys_fail("fsync failed for directory " + parent.string());
  }
  ::close(fd);
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

void write_file_atomic(const std::string& path, const std::string& bytes,
                       const AtomicWriteOptions& options) {
  chaos::ChaosInjector* chaos =
      (options.chaos != nullptr && options.chaos->enabled()) ? options.chaos
                                                             : nullptr;
  const std::uint64_t op = chaos != nullptr ? chaos->begin_write() : 0;
  if (chaos != nullptr) {
    chaos->crash_point(op, chaos::CrashPhase::kBeforeTmp, path);
  }
  const std::string tmp = path + ".tmp";
  if (options.durable) {
    write_bytes_durable(tmp, bytes);
  } else {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("registry: cannot open " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("registry: write failed for " + tmp);
  }
  if (chaos != nullptr) {
    chaos->crash_point(op, chaos::CrashPhase::kAfterTmp, path);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("registry: cannot rename " + tmp + " -> " + path +
                             ": " + ec.message());
  }
  if (options.durable) fsync_parent_dir(path);
  if (chaos != nullptr) {
    chaos->crash_point(op, chaos::CrashPhase::kAfterRename, path);
  }
}

void validate_sealed_artifact(const std::string& bytes,
                              const std::string& context) {
  namespace fc = fl::checkpoint;
  if (bytes.size() < fc::kSealedHeaderSize) {
    throw std::runtime_error(context + ": truncated sealed artifact (" +
                             std::to_string(bytes.size()) + " bytes)");
  }
  std::uint64_t declared = 0;
  std::uint64_t checksum = 0;
  std::memcpy(&declared, bytes.data() + 8, sizeof declared);
  std::memcpy(&checksum, bytes.data() + 16, sizeof checksum);
  const std::size_t payload_size = bytes.size() - fc::kSealedHeaderSize;
  if (declared != payload_size) {
    throw std::runtime_error(context + ": payload length mismatch (header " +
                             std::to_string(declared) + ", file " +
                             std::to_string(payload_size) + ")");
  }
  const std::string_view payload(bytes.data() + fc::kSealedHeaderSize,
                                 payload_size);
  if (fc::fnv1a64(payload) != checksum) {
    throw std::runtime_error(context + ": checksum mismatch");
  }
}

RunRegistry::RunRegistry(std::string root) : root_(std::move(root)) {
  if (root_.empty()) throw std::runtime_error("registry: root must not be empty");
  fs::create_directories(root_);
}

std::string RunRegistry::run_dir(const std::string& id) const {
  return root_ + "/" + id;
}
std::string RunRegistry::spec_path(const std::string& id) const {
  return run_dir(id) + "/spec.json";
}
std::string RunRegistry::meta_path(const std::string& id) const {
  return run_dir(id) + "/meta.json";
}
std::string RunRegistry::ckpt_path(const std::string& id) const {
  return run_dir(id) + "/ckpt.bin";
}
std::string RunRegistry::trace_path(const std::string& id) const {
  return run_dir(id) + "/trace.jsonl";
}
std::string RunRegistry::result_path(const std::string& id) const {
  return run_dir(id) + "/result.json";
}
std::string RunRegistry::error_path(const std::string& id) const {
  return run_dir(id) + "/error.txt";
}

bool RunRegistry::exists(const std::string& id) const {
  return fs::exists(spec_path(id));
}

void RunRegistry::persist_spec(const RunSpec& spec) const {
  fs::create_directories(run_dir(spec.id));
  write_file_atomic(spec_path(spec.id), run_spec_json(spec) + "\n",
                    write_options());
}

void RunRegistry::write_meta(const std::string& id,
                             std::size_t rounds_completed) const {
  common::JsonObject o;
  o.field("rounds_completed", rounds_completed);
  write_file_atomic(meta_path(id), o.str() + "\n", write_options());
}

void RunRegistry::write_result(const std::string& id,
                               const std::string& json) const {
  write_file_atomic(result_path(id), json + "\n", write_options());
}

void RunRegistry::write_error(const std::string& id,
                              const std::string& message) const {
  write_file_atomic(error_path(id), message + "\n", write_options());
}

std::string RunRegistry::read_result(const std::string& id) const {
  return read_file(result_path(id), "registry: run '" + id + "' result");
}

std::string RunRegistry::read_trace(const std::string& id) const {
  return read_file(trace_path(id), "registry: run '" + id + "' trace");
}

std::string RunRegistry::read_checkpoint(const std::string& id) const {
  return read_file(ckpt_path(id), "registry: run '" + id + "' checkpoint");
}

QuarantineRecord RunRegistry::quarantine_run(const std::string& id,
                                             const std::string& reason) {
  std::string dest = run_dir(id) + ".quarantined";
  for (int n = 2; fs::exists(dest); ++n) {
    dest = run_dir(id) + ".quarantined." + std::to_string(n);
  }
  std::error_code ec;
  fs::rename(run_dir(id), dest, ec);
  if (ec) {
    throw std::runtime_error("registry: cannot quarantine " + run_dir(id) +
                             " -> " + dest + ": " + ec.message());
  }
  {
    // Best effort: the rename IS the quarantine; the reason file is an aid.
    std::ofstream out(dest + "/quarantine.txt", std::ios::trunc);
    if (out) out << reason << "\n";
  }
  QuarantineRecord record;
  record.id = id;
  record.moved_to = fs::path(dest).filename().string();
  record.reason = reason;
  return record;
}

ScanOutcome RunRegistry::scan() {
  ScanOutcome out;
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(root_)) {
    if (!entry.is_directory()) continue;
    names.push_back(entry.path().filename().string());
  }
  // directory_iterator order is unspecified; sort so quarantine records and
  // tmp sweeps happen in a stable order too.
  std::sort(names.begin(), names.end());

  for (const std::string& id : names) {
    if (id.find(".quarantined") != std::string::npos) continue;
    const std::string dir = run_dir(id);

    // Sweep temp files left by a write that died between tmp and rename.
    for (const fs::directory_entry& file : fs::directory_iterator(dir)) {
      if (!file.is_regular_file()) continue;
      if (!ends_with(file.path().filename().string(), ".tmp")) continue;
      std::error_code ec;
      fs::remove(file.path(), ec);
      if (!ec) ++out.stale_tmp_removed;
    }

    if (!fs::exists(spec_path(id))) continue;  // not a run directory

    try {
      RecoveredRun run;
      run.spec = parse_run_spec(
          common::json_parse(read_file(spec_path(id), "registry: spec")));
      if (run.spec.id != id) {
        throw std::runtime_error("spec id '" + run.spec.id +
                                 "' does not match directory '" + id + "'");
      }
      if (fs::exists(result_path(id))) {
        run.state = RecoveredState::kDone;
        run.rounds_completed = run.spec.total_rounds();
      } else if (fs::exists(error_path(id))) {
        run.state = RecoveredState::kFailed;
        run.error = read_file(error_path(id), "registry: error");
        while (!run.error.empty() && run.error.back() == '\n') run.error.pop_back();
      } else if (fs::exists(ckpt_path(id)) && fs::exists(meta_path(id))) {
        const common::JsonValue meta =
            common::json_parse(read_file(meta_path(id), "registry: meta"));
        const double n = meta.get_number("rounds_completed", 0.0);
        if (!(n >= 0.0) || n != std::floor(n)) {
          throw std::runtime_error("corrupt meta for run '" + id + "'");
        }
        // A resumable run will be re-opened from this checkpoint; catch a
        // torn/corrupt one now rather than failing the run mid-step.
        validate_sealed_artifact(read_file(ckpt_path(id), "registry: ckpt"),
                                 "checkpoint for run '" + id + "'");
        run.state = RecoveredState::kResumable;
        run.rounds_completed = static_cast<std::size_t>(n);
      } else {
        run.state = RecoveredState::kFresh;  // admitted but never stepped
      }
      out.runs.push_back(std::move(run));
    } catch (const std::exception& ex) {
      out.quarantined.push_back(quarantine_run(id, ex.what()));
    }
  }
  std::sort(out.runs.begin(), out.runs.end(),
            [](const RecoveredRun& a, const RecoveredRun& b) {
              return a.spec.id < b.spec.id;
            });
  return out;
}

}  // namespace fedsched::coord
