#pragma once
// Shared binary payload codec behind every durable/serialized artifact that
// needs the checkpoint-v2 hardening: the FSC1 run checkpoint, the
// coordinator's fleet-run snapshots, and the coordinator wire protocol's
// frames. One layout everywhere:
//
//   [magic u32][version u32][payload_size u64][fnv1a64 u64][payload bytes]
//
// seal() builds the header over an in-memory payload; open() verifies magic,
// version, exact length and checksum *before* handing out a single payload
// byte, so truncation, a flipped bit anywhere, or a mangled length prefix
// fails with a clean std::runtime_error — never a crash, a huge allocation,
// or silent acceptance (tests/fl/test_checkpoint_corruption.cpp and
// tests/coord/test_wire.cpp pin this for their formats).
//
// PayloadWriter / PayloadReader are the little-endian scalar codecs the
// checkpoint has always used; the Reader additionally bounds-checks every
// read and refuses element counts the remaining payload cannot hold.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fedsched::fl::checkpoint {

inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// FNV-1a over raw bytes — the integrity checksum of every sealed payload.
/// Passing a previous result as `h` continues the hash, so several buffers
/// hash as their concatenation.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes,
                                    std::uint64_t h = kFnv1a64Basis) noexcept;

/// Whole-file read in one sized read. Throws std::runtime_error
/// "<context>: cannot open <path>" or "<context>: read failed for <path>".
[[nodiscard]] std::string read_file(const std::string& path,
                                    const std::string& context);

/// Fixed sealed-header size: magic + version + payload_size + checksum.
inline constexpr std::size_t kSealedHeaderSize =
    sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t) * 2;

/// `payload` wrapped in a sealed header (see file comment for the layout).
[[nodiscard]] std::string seal(std::uint32_t magic, std::uint32_t version,
                               std::string_view payload);

/// Validate a sealed buffer and return a view of its payload. `context`
/// prefixes error messages ("load_checkpoint: /path/x", "coord wire frame")
/// and `artifact` names the expected format ("fedsched checkpoint") so a
/// bad-magic error reads "<context> is not a <artifact>". Throws
/// std::runtime_error on short input, wrong magic, unsupported version,
/// length mismatch, or checksum mismatch.
[[nodiscard]] std::string_view open(std::uint32_t magic, std::uint32_t version,
                                    std::string_view sealed,
                                    const std::string& context,
                                    const std::string& artifact);

/// Little-endian raw scalar serialization into an in-memory buffer (matches
/// nn/serialize.cpp; the testbed is homogeneous x86-64/aarch64-LE, and the
/// magic word would read back-to-front on a BE host anyway).
class PayloadWriter {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const char*>(&value);
    buf_.append(p, sizeof(T));
  }
  void put_u64(std::uint64_t v) { put(v); }
  void put_bool(bool v) { put(static_cast<std::uint8_t>(v ? 1 : 0)); }

  template <typename T>
  void put_vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_u64(v.size());
    if (!v.empty()) {
      buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
    }
  }
  void put_size_vec(const std::vector<std::size_t>& v) {
    put_u64(v.size());
    for (std::size_t x : v) put_u64(static_cast<std::uint64_t>(x));
  }
  void put_bytes(std::string_view bytes) {
    put_u64(bytes.size());
    buf_.append(bytes.data(), bytes.size());
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a verified payload. The checksum already
/// guarantees the bytes are exactly what the writer produced; the bounds
/// checks keep a reader/writer schema skew from running off the buffer.
class PayloadReader {
 public:
  PayloadReader(std::string_view bytes, std::string context)
      : bytes_(bytes), context_(std::move(context)) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    std::memcpy(&value, need(sizeof(T)), sizeof(T));
    return value;
  }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  bool get_bool() { return get<std::uint8_t>() != 0; }

  /// Element count for a vector about to be read: refuses counts the
  /// remaining payload cannot possibly hold, so a mangled length prefix can
  /// never drive a multi-gigabyte resize().
  std::size_t get_count(std::size_t elem_size) {
    const std::uint64_t n = get_u64();
    if (elem_size > 0 && n > remaining() / elem_size) corrupt();
    return static_cast<std::size_t>(n);
  }

  template <typename T>
  std::vector<T> get_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> v(get_count(sizeof(T)));
    if (!v.empty()) {
      std::memcpy(v.data(), need(v.size() * sizeof(T)), v.size() * sizeof(T));
    }
    return v;
  }
  std::vector<std::size_t> get_size_vec() {
    std::vector<std::size_t> v(get_count(sizeof(std::uint64_t)));
    for (auto& x : v) x = static_cast<std::size_t>(get_u64());
    return v;
  }
  std::string get_bytes() {
    const std::size_t n = get_count(1);
    return std::string(need(n), n);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  /// The loader must consume the payload exactly.
  void expect_exhausted() const {
    if (remaining() != 0) corrupt();
  }

  [[noreturn]] void corrupt() const {
    throw std::runtime_error(context_ + ": corrupt payload");
  }

 private:
  const char* need(std::size_t n) {
    if (n > remaining()) corrupt();
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::string_view bytes_;
  std::string context_;
  std::size_t pos_ = 0;
};

}  // namespace fedsched::fl::checkpoint
