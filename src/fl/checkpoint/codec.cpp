#include "fl/checkpoint/codec.hpp"

#include <filesystem>
#include <fstream>

namespace fedsched::fl::checkpoint {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
}  // namespace

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t h) noexcept {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

std::string seal(std::uint32_t magic, std::uint32_t version,
                 std::string_view payload) {
  const std::uint64_t size = payload.size();
  const std::uint64_t checksum = fnv1a64(payload);
  std::string out;
  out.reserve(kSealedHeaderSize + payload.size());
  out.append(reinterpret_cast<const char*>(&magic), sizeof(magic));
  out.append(reinterpret_cast<const char*>(&version), sizeof(version));
  out.append(reinterpret_cast<const char*>(&size), sizeof(size));
  out.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.append(payload.data(), payload.size());
  return out;
}

std::string_view open(std::uint32_t magic, std::uint32_t version,
                      std::string_view sealed, const std::string& context,
                      const std::string& artifact) {
  if (sealed.size() < kSealedHeaderSize) {
    throw std::runtime_error(context + " is not a " + artifact);
  }
  std::uint32_t got_magic = 0, got_version = 0;
  std::uint64_t size = 0, checksum = 0;
  std::memcpy(&got_magic, sealed.data(), sizeof(got_magic));
  std::memcpy(&got_version, sealed.data() + 4, sizeof(got_version));
  std::memcpy(&size, sealed.data() + 8, sizeof(size));
  std::memcpy(&checksum, sealed.data() + 16, sizeof(checksum));
  if (got_magic != magic) {
    throw std::runtime_error(context + " is not a " + artifact);
  }
  if (got_version != version) {
    throw std::runtime_error(context + " has format version " +
                             std::to_string(got_version) +
                             "; this build reads version " +
                             std::to_string(version));
  }
  const std::string_view body = sealed.substr(kSealedHeaderSize);
  if (body.size() != size) {
    throw std::runtime_error(context + ": truncated " + artifact);
  }
  if (fnv1a64(body) != checksum) {
    throw std::runtime_error(context + ": checksum mismatch");
  }
  return body;
}

std::string read_file(const std::string& path, const std::string& context) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(context + ": cannot open " + path);
  // Size from the path, not by seeking: a directory opens fine but has no
  // byte size, and the error code turns that into a clean read failure.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error(context + ": read failed for " + path);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (in.bad()) throw std::runtime_error(context + ": read failed for " + path);
  bytes.resize(static_cast<std::size_t>(in.gcount()));  // shrank since sized
  return bytes;
}

}  // namespace fedsched::fl::checkpoint
