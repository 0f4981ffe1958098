#include "storage/serializer.h"

#include <array>
#include <fstream>
#include <iterator>

namespace gtpq {
namespace storage {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Status WriteFramedFile(const std::string& path, std::string_view magic,
                       uint32_t version,
                       std::initializer_list<const Writer*> parts) {
  // Chain the CRC across the parts so none is copied into a combined
  // buffer (an index payload is the dominant allocation).
  uint32_t crc = 0;
  for (const Writer* part : parts) {
    crc = Crc32(part->buffer().data(), part->buffer().size(), crc);
  }
  Writer prologue;
  prologue.WriteBytes(magic.data(), magic.size());
  prologue.WriteU32(version);
  prologue.WriteU32(crc);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot create file: " + path);
  out.write(prologue.buffer().data(),
            static_cast<std::streamsize>(prologue.buffer().size()));
  for (const Writer* part : parts) {
    out.write(part->buffer().data(),
              static_cast<std::streamsize>(part->buffer().size()));
  }
  out.close();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Status ReadWholeFile(const std::string& path, std::string_view kind,
                     std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open " + std::string(kind) +
                            " file: " + path);
  }
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("read failed: " + path);
  return Status::OK();
}

Status CheckFraming(std::string_view bytes, std::string_view magic,
                    uint32_t version, std::string_view kind,
                    const std::string& path) {
  const std::string what(kind);
  if (bytes.size() < kFramedOffset) {
    return Status::ParseError(what + " file too short (" +
                              std::to_string(bytes.size()) +
                              " bytes): " + path);
  }
  if (bytes.substr(0, magic.size()) != magic) {
    return Status::ParseError("bad magic: not a gtpq " + what + " file: " +
                              path);
  }
  Reader prologue(bytes.substr(magic.size(), kFramedOffset - magic.size()));
  uint32_t file_version = 0, stored_crc = 0;
  GTPQ_RETURN_NOT_OK(prologue.ReadU32(&file_version));
  GTPQ_RETURN_NOT_OK(prologue.ReadU32(&stored_crc));
  if (file_version != version) {
    return Status::FailedPrecondition(
        what + " format version mismatch: file has v" +
        std::to_string(file_version) + ", this build reads v" +
        std::to_string(version) + ": " + path);
  }
  if (Crc32(bytes.data() + kFramedOffset, bytes.size() - kFramedOffset) !=
      stored_crc) {
    return Status::ParseError(what +
                              " checksum mismatch (truncated or corrupted "
                              "file): " + path);
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace gtpq
