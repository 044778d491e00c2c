#ifndef ADASKIP_PERSIST_BINARY_IO_H_
#define ADASKIP_PERSIST_BINARY_IO_H_

// The one serialization contract of the persistence layer (DESIGN.md
// "Persistence and recovery"): little-endian fixed-width scalars, a
// format-version byte behind an 8-byte magic, and CRC-32-framed blocks.
// Every persisted structure implements
//
//   Status SerializeBinary(persist::Sink&) const;
//   Status DeserializeBinary(persist::Source&);
//
// writing/reading *unframed* primitives through the helpers below; the
// checkpoint driver wraps each object's payload in one checksummed block,
// so versioning and corruption detection stay centralized here. All
// corruption — truncation, bit flips, bad magic, stale checksums — comes
// back as StatusCode::kDataLoss, never UB or a partially mutated object.
//
// This header depends only on util/; raw file I/O anywhere else in the
// tree is a lint error (rule raw-binary-io).

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "adaskip/util/status.h"

namespace adaskip {
namespace persist {

/// First bytes of every snapshot file, followed by the format-version
/// byte. Readers reject unknown versions with kDataLoss.
inline constexpr char kSnapshotMagic[8] = {'A', 'D', 'S', 'K',
                                           'S', 'N', 'A', 'P'};
inline constexpr uint8_t kFormatVersion = 1;

/// Byte-oriented output. Implementations report the first failure and
/// turn every later write into the same error, so callers may batch
/// writes and check once.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual Status WriteBytes(const void* data, size_t size) = 0;
};

/// Byte-oriented input. `remaining()` returns the exact number of
/// unconsumed bytes when known (buffers, regular files) or -1; readers
/// use it to cap allocations before trusting an on-disk length field.
class Source {
 public:
  virtual ~Source() = default;
  virtual Status ReadBytes(void* data, size_t size) = 0;
  virtual int64_t remaining() const = 0;
};

/// Accumulates into an owned byte string (used to stage one object's
/// payload before framing it into a block).
class BufferSink : public Sink {
 public:
  Status WriteBytes(const void* data, size_t size) override {
    buffer_.append(static_cast<const char*>(data), size);
    return Status::OK();
  }

  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Reads from a caller-owned byte range (a verified block payload).
class BufferSource : public Source {
 public:
  explicit BufferSource(std::string_view bytes) : bytes_(bytes) {}

  Status ReadBytes(void* data, size_t size) override {
    if (size > bytes_.size() - offset_) {
      return Status::DataLoss("buffer truncated: want " +
                              std::to_string(size) + " bytes, have " +
                              std::to_string(bytes_.size() - offset_));
    }
    std::memcpy(data, bytes_.data() + offset_, size);
    offset_ += size;
    return Status::OK();
  }

  int64_t remaining() const override {
    return static_cast<int64_t>(bytes_.size() - offset_);
  }

 private:
  std::string_view bytes_;
  size_t offset_ = 0;
};

/// Buffered writer over one snapshot file. Close() flushes and reports
/// the first I/O failure; the destructor closes silently.
class FileSink : public Sink {
 public:
  ~FileSink() override;

  /// Opens `path` for writing, truncating any existing file.
  static Result<std::unique_ptr<FileSink>> Open(const std::string& path);

  Status WriteBytes(const void* data, size_t size) override;
  /// Flushes buffered bytes to the OS without closing.
  Status Flush();
  /// Flush() plus fsync: the bytes reach stable storage, not just the OS
  /// page cache, so they survive a power loss — the durability step of
  /// every snapshot file and journal-tail append.
  Status Sync();
  Status Close();

 private:
  FileSink(void* file, std::string path) : file_(file), path_(std::move(path)) {}

  void* file_;  // FILE*, kept opaque so consumers never include <cstdio>.
  std::string path_;
  Status status_;
};

/// Reader over one snapshot file; remaining() is exact (from the file
/// size at open).
class FileSource : public Source {
 public:
  ~FileSource() override;

  static Result<std::unique_ptr<FileSource>> Open(const std::string& path);

  Status ReadBytes(void* data, size_t size) override;
  int64_t remaining() const override { return remaining_; }

 private:
  FileSource(void* file, std::string path, int64_t remaining)
      : file_(file), path_(std::move(path)), remaining_(remaining) {}

  void* file_;  // FILE*.
  std::string path_;
  int64_t remaining_;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), table-driven. Chainable:
/// pass the previous return value as `seed` to extend a running checksum.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// Atomically replaces `to` with `from` (same-directory rename). The
/// checkpoint commit step: a staged ".tmp" file becomes the live one in
/// a single metadata operation, never exposing a half-written file.
Status RenameFile(const std::string& from, const std::string& to);

/// Removes `path`; a file that does not exist is success, not an error
/// (used to invalidate a superseded MANIFEST.bin before committing a new
/// snapshot generation over it).
Status RemoveFileIfExists(const std::string& path);

/// fsyncs the directory itself so renames/removals inside it are durable
/// — without this a crash can reorder the manifest commit against the
/// payload files it certifies.
Status SyncDir(const std::string& dir);

/// Writes one little-endian fixed-width scalar. Accepts bool, all
/// fixed-width integers, float and double; enums go through their
/// underlying integer at the call site.
template <typename T>
Status WriteScalar(Sink& sink, T value) {
  static_assert(std::is_arithmetic_v<T>);
  if constexpr (std::is_same_v<T, bool>) {
    const uint8_t byte = value ? 1 : 0;
    return sink.WriteBytes(&byte, 1);
  } else if constexpr (std::is_same_v<T, float>) {
    return WriteScalar(sink, std::bit_cast<uint32_t>(value));
  } else if constexpr (std::is_same_v<T, double>) {
    return WriteScalar(sink, std::bit_cast<uint64_t>(value));
  } else {
    using U = std::make_unsigned_t<T>;
    const U bits = static_cast<U>(value);
    uint8_t bytes[sizeof(U)];
    for (size_t i = 0; i < sizeof(U); ++i) {
      bytes[i] = static_cast<uint8_t>(bits >> (8 * i));
    }
    return sink.WriteBytes(bytes, sizeof(U));
  }
}

/// Reads one little-endian fixed-width scalar written by WriteScalar.
template <typename T>
Status ReadScalar(Source& source, T* out) {
  static_assert(std::is_arithmetic_v<T>);
  if constexpr (std::is_same_v<T, bool>) {
    uint8_t byte = 0;
    ADASKIP_RETURN_IF_ERROR(source.ReadBytes(&byte, 1));
    if (byte > 1) {
      return Status::DataLoss("bool byte out of range: " +
                              std::to_string(byte));
    }
    *out = byte != 0;
    return Status::OK();
  } else if constexpr (std::is_same_v<T, float>) {
    uint32_t bits = 0;
    ADASKIP_RETURN_IF_ERROR(ReadScalar(source, &bits));
    *out = std::bit_cast<float>(bits);
    return Status::OK();
  } else if constexpr (std::is_same_v<T, double>) {
    uint64_t bits = 0;
    ADASKIP_RETURN_IF_ERROR(ReadScalar(source, &bits));
    *out = std::bit_cast<double>(bits);
    return Status::OK();
  } else {
    using U = std::make_unsigned_t<T>;
    // Zeroed although ReadBytes fills it or fails: GCC's -O3 flow
    // analysis does not see that a failed read returns first.
    uint8_t bytes[sizeof(U)] = {};
    ADASKIP_RETURN_IF_ERROR(source.ReadBytes(bytes, sizeof(U)));
    U bits = 0;
    for (size_t i = 0; i < sizeof(U); ++i) {
      bits = static_cast<U>(bits | (static_cast<U>(bytes[i]) << (8 * i)));
    }
    *out = static_cast<T>(bits);
    return Status::OK();
  }
}

/// Writes a length-prefixed (u64) byte string.
Status WriteString(Sink& sink, std::string_view value);

/// Reads a string written by WriteString; the length field is checked
/// against `source.remaining()` before allocating.
Status ReadString(Source& source, std::string* out);

/// Writes a length-prefixed (u64) vector of arithmetic values. On a
/// little-endian host the payload is emitted in one write.
template <typename T>
Status WriteVector(Sink& sink, const std::vector<T>& values) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  ADASKIP_RETURN_IF_ERROR(
      WriteScalar(sink, static_cast<uint64_t>(values.size())));
  if constexpr (std::endian::native == std::endian::little) {
    if (values.empty()) return Status::OK();
    return sink.WriteBytes(values.data(), values.size() * sizeof(T));
  } else {
    for (T value : values) {
      ADASKIP_RETURN_IF_ERROR(WriteScalar(sink, value));
    }
    return Status::OK();
  }
}

/// Reads a vector written by WriteVector; the element count is validated
/// against `source.remaining()` before allocating.
template <typename T>
Status ReadVector(Source& source, std::vector<T>* out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  uint64_t count = 0;
  ADASKIP_RETURN_IF_ERROR(ReadScalar(source, &count));
  const int64_t limit = source.remaining();
  if (limit >= 0 && count > static_cast<uint64_t>(limit) / sizeof(T)) {
    return Status::DataLoss("vector length " + std::to_string(count) +
                            " exceeds the " + std::to_string(limit) +
                            " bytes left in the source");
  }
  out->clear();
  out->resize(static_cast<size_t>(count));
  if constexpr (std::endian::native == std::endian::little) {
    if (count == 0) return Status::OK();
    return source.ReadBytes(out->data(),
                            static_cast<size_t>(count) * sizeof(T));
  } else {
    for (uint64_t i = 0; i < count; ++i) {
      ADASKIP_RETURN_IF_ERROR(
          ReadScalar(source, &(*out)[static_cast<size_t>(i)]));
    }
    return Status::OK();
  }
}

/// Packs four ASCII characters into a block tag (e.g. FourCC("COLD")).
constexpr uint32_t FourCC(const char (&tag)[5]) {
  return static_cast<uint32_t>(static_cast<uint8_t>(tag[0])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(tag[1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(tag[2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(tag[3])) << 24);
}

/// Writes one framed block: [u32 tag][u64 payload size][payload][u32 crc].
Status WriteBlock(Sink& sink, uint32_t tag, std::string_view payload);

/// Reads one framed block, verifying the tag, the size against
/// `source.remaining()`, and the CRC. Any mismatch is kDataLoss.
Status ReadBlock(Source& source, uint32_t expected_tag, std::string* payload);

/// Writes the snapshot file preamble: magic + format-version byte.
Status WriteSnapshotHeader(Sink& sink);

/// Verifies the preamble written by WriteSnapshotHeader; wrong magic or
/// an unknown version byte is kDataLoss.
Status ReadSnapshotHeader(Source& source);

}  // namespace persist
}  // namespace adaskip

#endif  // ADASKIP_PERSIST_BINARY_IO_H_
