// The batched binary wire format, v1 — negotiated alongside the text
// protocol by the first byte of a connection (is_binary_frame_start).
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       1     magic: 0xEB request frame, 0xEC response frame. Neither
//                 byte can open a text-protocol line (verbs are ASCII), so
//                 the front end auto-detects the protocol per connection.
//   1       1     version (currently 1; other values are rejected)
//   2       1     kind (currently 1 = batch; other values are rejected)
//   3       1     reserved (must be 0)
//   4       4     payload length in bytes (u32 LE, header excluded)
//   8       ...   payload
//
// Request payload: u32 record count, then one record per request:
//
//   opcode u8, then per opcode:
//     kEval     app:str16  metric_id:u8  p:f64  n:f64
//     kInvert   app:str16  processes:f64 memory_per_process:f64
//     kUpgrade  app:str16  processes:f64 memory_per_process:f64
//     kStrawman app:str16
//     kStatus   (no fields)
//     kIngest   app:str16  payload:str32
//
//   str16 = u16 length + bytes; str32 = u32 length + bytes. metric_id is
//   the index into protocol.hpp's metric_names(). f64 is an IEEE-754
//   double serialized as its u64 bit pattern, little-endian.
//
// Response payload: u32 record count, then per request (in order) one
// str32 holding the exact text-protocol response line ("ok ..." or
// "error <category>: ..."). Batched-binary results are therefore
// bit-identical to one-at-a-time text results by construction, which the
// property-test differential oracle checks directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.hpp"
#include "support/error.hpp"

namespace exareq::serve::binary {

inline constexpr std::uint8_t kRequestMagic = 0xEB;
inline constexpr std::uint8_t kResponseMagic = 0xEC;
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::uint8_t kKindBatch = 1;
inline constexpr std::size_t kHeaderBytes = 8;

/// Default frame bound for the binary path. Batch frames carry hundreds of
/// requests (and ingest frames whole campaign CSVs), so the bound is far
/// above the text protocol's per-line 64 KiB default.
inline constexpr std::size_t kDefaultBatchMaxFrameBytes = 4 * 1024 * 1024;

enum class Opcode : std::uint8_t {
  kEval = 1,
  kInvert = 2,
  kUpgrade = 3,
  kStrawman = 4,
  kStatus = 5,
  kIngest = 6,
};

/// True when `byte` opens a binary frame rather than a text request line.
inline bool is_binary_frame_start(unsigned char byte) {
  return byte == kRequestMagic || byte == kResponseMagic;
}

/// One decoded request record. The string_views alias the frame buffer the
/// record was decoded from — zero-copy, valid only while that buffer lives.
struct RequestView {
  Opcode opcode = Opcode::kStatus;
  std::string_view app;
  std::string_view payload;     ///< kIngest only
  std::uint8_t metric_id = 0;   ///< kEval only: index into metric_names()
  double p = 0.0;
  double n = 0.0;
  double processes = 0.0;
  double memory_per_process = 0.0;

  /// Copies into a protocol Request and applies the same semantic
  /// validation the text parser does (validate_request), so malformed
  /// binary requests produce the same error messages as malformed text.
  /// Throws InvalidArgument on an out-of-range metric id or any
  /// validate_request failure.
  Request materialize() const;
};

/// Encodes a batch into one request frame (header included). Throws
/// InvalidArgument when a request is not encodable: unknown metric name,
/// app longer than a str16, or ingest payload longer than a str32.
std::string encode_request_frame(const std::vector<Request>& requests);

/// Encodes response lines into one response frame (header included).
std::string encode_response_frame(const std::vector<std::string>& lines);

/// Cursor over a frame payload. Every read checks the remaining length and
/// throws InvalidArgument on truncation, so malformed frames from a fuzzer
/// or a buggy client can never read out of bounds.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8(const char* what) { return take(1, what)[0]; }

  std::uint16_t u16(const char* what) {
    const unsigned char* p = take(2, what);
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }

  std::uint32_t u32(const char* what) {
    const unsigned char* p = take(4, what);
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }

  double f64(const char* what) {
    const unsigned char* p = take(8, what);
    std::uint64_t bits = 0;
    for (int i = 7; i >= 0; --i) bits = (bits << 8) | p[i];
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  std::string_view bytes(std::size_t count, const char* what) {
    const char* begin = reinterpret_cast<const char*>(take(count, what));
    return std::string_view(begin, count);
  }

  std::string_view str16(const char* what) { return bytes(u16(what), what); }
  std::string_view str32(const char* what) { return bytes(u32(what), what); }

  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  const unsigned char* take(std::size_t count, const char* what) {
    exareq::require(remaining() >= count, [&] {
      return std::string("binary: frame truncated reading ") + what;
    });
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    pos_ += count;
    return p;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Decodes a complete request frame (header included) into views aliasing
/// `frame`. Throws InvalidArgument on bad magic/version/kind, a length
/// mismatch, a truncated record, an unknown opcode, or trailing bytes.
std::vector<RequestView> decode_request_frame(std::string_view frame);

/// Decodes a complete response frame (header included) into the response
/// lines. Same error behaviour as decode_request_frame.
std::vector<std::string> decode_response_frame(std::string_view frame);

/// Splits a byte stream into complete binary frames — the binary
/// counterpart of FrameDecoder. Returned strings are whole frames (header
/// included), ready for decode_request_frame / decode_response_frame.
/// A declared frame larger than `max_frame_bytes`, or a first byte that is
/// not a frame magic, throws InvalidArgument; the pending bytes are
/// dropped so the decoder stays usable (callers normally close the
/// connection, matching FrameDecoder's contract).
class BinaryFrameDecoder {
 public:
  explicit BinaryFrameDecoder(
      std::size_t max_frame_bytes = kDefaultBatchMaxFrameBytes);

  /// Appends bytes; returns every completed frame.
  std::vector<std::string> feed(std::string_view bytes);

  /// True while a partially-received frame is buffered.
  bool has_partial_frame() const { return !buffer_.empty(); }
  std::size_t partial_bytes() const { return buffer_.size(); }
  std::size_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  std::size_t max_frame_bytes_;
  std::string buffer_;
};

}  // namespace exareq::serve::binary
