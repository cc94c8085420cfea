#include "serve/binary_protocol.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "support/error.hpp"

namespace exareq::serve::binary {
namespace {

void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void put_u16(std::string& out, std::uint16_t value) {
  out.push_back(static_cast<char>(value & 0xFF));
  out.push_back(static_cast<char>((value >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void put_f64(std::string& out, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((bits >> shift) & 0xFF));
  }
}

void put_str16(std::string& out, std::string_view text, const char* what) {
  constexpr auto kMax = std::numeric_limits<std::uint16_t>::max();
  exareq::require(text.size() <= kMax, [&] {
    return std::string("binary: ") + what + " exceeds " +
           std::to_string(kMax) + " bytes";
  });
  put_u16(out, static_cast<std::uint16_t>(text.size()));
  out.append(text);
}

void put_str32(std::string& out, std::string_view text, const char* what) {
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  exareq::require(text.size() <= kMax, [&] {
    return std::string("binary: ") + what + " exceeds a u32 length";
  });
  put_u32(out, static_cast<std::uint32_t>(text.size()));
  out.append(text);
}

std::string frame_header(std::uint8_t magic, std::size_t payload_bytes) {
  exareq::require(payload_bytes <= std::numeric_limits<std::uint32_t>::max(),
                  "binary: frame payload exceeds a u32 length");
  std::string out;
  out.reserve(kHeaderBytes + payload_bytes);
  put_u8(out, magic);
  put_u8(out, kVersion);
  put_u8(out, kKindBatch);
  put_u8(out, 0);  // reserved
  put_u32(out, static_cast<std::uint32_t>(payload_bytes));
  return out;
}

/// Validates the header and returns a reader over the payload.
Reader open_frame(std::string_view frame, std::uint8_t expected_magic) {
  exareq::require(frame.size() >= kHeaderBytes,
                  "binary: frame shorter than its 8-byte header");
  Reader header(frame.substr(0, kHeaderBytes));
  const std::uint8_t magic = header.u8("magic");
  exareq::require(magic == expected_magic, [&] {
    return "binary: bad magic 0x" + std::to_string(magic) + " (expected 0x" +
           std::to_string(expected_magic) + ")";
  });
  const std::uint8_t version = header.u8("version");
  exareq::require(version == kVersion, [&] {
    return "binary: unsupported version " + std::to_string(version) +
           " (this server speaks version " + std::to_string(kVersion) + ")";
  });
  const std::uint8_t kind = header.u8("kind");
  exareq::require(kind == kKindBatch, [&] {
    return "binary: unsupported frame kind " + std::to_string(kind);
  });
  const std::uint8_t reserved = header.u8("reserved");
  exareq::require(reserved == 0, "binary: reserved header byte must be 0");
  const std::uint32_t payload_len = header.u32("payload length");
  exareq::require(frame.size() - kHeaderBytes == payload_len, [&] {
    return "binary: declared payload length " + std::to_string(payload_len) +
           " does not match the " +
           std::to_string(frame.size() - kHeaderBytes) + " bytes received";
  });
  return Reader(frame.substr(kHeaderBytes));
}

}  // namespace

Request RequestView::materialize() const {
  Request request;
  switch (opcode) {
    case Opcode::kEval:
      request.kind = RequestKind::kEval;
      request.app = std::string(app);
      exareq::require(metric_id < metric_names().size(), [&] {
        return "binary: unknown metric id " + std::to_string(metric_id);
      });
      request.metric = metric_names()[metric_id];
      request.p = p;
      request.n = n;
      break;
    case Opcode::kInvert:
    case Opcode::kUpgrade:
      request.kind = opcode == Opcode::kInvert ? RequestKind::kInvert
                                               : RequestKind::kUpgrade;
      request.app = std::string(app);
      request.processes = processes;
      request.memory_per_process = memory_per_process;
      break;
    case Opcode::kStrawman:
      request.kind = RequestKind::kStrawman;
      request.app = std::string(app);
      break;
    case Opcode::kStatus:
      request.kind = RequestKind::kStatus;
      break;
    case Opcode::kIngest:
      request.kind = RequestKind::kIngest;
      request.app = std::string(app);
      request.payload = std::string(payload);
      break;
  }
  validate_request(request);
  return request;
}

std::string encode_request_frame(const std::vector<Request>& requests) {
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(requests.size()));
  for (const Request& request : requests) {
    switch (request.kind) {
      case RequestKind::kEval: {
        const auto& names = metric_names();
        const auto it =
            std::find(names.begin(), names.end(), request.metric);
        exareq::require(it != names.end(), [&] {
          return "binary: unknown metric '" + request.metric + "'";
        });
        put_u8(payload, static_cast<std::uint8_t>(Opcode::kEval));
        put_str16(payload, request.app, "application name");
        put_u8(payload, static_cast<std::uint8_t>(it - names.begin()));
        put_f64(payload, request.p);
        put_f64(payload, request.n);
        break;
      }
      case RequestKind::kInvert:
      case RequestKind::kUpgrade:
        put_u8(payload, static_cast<std::uint8_t>(
                            request.kind == RequestKind::kInvert
                                ? Opcode::kInvert
                                : Opcode::kUpgrade));
        put_str16(payload, request.app, "application name");
        put_f64(payload, request.processes);
        put_f64(payload, request.memory_per_process);
        break;
      case RequestKind::kStrawman:
        put_u8(payload, static_cast<std::uint8_t>(Opcode::kStrawman));
        put_str16(payload, request.app, "application name");
        break;
      case RequestKind::kStatus:
        put_u8(payload, static_cast<std::uint8_t>(Opcode::kStatus));
        break;
      case RequestKind::kIngest:
        put_u8(payload, static_cast<std::uint8_t>(Opcode::kIngest));
        put_str16(payload, request.app, "application name");
        put_str32(payload, request.payload, "ingest payload");
        break;
    }
  }
  std::string frame = frame_header(kRequestMagic, payload.size());
  frame.append(payload);
  return frame;
}

std::string encode_response_frame(const std::vector<std::string>& lines) {
  std::string payload;
  put_u32(payload, static_cast<std::uint32_t>(lines.size()));
  for (const std::string& line : lines) {
    put_str32(payload, line, "response line");
  }
  std::string frame = frame_header(kResponseMagic, payload.size());
  frame.append(payload);
  return frame;
}

std::vector<RequestView> decode_request_frame(std::string_view frame) {
  Reader reader = open_frame(frame, kRequestMagic);
  const std::uint32_t count = reader.u32("record count");
  // Every record is at least one opcode byte, so a count beyond the
  // remaining payload is malformed — reject before reserving memory for it.
  exareq::require(count <= reader.remaining(), [&] {
    return "binary: record count " + std::to_string(count) +
           " exceeds the frame payload";
  });
  std::vector<RequestView> views;
  views.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RequestView view;
    const std::uint8_t opcode = reader.u8("opcode");
    switch (static_cast<Opcode>(opcode)) {
      case Opcode::kEval:
        view.opcode = Opcode::kEval;
        view.app = reader.str16("application name");
        view.metric_id = reader.u8("metric id");
        view.p = reader.f64("process count");
        view.n = reader.f64("problem size");
        break;
      case Opcode::kInvert:
      case Opcode::kUpgrade:
        view.opcode = static_cast<Opcode>(opcode);
        view.app = reader.str16("application name");
        view.processes = reader.f64("process count");
        view.memory_per_process = reader.f64("memory per process");
        break;
      case Opcode::kStrawman:
        view.opcode = Opcode::kStrawman;
        view.app = reader.str16("application name");
        break;
      case Opcode::kStatus:
        view.opcode = Opcode::kStatus;
        break;
      case Opcode::kIngest:
        view.opcode = Opcode::kIngest;
        view.app = reader.str16("application name");
        view.payload = reader.str32("ingest payload");
        break;
      default:
        throw exareq::InvalidArgument("binary: unknown opcode " +
                                      std::to_string(opcode));
    }
    views.push_back(view);
  }
  exareq::require(reader.remaining() == 0, [&] {
    return "binary: " + std::to_string(reader.remaining()) +
           " trailing bytes after the last record";
  });
  return views;
}

std::vector<std::string> decode_response_frame(std::string_view frame) {
  Reader reader = open_frame(frame, kResponseMagic);
  const std::uint32_t count = reader.u32("record count");
  exareq::require(count <= reader.remaining(), [&] {
    return "binary: record count " + std::to_string(count) +
           " exceeds the frame payload";
  });
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    lines.emplace_back(reader.str32("response line"));
  }
  exareq::require(reader.remaining() == 0, [&] {
    return "binary: " + std::to_string(reader.remaining()) +
           " trailing bytes after the last record";
  });
  return lines;
}

BinaryFrameDecoder::BinaryFrameDecoder(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {
  exareq::require(max_frame_bytes_ >= kHeaderBytes,
                  "BinaryFrameDecoder: max_frame_bytes must cover the header");
}

std::vector<std::string> BinaryFrameDecoder::feed(std::string_view bytes) {
  buffer_.append(bytes);
  std::vector<std::string> frames;
  while (buffer_.size() >= kHeaderBytes) {
    const auto first = static_cast<unsigned char>(buffer_[0]);
    if (!is_binary_frame_start(first)) {
      buffer_.clear();
      throw InvalidArgument("binary: stream does not start with a frame "
                            "magic (0xEB request / 0xEC response)");
    }
    Reader header(std::string_view(buffer_).substr(0, kHeaderBytes));
    header.u32("magic+version+kind+reserved");
    const std::uint32_t payload_len = header.u32("payload length");
    const std::size_t total = kHeaderBytes + payload_len;
    if (total > max_frame_bytes_) {
      buffer_.clear();
      throw InvalidArgument("binary: frame of " + std::to_string(total) +
                            " bytes exceeds the " +
                            std::to_string(max_frame_bytes_) + "-byte limit");
    }
    if (buffer_.size() < total) break;
    frames.push_back(buffer_.substr(0, total));
    buffer_.erase(0, total);
  }
  return frames;
}

}  // namespace exareq::serve::binary
