#include "net/pcap.hpp"

#include <fstream>

#include "core/mapped_file.hpp"

namespace edgewatch::net {

namespace {

constexpr std::uint32_t kMagicUsecLE = 0xa1b2c3d4;
constexpr std::uint32_t kMagicUsecBE = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNsecLE = 0xa1b23c4d;
constexpr std::uint32_t kMagicNsecBE = 0x4d3cb2a1;
constexpr std::uint32_t kLinktypeEthernet = 1;

void put32(std::ofstream& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 4);
}

void put16(std::ofstream& out, std::uint16_t v) {
  char b[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out.write(b, 2);
}

constexpr std::size_t kGlobalHeaderBytes = 24;
constexpr std::size_t kRecordHeaderBytes = 16;
constexpr std::uint32_t kAbsurdLength = 256 * 1024 * 1024;

std::uint32_t load32(const unsigned char* b, bool swapped) noexcept {
  return swapped ? (std::uint32_t{b[0]} << 24) | (std::uint32_t{b[1]} << 16) |
                       (std::uint32_t{b[2]} << 8) | b[3]
                 : (std::uint32_t{b[3]} << 24) | (std::uint32_t{b[2]} << 16) |
                       (std::uint32_t{b[1]} << 8) | b[0];
}

}  // namespace

std::uint64_t write_pcap(const std::filesystem::path& path, const Trace& trace,
                         std::uint32_t snaplen) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return 0;
  put32(out, kMagicUsecLE);
  put16(out, 2);  // version major
  put16(out, 4);  // version minor
  put32(out, 0);  // thiszone
  put32(out, 0);  // sigfigs
  put32(out, snaplen);
  put32(out, kLinktypeEthernet);
  std::uint64_t written = 24;
  for (const auto& frame : trace) {
    const auto micros = frame.timestamp.micros();
    const auto secs = micros >= 0 ? micros / 1'000'000 : 0;
    const auto usecs = micros >= 0 ? micros % 1'000'000 : 0;
    const auto incl = static_cast<std::uint32_t>(
        std::min<std::size_t>(frame.data.size(), snaplen));
    put32(out, static_cast<std::uint32_t>(secs));
    put32(out, static_cast<std::uint32_t>(usecs));
    put32(out, incl);
    put32(out, static_cast<std::uint32_t>(frame.data.size()));
    out.write(reinterpret_cast<const char*>(frame.data.data()), incl);
    written += 16 + incl;
  }
  return out ? written : 0;
}

core::Result<PcapStats> read_pcap(const std::filesystem::path& path,
                                  const std::function<void(Frame&&)>& fn) {
  // An absent file is an I/O error here, as it always was for this reader.
  const auto file = core::MappedFile::open(path);
  if (!file) return core::Errc::kIoError;
  const auto* const bytes = reinterpret_cast<const unsigned char*>(file->bytes().data());
  const std::size_t size = file->size();
  if (size < 4) return core::Errc::kTruncated;
  const std::uint32_t magic = load32(bytes, false);
  bool swapped = false;
  bool nanoseconds = false;
  if (magic == kMagicUsecBE) {
    swapped = true;
  } else if (magic == kMagicNsecLE) {
    nanoseconds = true;
  } else if (magic == kMagicNsecBE) {
    nanoseconds = true;
    swapped = true;
  } else if (magic != kMagicUsecLE) {
    return core::Errc::kBadMagic;
  }
  if (size < kGlobalHeaderBytes) return core::Errc::kTruncated;
  // Bytes 4..15 (version, thiszone, sigfigs) carry nothing we use.
  const std::uint32_t snaplen = load32(bytes + 16, swapped);
  const std::uint32_t linktype = load32(bytes + 20, swapped);
  if (linktype != kLinktypeEthernet) return core::Errc::kUnsupported;
  // No capture tool writes snaplen 0: the header bytes cannot be trusted.
  if (snaplen == 0) return core::Errc::kCorrupt;

  PcapStats stats;
  stats.nanosecond_timestamps = nanoseconds;
  // One frame for the whole file, refilled in place (see the header).
  Frame frame;
  std::size_t pos = kGlobalHeaderBytes;
  // A short record header is a clean EOF (or a cut-off last record).
  while (size - pos >= kRecordHeaderBytes) {
    const unsigned char* h = bytes + pos;
    const std::uint32_t sec = load32(h, swapped);
    const std::uint32_t frac = load32(h + 4, swapped);
    const std::uint32_t incl = load32(h + 8, swapped);
    const std::uint32_t orig = load32(h + 12, swapped);
    if (incl > kAbsurdLength) break;  // absurd length: corrupt file
    pos += kRecordHeaderBytes;
    if (size - pos < incl) break;  // truncated final record
    const auto* body = reinterpret_cast<const std::byte*>(bytes + pos);
    frame.data.assign(body, body + incl);
    pos += incl;
    const std::int64_t micros =
        static_cast<std::int64_t>(sec) * 1'000'000 +
        (nanoseconds ? frac / 1000 : frac);
    frame.timestamp = core::Timestamp{micros};
    ++stats.frames;
    stats.bytes += incl;
    stats.truncated += incl < orig;
    // A capture can never hold more than snaplen bytes of a frame; count
    // the violation (the bytes are there, so still deliver them) instead
    // of silently treating the file as well-formed.
    stats.oversnap += incl > snaplen;
    fn(std::move(frame));
  }
  return stats;
}

core::Result<Trace> load_pcap(const std::filesystem::path& path) {
  Trace trace;
  const auto stats = read_pcap(path, [&trace](Frame&& f) { trace.add(std::move(f)); });
  if (!stats) return stats.error();
  return trace;
}

}  // namespace edgewatch::net
