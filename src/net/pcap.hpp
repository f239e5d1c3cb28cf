// Classic libpcap capture-file support (the 24-byte global header format,
// magic 0xa1b2c3d4 / 0xd4c3b2a1). Lets the probe consume real captures and
// lets the synthetic generators emit traces any standard tool can open —
// the interop boundary between this reproduction and the outside world.
//
// Scope: linktype EN10MB (Ethernet), microsecond timestamps, both
// endiannesses on read, native little-endian on write. The nanosecond
// variants (0xa1b23c4d / 0x4d3cb2a1) are read with timestamps truncated to
// microseconds; PcapStats reports that the file carried nanosecond stamps.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>

#include "core/result.hpp"
#include "net/packet.hpp"

namespace edgewatch::net {

struct PcapStats {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;         ///< Captured bytes (sum of incl_len).
  std::uint64_t truncated = 0;     ///< Frames with incl_len < orig_len.
  std::uint64_t oversnap = 0;      ///< Frames whose incl_len exceeds snaplen
                                   ///< (malformed, but still delivered).
  bool nanosecond_timestamps = false;  ///< File used a nanosecond magic.
};

/// Write a trace as a pcap file. Returns bytes written, 0 on I/O error.
std::uint64_t write_pcap(const std::filesystem::path& path, const Trace& trace,
                         std::uint32_t snaplen = 65535);

/// Stream frames from a pcap file. Errors: kIoError (unopenable, absent
/// included), kTruncated (global header cut short), kBadMagic,
/// kUnsupported (non-Ethernet linktype), kCorrupt (snaplen == 0 — no
/// capture tool writes that, so the header bytes cannot be trusted). A
/// frame cut short mid-file ends the stream gracefully (counted frames are
/// still reported). (Result's optional-like surface keeps `if (stats) ...
/// stats->frames` call sites working.)
///
/// The file is read through a read-only mapping (core::MappedFile), and
/// one Frame is handed to `fn` for every record. `fn` may move from it or
/// swap its buffer for another (ShardedProbe::ingest does); the next record
/// is copied into whatever buffer the frame holds afterwards, reusing its
/// capacity. So a callback that does not move from the frame pays one
/// memcpy per record and no allocation. The file size is fixed when the
/// file is opened: bytes appended later are not read, and the file must not
/// shrink while it is read, because the mapping would then fault (SIGBUS).
core::Result<PcapStats> read_pcap(const std::filesystem::path& path,
                                  const std::function<void(Frame&&)>& fn);

/// Convenience: whole file into a Trace (every frame moved into it, so one
/// allocation per frame). Same errors as read_pcap.
core::Result<Trace> load_pcap(const std::filesystem::path& path);

}  // namespace edgewatch::net
