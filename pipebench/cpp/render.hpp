// Set-up helper: turn one day of synth flow records into the capture a
// probe on the PoP link would have seen — one time-sorted pcap per day.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>

#include "flow/record.hpp"

namespace pipebench {

/// Render every record as a conversation (handshake, DPI-visible first
/// flight, at most `response_cap` bytes of server payload, teardown when
/// the record closed by FIN). A flow that synth names through DN-Hunter
/// (QUIC) gets a DNS response to its client a few milliseconds before its
/// first packet. Frames of all conversations are merged by timestamp as
/// they are written, so only the conversations still in flight are held in
/// memory. Returns the frames written; throws std::runtime_error when the
/// file cannot be written.
std::uint64_t render_day_pcap(std::span<const edgewatch::flow::FlowRecord> records,
                              const std::filesystem::path& path, std::size_t response_cap);

}  // namespace pipebench
