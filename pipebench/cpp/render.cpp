#include "render.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "synth/packets.hpp"

namespace pipebench {

namespace ew = edgewatch;

namespace {

constexpr std::int64_t kDnsLeadUs = 5'000;  ///< DNS answer precedes the flow by 5 ms.
/// The ISP resolver sits outside the customer net, so a DNS answer's
/// customer side is the subscriber it is addressed to.
const ew::core::IPv4Address kResolver{192, 0, 2, 53};

/// Streaming classic-pcap writer (little-endian, microsecond stamps,
/// Ethernet) — the format net::read_pcap reads back.
class PcapWriter {
 public:
  explicit PcapWriter(const std::filesystem::path& path)
      : file_(std::fopen(path.c_str(), "wb"), &std::fclose) {
    if (!file_) throw std::runtime_error("cannot create " + path.string());
    std::setvbuf(file_.get(), nullptr, _IOFBF, 1 << 20);
    const std::uint32_t header[6] = {0xa1b2c3d4u, 2u | (4u << 16), 0, 0, 65535u, 1u};
    put(header, sizeof header);
  }

  void write(const ew::net::Frame& frame) {
    const std::int64_t us = frame.timestamp.micros();
    const auto len = static_cast<std::uint32_t>(frame.data.size());
    const std::uint32_t rec[4] = {static_cast<std::uint32_t>(us / 1'000'000),
                                  static_cast<std::uint32_t>(us % 1'000'000), len, len};
    put(rec, sizeof rec);
    put(frame.data.data(), len);
  }

  void close() {
    if (std::fflush(file_.get()) != 0) throw std::runtime_error("pcap write failed");
    file_.reset();
  }

 private:
  void put(const void* p, std::size_t n) {
    if (std::fwrite(p, 1, n, file_.get()) != n) throw std::runtime_error("pcap write failed");
  }

  std::unique_ptr<std::FILE, decltype(&std::fclose)> file_;
};

ew::synth::ConversationSpec conversation_for(const ew::flow::FlowRecord& r, std::size_t cap) {
  ew::synth::ConversationSpec spec;
  spec.client = r.client_ip;
  spec.server = r.server_ip;
  spec.client_port = r.client_port;
  spec.server_port = r.server_port;
  spec.p2p = ew::dpi::is_p2p(r.l7);
  spec.web = spec.p2p ? ew::dpi::WebProtocol::kNotWeb : r.web;
  spec.server_name = r.server_name;
  if (spec.web == ew::dpi::WebProtocol::kHttp2) spec.server_alpn = "h2";
  if (spec.web == ew::dpi::WebProtocol::kSpdy) spec.server_alpn = "spdy/3.1";
  spec.response_bytes = static_cast<std::size_t>(std::min<std::uint64_t>(r.down.bytes, cap));
  spec.start = r.first_packet;
  spec.rtt_us = r.rtt.samples > 0 ? std::max<std::int64_t>(r.rtt.min_us, 100) : 20'000;
  spec.teardown = r.close_reason == ew::flow::FlowCloseReason::kTcpTeardown;
  return spec;
}

}  // namespace

std::uint64_t render_day_pcap(std::span<const ew::flow::FlowRecord> records,
                              const std::filesystem::path& path, std::size_t response_cap) {
  std::vector<std::size_t> order(records.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return records[a].first_packet < records[b].first_packet;
  });

  // Min-heap over the next unwritten frame of every conversation in flight;
  // ties break on conversation then frame index, so the file is a pure
  // function of the records.
  struct Next {
    std::int64_t ts;
    std::uint64_t conv;
    std::uint32_t frame;
    bool operator>(const Next& o) const {
      if (ts != o.ts) return ts > o.ts;
      if (conv != o.conv) return conv > o.conv;
      return frame > o.frame;
    }
  };
  std::priority_queue<Next, std::vector<Next>, std::greater<>> heap;
  std::unordered_map<std::uint64_t, std::vector<ew::net::Frame>> in_flight;
  std::uint64_t next_conv = 0;
  std::uint64_t frames = 0;
  PcapWriter out{path};

  const auto start = [&](std::vector<ew::net::Frame> frames) {
    if (frames.empty()) return;
    const std::uint64_t id = next_conv++;
    heap.push({frames.front().timestamp.micros(), id, 0});
    in_flight.emplace(id, std::move(frames));
  };
  // Write every queued frame stamped before `until`.
  const auto drain = [&](std::int64_t until) {
    while (!heap.empty() && heap.top().ts < until) {
      const Next n = heap.top();
      heap.pop();
      auto it = in_flight.find(n.conv);
      out.write(it->second[n.frame]);
      ++frames;
      if (n.frame + 1 < it->second.size()) {
        heap.push({it->second[n.frame + 1].timestamp.micros(), n.conv, n.frame + 1});
      } else {
        in_flight.erase(it);
      }
    }
  };

  for (const std::size_t i : order) {
    const auto& r = records[i];
    // Records arrive by first packet, and nothing a later record renders
    // is stamped before its first packet minus the DNS lead.
    drain(r.first_packet.micros() - kDnsLeadUs);
    if (r.name_source == ew::flow::NameSource::kDnsHunter && !r.server_name.empty()) {
      const ew::core::IPv4Address addrs[] = {r.server_ip};
      std::vector<ew::net::Frame> dns;
      dns.push_back(ew::synth::render_dns_response(r.client_ip, kResolver, r.server_name, addrs,
                                                   r.first_packet + (-kDnsLeadUs),
                                                   static_cast<std::uint16_t>(r.client_port - 1)));
      start(std::move(dns));
    }
    start(ew::synth::render_conversation(conversation_for(r, response_cap)));
  }
  drain(std::numeric_limits<std::int64_t>::max());
  out.close();
  return frames;
}

}  // namespace pipebench
