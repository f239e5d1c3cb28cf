// Pcap file round-trips and robustness, including probe-from-pcap replay.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "net/pcap.hpp"
#include "probe/probe.hpp"
#include "synth/packets.hpp"
#include "temp_dir.hpp"

namespace ew = edgewatch;
namespace fs = std::filesystem;

namespace {

struct TempFile {
  fs::path path = ew::test::unique_temp_path("ewpcap");
  ~TempFile() { fs::remove(path); }
};

ew::net::Trace sample_trace() {
  ew::net::Trace trace;
  ew::synth::ConversationSpec spec;
  spec.client = ew::core::IPv4Address{10, 0, 0, 9};
  spec.server = ew::core::IPv4Address{157, 240, 1, 1};
  spec.web = ew::dpi::WebProtocol::kTls;
  spec.server_name = "www.facebook.com";
  spec.response_bytes = 9'000;
  spec.start = ew::core::Timestamp::from_date_time({2016, 3, 4}, 12);
  spec.rtt_us = 12'000;
  for (auto& f : ew::synth::render_conversation(spec)) trace.add(std::move(f));
  return trace;
}

void put32(std::ofstream& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.write(b, 4);
}

void put16(std::ofstream& out, std::uint16_t v) {
  char b[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out.write(b, 2);
}

/// Hand-build a little-endian pcap with an arbitrary magic and snaplen.
void write_raw_pcap(const fs::path& path, std::uint32_t magic, std::uint32_t snaplen,
                    std::initializer_list<std::pair<std::uint32_t, std::uint32_t>> frames) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  put32(out, magic);
  put16(out, 2);
  put16(out, 4);
  put32(out, 0);
  put32(out, 0);
  put32(out, snaplen);
  put32(out, 1);  // Ethernet
  for (const auto& [incl, orig] : frames) {
    put32(out, 1000);  // sec
    put32(out, 500);   // frac
    put32(out, incl);
    put32(out, orig);
    for (std::uint32_t i = 0; i < incl; ++i) out.put('\0');
  }
}

}  // namespace

TEST(Pcap, WriteReadRoundTrip) {
  TempFile file;
  const auto trace = sample_trace();
  const auto written = ew::net::write_pcap(file.path, trace);
  EXPECT_GT(written, 24u);

  const auto loaded = ew::net::load_pcap(file.path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ((*loaded)[i].timestamp, trace[i].timestamp);
    EXPECT_EQ((*loaded)[i].data, trace[i].data);
  }
}

TEST(Pcap, StatsCountFramesAndBytes) {
  TempFile file;
  const auto trace = sample_trace();
  ew::net::write_pcap(file.path, trace);
  std::size_t n = 0;
  const auto stats = ew::net::read_pcap(file.path, [&n](ew::net::Frame&&) { ++n; });
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->frames, trace.size());
  EXPECT_EQ(n, trace.size());
  EXPECT_EQ(stats->truncated, 0u);
  std::uint64_t bytes = 0;
  for (const auto& f : trace) bytes += f.data.size();
  EXPECT_EQ(stats->bytes, bytes);
}

TEST(Pcap, SnaplenTruncatesAndIsReported) {
  TempFile file;
  const auto trace = sample_trace();
  ew::net::write_pcap(file.path, trace, 100);
  const auto stats = ew::net::read_pcap(file.path, [](ew::net::Frame&& f) {
    EXPECT_LE(f.data.size(), 100u);
  });
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->truncated, 0u);
}

TEST(Pcap, RejectsGarbageAndMissingFiles) {
  const auto missing = ew::net::load_pcap("/nonexistent/file.pcap");
  EXPECT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error(), ew::core::Errc::kIoError);
  TempFile file;
  std::ofstream(file.path, std::ios::binary) << "this is not a pcap file at all";
  const auto garbage = ew::net::load_pcap(file.path);
  EXPECT_FALSE(garbage.has_value());
  EXPECT_EQ(garbage.error(), ew::core::Errc::kBadMagic);
}

TEST(Pcap, ShortGlobalHeaderIsTruncatedNotBadMagic) {
  TempFile file;
  std::ofstream(file.path, std::ios::binary).write("\xd4\xc3\xb2\xa1\x02\x00", 6);
  EXPECT_EQ(ew::net::load_pcap(file.path).error(), ew::core::Errc::kTruncated);
}

TEST(Pcap, MicrosecondFilesReportNoNanosecondFlag) {
  TempFile file;
  ew::net::write_pcap(file.path, sample_trace());
  const auto stats = ew::net::read_pcap(file.path, [](ew::net::Frame&&) {});
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->nanosecond_timestamps);
  EXPECT_EQ(stats->oversnap, 0u);
}

TEST(Pcap, NanosecondMagicIsFlaggedAndTruncatedToMicros) {
  TempFile file;
  write_raw_pcap(file.path, 0xa1b23c4d, 65535, {{10, 10}});
  std::vector<ew::net::Frame> frames;
  const auto stats =
      ew::net::read_pcap(file.path, [&](ew::net::Frame&& f) { frames.push_back(std::move(f)); });
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->nanosecond_timestamps);
  ASSERT_EQ(frames.size(), 1u);
  // 1000 s + 500 ns floors to exactly 1000 s in microseconds.
  EXPECT_EQ(frames[0].timestamp.micros(), 1000 * 1'000'000);
}

TEST(Pcap, ZeroSnaplenIsRejectedAsCorrupt) {
  TempFile file;
  write_raw_pcap(file.path, 0xa1b2c3d4, 0, {{10, 10}});
  const auto stats = ew::net::read_pcap(file.path, [](ew::net::Frame&&) {});
  EXPECT_FALSE(stats.has_value());
  EXPECT_EQ(stats.error(), ew::core::Errc::kCorrupt);
}

TEST(Pcap, OversnapFramesAreCountedNotDropped) {
  TempFile file;
  // snaplen 64 but one record claims 100 captured bytes (malformed writer).
  write_raw_pcap(file.path, 0xa1b2c3d4, 64, {{40, 40}, {100, 100}});
  std::size_t n = 0;
  const auto stats = ew::net::read_pcap(file.path, [&n](ew::net::Frame&&) { ++n; });
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->frames, 2u);
  EXPECT_EQ(n, 2u);  // delivered, not dropped
  EXPECT_EQ(stats->oversnap, 1u);
}

TEST(Pcap, TruncatedLastRecordEndsGracefully) {
  TempFile file;
  const auto trace = sample_trace();
  ew::net::write_pcap(file.path, trace);
  // Chop the file mid-record.
  const auto size = fs::file_size(file.path);
  fs::resize_file(file.path, size - 7);
  std::size_t n = 0;
  const auto stats = ew::net::read_pcap(file.path, [&n](ew::net::Frame&&) { ++n; });
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->frames, trace.size() - 1);
  EXPECT_EQ(n, trace.size() - 1);
}

// Records of every size, one of them 1.5 MiB, must come back byte for byte
// (the size mix once straddled the 1 MiB read blocks of an earlier reader),
// and a file cut inside the oversized record must end the stream just
// before it.
TEST(Pcap, RecordsAcrossAndBeyondReadBlocksRoundTrip) {
  constexpr std::size_t kLarge = 1500;
  ew::net::Trace trace;
  for (std::size_t i = 0; i < 3000; ++i) {
    ew::net::Frame f;
    f.timestamp = ew::core::Timestamp{100'000'000 + static_cast<std::int64_t>(i)};
    f.data.resize(i == kLarge ? std::size_t{3} << 19 : 1 + (i * 7919) % 1499);
    for (std::size_t b = 0; b < f.data.size(); ++b) {
      f.data[b] = static_cast<std::byte>((b * 31 + i) & 0xff);
    }
    trace.add(std::move(f));
  }
  TempFile file;
  ASSERT_GT(ew::net::write_pcap(file.path, trace, 4u << 20), 0u);

  std::vector<ew::net::Frame> back;
  const auto stats = ew::net::read_pcap(
      file.path, [&back](ew::net::Frame&& f) { back.push_back(std::move(f)); });
  ASSERT_TRUE(stats.has_value());
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].timestamp, trace[i].timestamp) << i;
    EXPECT_EQ(back[i].data, trace[i].data) << i;
  }

  std::uint64_t large_at = 24;
  for (std::size_t i = 0; i < kLarge; ++i) large_at += 16 + trace[i].data.size();
  fs::resize_file(file.path, large_at + 16 + (std::size_t{1} << 19));
  std::size_t n = 0;
  const auto cut = ew::net::read_pcap(file.path, [&n](ew::net::Frame&&) { ++n; });
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->frames, kLarge);
  EXPECT_EQ(n, kLarge);
}

// read_pcap hands every record to the callback in one frame it refills in
// place. Long and short records alternate (and one is empty), so a frame
// that kept a long record's bytes past a short record would show here.
namespace {

ew::net::Trace long_short_trace() {
  ew::net::Trace trace;
  for (std::size_t i = 0; i < 40; ++i) {
    ew::net::Frame f;
    f.timestamp = ew::core::Timestamp{5'000'000 + static_cast<std::int64_t>(i)};
    f.data.resize(i == 7 ? 0 : i % 2 == 0 ? 1400 + i : 1 + i % 5);
    for (std::size_t b = 0; b < f.data.size(); ++b) {
      f.data[b] = static_cast<std::byte>((b * 13 + i * 7) & 0xff);
    }
    trace.add(std::move(f));
  }
  return trace;
}

}  // namespace

TEST(Pcap, UnmovedFrameSeesEachRecordsExactBytes) {
  TempFile file;
  const auto trace = long_short_trace();
  ASSERT_GT(ew::net::write_pcap(file.path, trace), 0u);
  std::size_t i = 0;
  const auto stats = ew::net::read_pcap(file.path, [&](ew::net::Frame&& f) {
    ASSERT_LT(i, trace.size());
    EXPECT_EQ(f.timestamp, trace[i].timestamp) << i;
    EXPECT_EQ(f.data, trace[i].data) << i;
    ++i;
  });
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->frames, trace.size());
  EXPECT_EQ(i, trace.size());
}

TEST(Pcap, MovingEveryOtherFrameSeesExactBytes) {
  TempFile file;
  const auto trace = long_short_trace();
  ASSERT_GT(ew::net::write_pcap(file.path, trace), 0u);
  std::vector<ew::net::Frame> kept;
  std::size_t i = 0;
  const auto stats = ew::net::read_pcap(file.path, [&](ew::net::Frame&& f) {
    ASSERT_LT(i, trace.size());
    EXPECT_EQ(f.data, trace[i].data) << i;
    if (i % 2 == 1) kept.push_back(std::move(f));
    ++i;
  });
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(i, trace.size());
  ASSERT_EQ(kept.size(), trace.size() / 2);
  for (std::size_t k = 0; k < kept.size(); ++k) {
    EXPECT_EQ(kept[k].timestamp, trace[2 * k + 1].timestamp) << k;
    EXPECT_EQ(kept[k].data, trace[2 * k + 1].data) << k;
  }
}

// The reader maps the file, and the mapping reports an absent file as
// kNotFound; read_pcap keeps reporting it as an I/O error.
TEST(Pcap, MissingFileIsIoError) {
  const fs::path missing = ew::test::unique_temp_path("ewpcap-missing");
  ASSERT_FALSE(fs::exists(missing));
  const auto stats = ew::net::read_pcap(missing, [](ew::net::Frame&&) {});
  ASSERT_FALSE(stats.has_value());
  EXPECT_EQ(stats.error(), ew::core::Errc::kIoError);
}

TEST(Pcap, ProbeConsumesPcapReplay) {
  TempFile file;
  ew::net::write_pcap(file.path, sample_trace());
  std::vector<ew::flow::FlowRecord> records;
  ew::probe::Probe probe{{}, [&](ew::flow::FlowRecord&& r) { records.push_back(std::move(r)); }};
  const auto stats =
      ew::net::read_pcap(file.path, [&](ew::net::Frame&& f) { probe.process(f); });
  ASSERT_TRUE(stats.has_value());
  probe.finish();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].server_name, "www.facebook.com");
  EXPECT_EQ(records[0].down.bytes, 9'000u);
}
