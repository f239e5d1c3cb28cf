// Ablation — flow-record encoding choices (DESIGN.md §5). Compares raw
// struct dumps, varint encoding, and varint+block-compression on size and
// speed; the §2.2 storage claim (years of logs kept online) rests on the
// compact variant.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <span>

#include "storage/codec.hpp"
#include "storage/compress.hpp"
#include "synth/generator.hpp"

namespace ew = edgewatch;

namespace {

const std::vector<ew::flow::FlowRecord>& records() {
  static const auto recs = [] {
    const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(42)};
    return gen.day_records({2015, 5, 10});
  }();
  return recs;
}

/// "Raw" baseline: fixed-width dump of the POD fields + length-prefixed
/// name (what a naive exporter would write).
std::vector<std::byte> encode_raw(const std::vector<ew::flow::FlowRecord>& recs) {
  ew::core::ByteWriter w{recs.size() * 128};
  for (const auto& r : recs) {
    w.u32(r.client_ip.value());
    w.u32(r.server_ip.value());
    w.u16(r.client_port);
    w.u16(r.server_port);
    w.u8(static_cast<std::uint8_t>(r.proto));
    w.u8(static_cast<std::uint8_t>(r.access));
    w.u64(static_cast<std::uint64_t>(r.first_packet.micros()));
    w.u64(static_cast<std::uint64_t>(r.last_packet.micros()));
    w.u64(r.up.packets);
    w.u64(r.up.bytes);
    w.u64(r.up.bytes_with_hdr);
    w.u64(r.down.packets);
    w.u64(r.down.bytes);
    w.u64(r.down.bytes_with_hdr);
    w.u8(r.handshake_completed);
    w.u8(static_cast<std::uint8_t>(r.close_reason));
    w.u32(r.rtt.samples);
    w.u64(static_cast<std::uint64_t>(r.rtt.min_us));
    w.u64(static_cast<std::uint64_t>(r.rtt.max_us));
    w.u64(static_cast<std::uint64_t>(r.rtt.avg_us));
    w.u8(static_cast<std::uint8_t>(r.l7));
    w.u8(static_cast<std::uint8_t>(r.web));
    w.u8(static_cast<std::uint8_t>(r.name_source));
    w.u16(static_cast<std::uint16_t>(r.server_name.size()));
    w.string(r.server_name);
  }
  auto view = w.view();
  return {view.begin(), view.end()};
}

std::vector<std::byte> encode_varint(const std::vector<ew::flow::FlowRecord>& recs) {
  ew::core::ByteWriter w{recs.size() * 64};
  for (const auto& r : recs) ew::storage::encode_record(r, w);
  auto view = w.view();
  return {view.begin(), view.end()};
}

/// Block compression as the lake applies it to byte streams (the stored
/// envelope unless LZ saves at least 1/8).
std::vector<std::byte> compress(std::span<const std::byte> input) {
  std::vector<std::byte> out;
  ew::storage::CompressScratch scratch;
  ew::storage::compress_block_lazy_append(input, out, scratch);
  return out;
}

void print_reproduction() {
  std::printf("\n================================================================\n");
  std::printf("Ablation: flow-record encodings (%zu records, one synthetic day)\n",
              records().size());
  std::printf("================================================================\n");
  const auto raw = encode_raw(records());
  const auto varint = encode_varint(records());
  const auto raw_z = compress(raw);
  const auto varint_z = compress(varint);
  const auto n = static_cast<double>(records().size());
  std::printf("  %-32s %10.1f B/record\n", "raw fixed-width", raw.size() / n);
  std::printf("  %-32s %10.1f B/record\n", "raw + block compression", raw_z.size() / n);
  std::printf("  %-32s %10.1f B/record\n", "varint+delta (ours)", varint.size() / n);
  std::printf("  %-32s %10.1f B/record\n", "varint+delta + compression (ours)",
              varint_z.size() / n);
  std::printf("  end-to-end size advantage: %.2fx vs raw\n",
              static_cast<double>(raw.size()) / static_cast<double>(varint_z.size()));
}

void BM_EncodeRaw(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(encode_raw(records()));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records().size()));
}
BENCHMARK(BM_EncodeRaw);

void BM_EncodeVarint(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(encode_varint(records()));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records().size()));
}
BENCHMARK(BM_EncodeVarint);

void BM_EncodeVarintCompressed(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress(encode_varint(records())));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records().size()));
}
BENCHMARK(BM_EncodeVarintCompressed);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
