// Test helpers: lake rows as FlowRecords, read through the one scan path.
// Batches come from DataLake::scan_day_batches (or decode_columnar_batch for
// a lone block body) and are replayed with exec::materialize_rows — the same
// replay DataLake::read_day performs, but under any predicate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/record_batch.hpp"
#include "storage/columnar.hpp"
#include "storage/datalake.hpp"

/// The delivered rows of one day plus how the scan went.
struct DayRows {
  std::vector<edgewatch::flow::FlowRecord> rows;
  edgewatch::storage::ScanResult scan;
};

/// Rows of `day` under `predicate` (nullptr = a full, unprojected scan).
inline DayRows scan_rows(const edgewatch::storage::DataLake& lake, edgewatch::core::CivilDate day,
                         const edgewatch::storage::ScanPredicate* predicate = nullptr) {
  DayRows out;
  edgewatch::flow::FlowRecord rec;
  const auto push = [&out](const edgewatch::flow::FlowRecord& r) { out.rows.push_back(r); };
  const auto sink = [&](const edgewatch::exec::RecordBatch& b) {
    edgewatch::exec::materialize_rows(b, rec, push);
  };
  out.scan = predicate != nullptr ? lake.scan_day_batches(day, *predicate, sink)
                                  : lake.scan_day_batches(day, sink);
  return out;
}

/// Decode one columnar block body and append its delivered rows to `rows`.
/// Nothing is appended when the body is corrupt (blocks decode atomically).
inline edgewatch::storage::BlockDecodeStatus decode_block_rows(
    std::span<const std::byte> body, edgewatch::storage::ColumnScratch& scratch,
    const edgewatch::storage::ScanPredicate* predicate,
    std::vector<edgewatch::flow::FlowRecord>& rows,
    std::uint32_t expected_records = edgewatch::storage::kAnyRecordCount) {
  edgewatch::exec::RecordBatch batch;
  const auto status =
      edgewatch::storage::decode_columnar_batch(body, scratch, predicate, batch, expected_records);
  if (status == edgewatch::storage::BlockDecodeStatus::kCorrupt) return status;
  edgewatch::flow::FlowRecord rec;
  const auto push = [&rows](const edgewatch::flow::FlowRecord& r) { rows.push_back(r); };
  edgewatch::exec::materialize_rows(batch, rec, push);
  return status;
}
