// One monitored day at the PoP, end to end: the scenario engine produces a
// day of flow records, they land in the day-partitioned data lake, and the
// stage-one/stage-two analytics print the daily operations report an ISP
// would read — active subscribers, volumes, top services, protocol mix.
//
//   ./build/examples/isp_monitor [YYYY-MM-DD]   (default 2016-11-15)
#include <cstdio>
#include <filesystem>

#include "analytics/figures.hpp"
#include "analytics/infrastructure.hpp"
#include "analytics/parallel.hpp"
#include "storage/datalake.hpp"
#include "synth/generator.hpp"

namespace ew = edgewatch;

int main(int argc, char** argv) {
  ew::core::CivilDate day{2016, 11, 15};
  if (argc > 1) {
    const auto parsed = ew::core::CivilDate::parse(argv[1]);
    if (!parsed) {
      std::fprintf(stderr, "usage: %s [YYYY-MM-DD] (within 2013-03 .. 2017-09)\n", argv[0]);
      return 1;
    }
    day = *parsed;
  }

  std::printf("edgewatch ISP monitor — simulated PoP day %s\n", day.to_string().c_str());

  // Generate the day and persist it like the production pipeline would.
  const ew::synth::WorkloadGenerator gen{ew::synth::build_paper_scenario(2024)};
  const auto records = gen.day_records(day);
  const auto lake_dir = std::filesystem::temp_directory_path() / "edgewatch_demo_lake";
  ew::storage::DataLake lake{lake_dir};
  const auto disk_bytes = lake.append(day, records);
  if (!disk_bytes) {
    std::fprintf(stderr, "lake append failed: %s\n",
                 std::string(ew::core::to_string(disk_bytes.error())).c_str());
    return 1;
  }

  // Stage one: per-day aggregate, re-read from the lake (round trip!).
  const auto [agg, scan] = ew::analytics::aggregate_day(lake, day);

  std::printf("\n-- ingest ------------------------------------------------\n");
  std::printf("flow records:        %zu\n", records.size());
  std::printf("on disk:             %.2f MB (%s)\n", static_cast<double>(*disk_bytes) / 1e6,
              lake.root().c_str());
  const auto lake_health = lake.fsck_day(day);
  std::printf("lake health:         v%u %s, %llu records in %llu blocks, scan %s\n",
              lake_health.version, lake_health.sealed ? "sealed" : "UNSEALED",
              static_cast<unsigned long long>(lake_health.records_ok),
              static_cast<unsigned long long>(lake_health.blocks_ok),
              scan.ok() ? "clean" : std::string(ew::core::to_string(scan.errc)).c_str());
  std::printf("subscribers seen:    %zu (%zu active, %.0f%%)\n", agg.total_subscribers(),
              agg.active_subscribers(),
              100.0 * static_cast<double>(agg.active_subscribers()) /
                  static_cast<double>(agg.total_subscribers()));

  std::vector<ew::analytics::DayAggregate> days;
  days.push_back(agg);

  const auto trend = ew::analytics::volume_trend(days);
  std::printf("\n-- volumes (per active subscription) ----------------------\n");
  for (const auto& row : trend) {
    std::printf("ADSL: %5.0f MB down / %4.1f MB up     FTTH: %5.0f MB down / %4.1f MB up\n",
                row.down_mb[0], row.up_mb[0], row.down_mb[1], row.up_mb[1]);
  }

  std::printf("\n-- top services -------------------------------------------\n");
  const auto matrix = ew::analytics::service_matrix(days);
  struct Entry {
    ew::services::ServiceId id;
    double popularity, share;
  };
  std::vector<Entry> entries;
  for (std::size_t s = 0; s < ew::services::kServiceCount; ++s) {
    const auto id = static_cast<ew::services::ServiceId>(s);
    if (id == ew::services::ServiceId::kOther) continue;
    entries.push_back({id, matrix.cells[s][0].popularity_pct, matrix.cells[s][0].byte_share_pct});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.share > b.share; });
  std::printf("%-14s %12s %12s\n", "service", "popularity%", "byte share%");
  for (std::size_t i = 0; i < entries.size() && i < 10; ++i) {
    std::printf("%-14s %12.1f %12.1f\n",
                std::string(ew::services::to_string(entries[i].id)).c_str(),
                entries[i].popularity, entries[i].share);
  }

  std::printf("\n-- web protocol mix ---------------------------------------\n");
  const auto protocols = ew::analytics::protocol_shares(days);
  for (std::size_t p = 1; p < ew::analytics::kWebProtocolCount; ++p) {
    std::printf("%-8s %5.1f%%\n",
                std::string(ew::dpi::to_string(static_cast<ew::dpi::WebProtocol>(p))).c_str(),
                protocols[0].share_pct[p]);
  }

  std::printf("\n-- where are the servers ----------------------------------\n");
  const auto& dir = ew::asn::AsnDirectory::standard();
  std::printf("distinct server addresses today: %zu\n", agg.server_ips.size());
  for (const auto id : {ew::services::ServiceId::kFacebook, ew::services::ServiceId::kYouTube}) {
    const auto rtt = ew::analytics::rtt_distribution(days, id);
    const auto asns = ew::analytics::asn_breakdown(
        days, id, [&gen](ew::core::MonthIndex m) -> const ew::asn::Rib& { return gen.rib(m); });
    std::printf("%-10s median min-RTT %.2f ms; ASNs:",
                std::string(ew::services::to_string(id)).c_str(), rtt.median());
    for (const auto& [asn_num, ips] : asns[0].ips_by_asn) {
      std::printf(" %s(%.0f)", std::string(dir.name(asn_num)).c_str(), ips);
    }
    std::printf("\n");
  }

  std::printf("\n-- TCP health (downstream) --------------------------------\n");
  const auto health = ew::analytics::aggregate_health(days);
  std::printf("%-14s %14s %12s\n", "service", "retx rate", "ooo rate");
  for (const auto id :
       {ew::services::ServiceId::kYouTube, ew::services::ServiceId::kNetflix,
        ew::services::ServiceId::kWhatsApp, ew::services::ServiceId::kPeerToPeer}) {
    const auto& h = health[static_cast<std::size_t>(id)];
    if (h.packets == 0) continue;
    std::printf("%-14s %13.4f%% %11.4f%%\n",
                std::string(ew::services::to_string(id)).c_str(),
                100.0 * h.retransmission_rate(),
                100.0 * static_cast<double>(h.out_of_order) /
                    static_cast<double>(h.packets));
  }

  std::printf("\n-- rule curation worklist (§2.3) --------------------------\n");
  const auto unclassified = ew::analytics::top_unclassified_domains(days, 5);
  if (unclassified.empty()) {
    std::printf("every named flow matched a service rule today\n");
  } else {
    std::printf("heaviest domains with no matching rule (candidates for new rules):\n");
    for (const auto& [domain, bytes] : unclassified) {
      std::printf("  %-30s %8.1f MB\n", domain.c_str(), static_cast<double>(bytes) / 1e6);
    }
  }

  std::filesystem::remove_all(lake_dir);
  return 0;
}
