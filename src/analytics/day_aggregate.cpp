#include "analytics/day_aggregate.hpp"

namespace edgewatch::analytics {

std::size_t DayAggregate::active_subscribers(const ActivityCriteria& c) const {
  std::size_t n = 0;
  for (const auto& [_, sub] : subscribers) n += sub.active(c);
  return n;
}

std::uint64_t DayAggregate::total_web_bytes() const noexcept {
  std::uint64_t total = 0;
  // Index 0 is kNotWeb: excluded from the Fig. 8 denominator.
  for (std::size_t i = 1; i < web_bytes.size(); ++i) total += web_bytes[i];
  return total;
}

DayAggregator::DayAggregator(core::CivilDate date, const services::ServiceCatalog& catalog)
    : catalog_(catalog) {
  agg_.date = date;
}

void DayAggregator::add(const flow::FlowRecord& record) {
  const auto service = catalog_.classify_flow(record.l7, record.server_name);
  const auto service_idx = static_cast<std::size_t>(service);

  auto& sub = agg_.subscribers[record.client_ip];
  sub.access = record.access;
  ++sub.flows;
  sub.bytes_up += record.up.bytes;
  sub.bytes_down += record.down.bytes;
  auto& svc = sub.per_service[service_idx];
  ++svc.flows;
  svc.bytes_up += record.up.bytes;
  svc.bytes_down += record.down.bytes;

  if (record.web != dpi::WebProtocol::kNotWeb) {
    agg_.web_bytes[static_cast<std::size_t>(record.web)] += record.total_bytes();
  }

  // Attribute the whole download to the flow's start bin: at day scale the
  // distortion is negligible and it keeps stage one single-pass.
  const auto bin = static_cast<std::size_t>(record.first_packet.minute_of_day() / 10);
  if (bin < kTimeBinsPerDay) {
    agg_.downlink_bins[static_cast<std::size_t>(record.access)][bin] +=
        static_cast<double>(record.down.bytes);
  }

  if (record.rtt.samples > 0) {
    agg_.rtt_min_ms[service_idx].push_back(record.rtt.min_ms());
  }

  if (record.proto == core::TransportProto::kTcp) {
    auto& health = agg_.health[service_idx];
    health.packets += record.down.packets;
    health.retransmits += record.down.retransmits;
    health.out_of_order += record.down.out_of_order;
  }

  auto& ip_stats = agg_.server_ips[record.server_ip];
  ip_stats.service_mask |= 1u << static_cast<unsigned>(service);
  ip_stats.bytes += record.total_bytes();

  if (!record.server_name.empty()) {
    // Heterogeneous probes: the std::string key is only materialized the
    // first time a (service, domain) pair is seen, not on every flow.
    const std::string_view sld = second_level_domain(record.server_name);
    if (service != services::ServiceId::kOther) {
      auto it = agg_.domain_bytes.find(std::pair{service, sld});
      if (it == agg_.domain_bytes.end()) {
        it = agg_.domain_bytes.emplace(std::pair{service, std::string(sld)}, 0).first;
      }
      it->second += record.total_bytes();
    } else {
      auto it = agg_.unclassified_domain_bytes.find(sld);
      if (it == agg_.unclassified_domain_bytes.end()) {
        it = agg_.unclassified_domain_bytes.emplace(std::string(sld), 0).first;
      }
      it->second += record.total_bytes();
    }
  }
}

void DayAggregator::add_batch(const exec::RecordBatch& batch) {
  if (batch.empty()) return;

  // Classification is the hottest per-row cost of the row path, and one
  // dictionary entry serves many rows: resolve each entry's catalog verdict
  // and second-level domain once per batch, then every row is a vector
  // index. The batch's own `service` column is *not* used — it carries the
  // writer's catalog, ours may differ (classify_flow semantics, same as
  // add()).
  const bool have_names = !batch.name_idx.empty() && !batch.name_dict.empty();
  if (have_names) {
    catalog_.classify_names(batch.name_dict, dict_service_);
    dict_sld_.clear();
    dict_sld_.reserve(batch.name_dict.size());
    for (const auto name : batch.name_dict) dict_sld_.push_back(second_level_domain(name));
  }
  const auto col_u64 = [](std::span<const std::uint64_t> col, std::size_t i) noexcept {
    return col.empty() ? std::uint64_t{0} : col[i];
  };

  // (service, domain) and subscriber/server lookups repeat in runs (rows
  // keep stream order, and one host produces bursts of flows), so each map
  // keeps a one-entry memo. Node/slot stability: std::map nodes never move;
  // the FlatHashMap memos are refreshed before reuse whenever the key
  // changes, and the only inserts into each map happen through its own
  // memo refresh — so a held pointer is never stale when it is read.
  core::IPv4Address memo_sub_ip{};
  SubscriberDay* memo_sub = nullptr;
  core::IPv4Address memo_srv_ip{};
  IpDayStats* memo_srv = nullptr;
  std::uint32_t memo_dom_idx = 0xffffffffu;
  services::ServiceId memo_dom_service{};
  std::uint64_t* memo_dom_bytes = nullptr;
  std::uint32_t memo_uncl_idx = 0xffffffffu;
  std::uint64_t* memo_uncl_bytes = nullptr;

  batch.for_each_row([&](std::size_t i) {
    const auto l7 = batch.l7.empty() ? dpi::L7Protocol{}
                                     : static_cast<dpi::L7Protocol>(batch.l7[i]);
    const std::uint32_t name_idx = have_names ? batch.name_idx[i] : 0;
    const services::ServiceId service = services::ServiceCatalog::with_l7(
        l7, have_names ? dict_service_[name_idx] : services::ServiceId::kOther);
    const auto service_idx = static_cast<std::size_t>(service);
    const std::uint64_t up_bytes = col_u64(batch.up_bytes, i);
    const std::uint64_t down_bytes = col_u64(batch.dn_bytes, i);
    const std::uint64_t total_bytes = up_bytes + down_bytes;
    const auto access = batch.access.empty() ? flow::AccessTech{}
                                             : static_cast<flow::AccessTech>(batch.access[i]);

    const core::IPv4Address client_ip{batch.cip.empty() ? 0u : batch.cip[i]};
    if (memo_sub == nullptr || client_ip != memo_sub_ip) {
      memo_sub = &agg_.subscribers[client_ip];
      memo_sub_ip = client_ip;
    }
    SubscriberDay& sub = *memo_sub;
    sub.access = access;
    ++sub.flows;
    sub.bytes_up += up_bytes;
    sub.bytes_down += down_bytes;
    auto& svc = sub.per_service[service_idx];
    ++svc.flows;
    svc.bytes_up += up_bytes;
    svc.bytes_down += down_bytes;

    if (!batch.web.empty()) {
      const auto web = static_cast<std::size_t>(batch.web[i]);
      if (web != static_cast<std::size_t>(dpi::WebProtocol::kNotWeb)) {
        agg_.web_bytes[web] += total_bytes;
      }
    }

    const auto bin = static_cast<std::size_t>(core::Timestamp{batch.ts[i]}.minute_of_day() / 10);
    if (bin < kTimeBinsPerDay) {
      agg_.downlink_bins[static_cast<std::size_t>(access)][bin] +=
          static_cast<double>(down_bytes);
    }

    if (!batch.rtt_samples.empty() && batch.rtt_samples[i] > 0) {
      agg_.rtt_min_ms[service_idx].push_back(static_cast<double>(batch.rtt_min_us[i]) / 1000.0);
    }

    if (static_cast<core::TransportProto>(batch.proto[i]) == core::TransportProto::kTcp) {
      auto& health = agg_.health[service_idx];
      health.packets += col_u64(batch.dn_pkts, i);
      health.retransmits += col_u64(batch.dn_retx, i);
      health.out_of_order += col_u64(batch.dn_ooo, i);
    }

    const core::IPv4Address server_ip{batch.sip[i]};
    if (memo_srv == nullptr || server_ip != memo_srv_ip) {
      memo_srv = &agg_.server_ips[server_ip];
      memo_srv_ip = server_ip;
    }
    memo_srv->service_mask |= 1u << static_cast<unsigned>(service);
    memo_srv->bytes += total_bytes;

    if (have_names && !batch.name_dict[name_idx].empty()) {
      const std::string_view sld = dict_sld_[name_idx];
      if (service != services::ServiceId::kOther) {
        if (memo_dom_bytes == nullptr || name_idx != memo_dom_idx ||
            service != memo_dom_service) {
          auto it = agg_.domain_bytes.find(std::pair{service, sld});
          if (it == agg_.domain_bytes.end()) {
            it = agg_.domain_bytes.emplace(std::pair{service, std::string(sld)}, 0).first;
          }
          memo_dom_bytes = &it->second;
          memo_dom_idx = name_idx;
          memo_dom_service = service;
        }
        *memo_dom_bytes += total_bytes;
      } else {
        if (memo_uncl_bytes == nullptr || name_idx != memo_uncl_idx) {
          auto it = agg_.unclassified_domain_bytes.find(sld);
          if (it == agg_.unclassified_domain_bytes.end()) {
            it = agg_.unclassified_domain_bytes.emplace(std::string(sld), 0).first;
          }
          memo_uncl_bytes = &it->second;
          memo_uncl_idx = name_idx;
        }
        *memo_uncl_bytes += total_bytes;
      }
    }
  });
}

void DayAggregate::merge(const DayAggregate& other) {
  for (const auto& [ip, sub] : other.subscribers) subscribers[ip].merge(sub);
  for (std::size_t p = 0; p < web_bytes.size(); ++p) web_bytes[p] += other.web_bytes[p];
  for (std::size_t t = 0; t < downlink_bins.size(); ++t) {
    for (std::size_t b = 0; b < kTimeBinsPerDay; ++b) {
      downlink_bins[t][b] += other.downlink_bins[t][b];
    }
  }
  for (std::size_t s = 0; s < services::kServiceCount; ++s) {
    rtt_min_ms[s].insert(rtt_min_ms[s].end(), other.rtt_min_ms[s].begin(),
                         other.rtt_min_ms[s].end());
    health[s].merge(other.health[s]);
  }
  for (const auto& [ip, stats] : other.server_ips) server_ips[ip].merge(stats);
  for (const auto& [key, bytes] : other.domain_bytes) domain_bytes[key] += bytes;
  for (const auto& [domain, bytes] : other.unclassified_domain_bytes) {
    unclassified_domain_bytes[domain] += bytes;
  }
  capture.merge(other.capture);
}

DayAggregate DayAggregator::take() && { return std::move(agg_); }

std::string_view second_level_domain(std::string_view host) {
  // Find the last two labels; if the ending is a known multi-label suffix
  // owner (none needed beyond defaults here), this simple rule suffices for
  // the study's domain universe.
  if (host.empty()) return {};
  auto last = host.rfind('.');
  if (last == std::string_view::npos || last == 0) return host;
  auto prev = host.rfind('.', last - 1);
  if (prev == std::string_view::npos) return host;
  return host.substr(prev + 1);
}

}  // namespace edgewatch::analytics
