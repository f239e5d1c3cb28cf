// The service catalog of the paper's Figure 5: seventeen named services
// plus Peer-To-Peer, each with its domain rules and the per-service
// activity threshold of §4.1 (the daily volume below which a subscriber is
// deemed to have hit the service only through third-party objects, e.g.
// Facebook "Like" buttons embedded in other sites).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/flat_hash_map.hpp"
#include "core/hash.hpp"
#include "dpi/classifier.hpp"
#include "services/rules.hpp"

namespace edgewatch::services {

/// Fixed identifiers: stable array indices for analytics matrices,
/// in the row order of Fig. 5.
enum class ServiceId : std::uint8_t {
  kGoogle = 0,
  kBing,
  kDuckDuckGo,
  kFacebook,
  kInstagram,
  kTwitter,
  kLinkedIn,
  kYouTube,
  kNetflix,
  kAdult,
  kSpotify,
  kSkype,
  kWhatsApp,
  kTelegram,
  kSnapChat,
  kAmazon,
  kEbay,
  kPeerToPeer,
  kOther,  // anything unmatched; keep last
};

inline constexpr std::size_t kServiceCount = static_cast<std::size_t>(ServiceId::kOther) + 1;
/// Named services (excludes kOther).
inline constexpr std::size_t kNamedServiceCount = kServiceCount - 1;

enum class ServiceCategory : std::uint8_t {
  kSearch,
  kSocial,
  kVideo,
  kMusic,
  kMessaging,
  kShopping,
  kPeerToPeer,
  kAdult,
  kOther,
};

struct ServiceInfo {
  ServiceId id = ServiceId::kOther;
  std::string_view name;
  ServiceCategory category = ServiceCategory::kOther;
  /// §4.1 threshold: minimum bytes/day for a subscriber to count as having
  /// intentionally used the service.
  std::uint64_t activity_threshold_bytes = 0;
};

[[nodiscard]] std::string_view to_string(ServiceId id) noexcept;
[[nodiscard]] std::string_view to_string(ServiceCategory c) noexcept;

/// The full catalog: rules + metadata, built once and shared.
class ServiceCatalog {
 public:
  /// Catalog with the project's built-in rule base (Table 1 and the public
  /// rule list the paper links; curated to the era's real domains).
  static const ServiceCatalog& standard();

  ServiceCatalog();

  /// Classify a server hostname. kOther when no rule matches.
  [[nodiscard]] ServiceId classify_domain(std::string_view domain) const;

  /// Classify a whole flow record: P2P protocols dominate (they carry no
  /// meaningful hostname), then a nameless flow is kOther, then the
  /// hostname rules.
  [[nodiscard]] ServiceId classify_flow(dpi::L7Protocol l7, std::string_view server_name) const;

  /// classify_flow for dictionary-coded name columns (the lake's batch
  /// scans), split so the hostname rules run once per dictionary entry
  /// instead of once per row: out[k] is the name verdict of names[k]. A row
  /// then classifies as with_l7(l7, out[name_idx]) — or with_l7(l7, kOther)
  /// when the batch carries no name column — which equals classify_flow.
  void classify_names(std::span<const std::string_view> names, std::vector<ServiceId>& out) const;
  [[nodiscard]] static ServiceId with_l7(dpi::L7Protocol l7, ServiceId name_verdict) noexcept {
    return dpi::is_p2p(l7) ? ServiceId::kPeerToPeer : name_verdict;
  }

  [[nodiscard]] const ServiceInfo& info(ServiceId id) const noexcept {
    return infos_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const RuleEngine& rules() const noexcept { return rules_; }

  /// Look up a service by display name (bench/test convenience).
  [[nodiscard]] std::optional<ServiceId> by_name(std::string_view name) const noexcept;

 private:
  RuleEngine rules_;
  std::array<ServiceInfo, kServiceCount> infos_{};
  /// Display name → id; keys are the static to_string literals, so views
  /// are stable. classify_domain resolves every rule hit through this.
  core::FlatHashMap<std::string_view, ServiceId, core::StringHash> by_name_;
};

}  // namespace edgewatch::services
