#include "services/catalog.hpp"

namespace edgewatch::services {

std::string_view to_string(ServiceId id) noexcept {
  switch (id) {
    case ServiceId::kGoogle: return "Google";
    case ServiceId::kBing: return "Bing";
    case ServiceId::kDuckDuckGo: return "DuckDuckGo";
    case ServiceId::kFacebook: return "Facebook";
    case ServiceId::kInstagram: return "Instagram";
    case ServiceId::kTwitter: return "Twitter";
    case ServiceId::kLinkedIn: return "LinkedIn";
    case ServiceId::kYouTube: return "YouTube";
    case ServiceId::kNetflix: return "Netflix";
    case ServiceId::kAdult: return "Adult";
    case ServiceId::kSpotify: return "Spotify";
    case ServiceId::kSkype: return "Skype";
    case ServiceId::kWhatsApp: return "WhatsApp";
    case ServiceId::kTelegram: return "Telegram";
    case ServiceId::kSnapChat: return "SnapChat";
    case ServiceId::kAmazon: return "Amazon";
    case ServiceId::kEbay: return "Ebay";
    case ServiceId::kPeerToPeer: return "Peer-To-Peer";
    default: return "Other";
  }
}

std::string_view to_string(ServiceCategory c) noexcept {
  switch (c) {
    case ServiceCategory::kSearch: return "search";
    case ServiceCategory::kSocial: return "social";
    case ServiceCategory::kVideo: return "video";
    case ServiceCategory::kMusic: return "music";
    case ServiceCategory::kMessaging: return "messaging";
    case ServiceCategory::kShopping: return "shopping";
    case ServiceCategory::kPeerToPeer: return "p2p";
    case ServiceCategory::kAdult: return "adult";
    default: return "other";
  }
}

const ServiceCatalog& ServiceCatalog::standard() {
  static const ServiceCatalog catalog;
  return catalog;
}

namespace {
constexpr std::uint64_t kKB = 1000;
constexpr std::uint64_t kMB = 1000 * 1000;
}  // namespace

ServiceCatalog::ServiceCatalog() {
  auto define = [this](ServiceId id, ServiceCategory cat, std::uint64_t threshold) {
    infos_[static_cast<std::size_t>(id)] = {id, services::to_string(id), cat, threshold};
    by_name_.insert_or_assign(services::to_string(id), id);
  };
  // Thresholds follow §4.1: tiny for search (a query is small), larger for
  // services whose buttons/beacons are embedded across the web.
  define(ServiceId::kGoogle, ServiceCategory::kSearch, 20 * kKB);
  define(ServiceId::kBing, ServiceCategory::kSearch, 10 * kKB);
  define(ServiceId::kDuckDuckGo, ServiceCategory::kSearch, 10 * kKB);
  define(ServiceId::kFacebook, ServiceCategory::kSocial, 300 * kKB);
  define(ServiceId::kInstagram, ServiceCategory::kSocial, 300 * kKB);
  define(ServiceId::kTwitter, ServiceCategory::kSocial, 200 * kKB);
  define(ServiceId::kLinkedIn, ServiceCategory::kSocial, 200 * kKB);
  define(ServiceId::kYouTube, ServiceCategory::kVideo, 1 * kMB);
  define(ServiceId::kNetflix, ServiceCategory::kVideo, 2 * kMB);
  define(ServiceId::kAdult, ServiceCategory::kAdult, 500 * kKB);
  define(ServiceId::kSpotify, ServiceCategory::kMusic, 500 * kKB);
  define(ServiceId::kSkype, ServiceCategory::kMessaging, 100 * kKB);
  define(ServiceId::kWhatsApp, ServiceCategory::kMessaging, 50 * kKB);
  define(ServiceId::kTelegram, ServiceCategory::kMessaging, 50 * kKB);
  define(ServiceId::kSnapChat, ServiceCategory::kMessaging, 100 * kKB);
  define(ServiceId::kAmazon, ServiceCategory::kShopping, 200 * kKB);
  define(ServiceId::kEbay, ServiceCategory::kShopping, 200 * kKB);
  define(ServiceId::kPeerToPeer, ServiceCategory::kPeerToPeer, 1 * kMB);
  define(ServiceId::kOther, ServiceCategory::kOther, 0);

  auto suffix = [this](std::string_view domain, ServiceId id) {
    rules_.add_suffix(domain, services::to_string(id));
  };
  auto regex = [this](std::string_view pattern, ServiceId id) {
    rules_.add_regex(pattern, services::to_string(id));
  };

  // Google search & general infrastructure (video domains belong to
  // YouTube; keep them out of here).
  suffix("google.com", ServiceId::kGoogle);
  suffix("google.it", ServiceId::kGoogle);
  suffix("gstatic.com", ServiceId::kGoogle);
  suffix("googleapis.com", ServiceId::kGoogle);
  suffix("googleusercontent.com", ServiceId::kGoogle);
  suffix("bing.com", ServiceId::kBing);
  suffix("duckduckgo.com", ServiceId::kDuckDuckGo);

  // Facebook (Table 1: exact, CDN suffixes, and the Akamai-hosted statics
  // regex).
  suffix("facebook.com", ServiceId::kFacebook);
  suffix("facebook.net", ServiceId::kFacebook);
  suffix("fbcdn.net", ServiceId::kFacebook);
  suffix("fbcdn.com", ServiceId::kFacebook);
  suffix("fbsbx.com", ServiceId::kFacebook);
  regex("^fbstatic-[a-z]\\.akamaihd\\.net$", ServiceId::kFacebook);
  regex("^fbcdn-[a-z-]+-[a-z]\\.akamaihd\\.net$", ServiceId::kFacebook);
  regex("^fbexternal-[a-z]\\.akamaihd\\.net$", ServiceId::kFacebook);

  suffix("instagram.com", ServiceId::kInstagram);
  suffix("cdninstagram.com", ServiceId::kInstagram);
  regex("^instagram[a-z0-9.-]*\\.akamaihd\\.net$", ServiceId::kInstagram);

  suffix("twitter.com", ServiceId::kTwitter);
  suffix("twimg.com", ServiceId::kTwitter);
  suffix("t.co", ServiceId::kTwitter);
  suffix("linkedin.com", ServiceId::kLinkedIn);
  suffix("licdn.com", ServiceId::kLinkedIn);

  // YouTube (Fig. 11i: youtube.com → googlevideo.com (2014) → gvt1.com
  // (2015)).
  suffix("youtube.com", ServiceId::kYouTube);
  suffix("youtu.be", ServiceId::kYouTube);
  suffix("ytimg.com", ServiceId::kYouTube);
  suffix("googlevideo.com", ServiceId::kYouTube);
  suffix("gvt1.com", ServiceId::kYouTube);

  // Netflix (Table 1).
  suffix("netflix.com", ServiceId::kNetflix);
  suffix("nflxvideo.net", ServiceId::kNetflix);
  suffix("nflximg.com", ServiceId::kNetflix);
  suffix("nflxext.com", ServiceId::kNetflix);

  // Adult category (aggregated; the paper reports one "Adult" row).
  suffix("pornhub.com", ServiceId::kAdult);
  suffix("xvideos.com", ServiceId::kAdult);
  suffix("xhamster.com", ServiceId::kAdult);
  suffix("youporn.com", ServiceId::kAdult);
  suffix("phncdn.com", ServiceId::kAdult);

  suffix("spotify.com", ServiceId::kSpotify);
  suffix("scdn.co", ServiceId::kSpotify);
  suffix("spotifycdn.com", ServiceId::kSpotify);

  suffix("skype.com", ServiceId::kSkype);
  suffix("skypeassets.com", ServiceId::kSkype);
  suffix("trouter.io", ServiceId::kSkype);

  suffix("whatsapp.com", ServiceId::kWhatsApp);
  suffix("whatsapp.net", ServiceId::kWhatsApp);

  suffix("telegram.org", ServiceId::kTelegram);
  suffix("telegram.me", ServiceId::kTelegram);
  suffix("t.me", ServiceId::kTelegram);
  suffix("telesco.pe", ServiceId::kTelegram);

  suffix("snapchat.com", ServiceId::kSnapChat);
  suffix("sc-cdn.net", ServiceId::kSnapChat);
  suffix("snap-dev.net", ServiceId::kSnapChat);

  suffix("amazon.com", ServiceId::kAmazon);
  suffix("amazon.it", ServiceId::kAmazon);
  suffix("ssl-images-amazon.com", ServiceId::kAmazon);
  suffix("media-amazon.com", ServiceId::kAmazon);
  suffix("amazonaws.com", ServiceId::kAmazon);

  suffix("ebay.com", ServiceId::kEbay);
  suffix("ebay.it", ServiceId::kEbay);
  suffix("ebaystatic.com", ServiceId::kEbay);
  suffix("ebayimg.com", ServiceId::kEbay);
}

ServiceId ServiceCatalog::classify_domain(std::string_view domain) const {
  const auto service = rules_.classify(domain);
  if (!service) return ServiceId::kOther;
  const auto id = by_name(*service);
  return id ? *id : ServiceId::kOther;
}

namespace {

ServiceId name_verdict(const ServiceCatalog& catalog, std::string_view server_name) {
  return server_name.empty() ? ServiceId::kOther : catalog.classify_domain(server_name);
}

}  // namespace

ServiceId ServiceCatalog::classify_flow(dpi::L7Protocol l7, std::string_view server_name) const {
  if (dpi::is_p2p(l7)) return ServiceId::kPeerToPeer;
  return name_verdict(*this, server_name);
}

void ServiceCatalog::classify_names(std::span<const std::string_view> names,
                                    std::vector<ServiceId>& out) const {
  out.clear();
  out.reserve(names.size());
  for (const auto name : names) out.push_back(name_verdict(*this, name));
}

std::optional<ServiceId> ServiceCatalog::by_name(std::string_view name) const noexcept {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

}  // namespace edgewatch::services
