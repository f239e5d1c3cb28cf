// Regex engine, rule engine, and the service catalog (Table 1 behaviour).
#include <gtest/gtest.h>

#include <regex>

#include "core/rng.hpp"
#include "services/catalog.hpp"
#include "services/regex.hpp"
#include "services/rules.hpp"

namespace ew = edgewatch;
using ew::services::Regex;
using ew::services::RuleEngine;
using ew::services::ServiceCatalog;
using ew::services::ServiceId;

// ------------------------------------------------------------------ regex

TEST(Regex, LiteralSearchAndFullMatch) {
  const auto re = Regex::compile("cdn");
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->search("fbcdn.net"));
  EXPECT_FALSE(re->search("facebook.com"));
  EXPECT_TRUE(re->full_match("cdn"));
  EXPECT_FALSE(re->full_match("fbcdn"));
}

TEST(Regex, AnchorsBindToEnds) {
  const auto re = Regex::compile("^video\\.google\\.com$");
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->search("video.google.com"));
  EXPECT_FALSE(re->search("video.google.com.evil.org"));
  EXPECT_FALSE(re->search("x.video.google.com"));
}

// search() tries only offset 0 for a ^-led pattern: text that matches the
// rest of the pattern later in the input must not count, and a top-level
// alternation with one anchored branch still searches every offset.
TEST(Regex, AnchoredPatternIgnoresLaterOccurrences) {
  const auto re = Regex::compile("^fbstatic-[a-z]+\\.akamaihd");
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->search("fbstatic-a.akamaihd.net"));
  EXPECT_TRUE(re->search("fbstatic-a.akamaihd.fbstatic-b.akamaihd.net"));
  EXPECT_FALSE(re->search("e1.fbstatic-a.akamaihd.net"));
  EXPECT_FALSE(re->search("xfbstatic-a.akamaihd"));

  const auto either = Regex::compile("^ab|cd");
  ASSERT_TRUE(either.has_value());
  EXPECT_TRUE(either->search("xxcd"));
  EXPECT_FALSE(either->search("xxab"));
}

TEST(Regex, Table1FacebookPattern) {
  // The literal pattern printed in Table 1 (unescaped dot matches '.').
  const auto re = Regex::compile("^fbstatic-[a-z].akamaihd.net$");
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->search("fbstatic-a.akamaihd.net"));
  EXPECT_TRUE(re->search("fbstatic-z.akamaihd.net"));
  EXPECT_FALSE(re->search("fbstatic-1.akamaihd.net"));
  EXPECT_FALSE(re->search("fbstatic-ab.akamaihd.net"));
  EXPECT_FALSE(re->search("fbstatic-a.akamaihd.net.other.com"));
}

TEST(Regex, ClassesRangesAndNegation) {
  const auto digits = Regex::compile("^[0-9]+$");
  ASSERT_TRUE(digits.has_value());
  EXPECT_TRUE(digits->search("0123456789"));
  EXPECT_FALSE(digits->search("12a"));
  EXPECT_FALSE(digits->search(""));

  const auto nodigit = Regex::compile("^[^0-9]+$");
  ASSERT_TRUE(nodigit.has_value());
  EXPECT_TRUE(nodigit->search("abc-def"));
  EXPECT_FALSE(nodigit->search("ab3"));
}

TEST(Regex, QuantifiersGreedyWithBacktracking) {
  const auto re = Regex::compile("^a*ab$");  // needs backtracking
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->search("aaab"));
  EXPECT_TRUE(re->search("ab"));
  EXPECT_FALSE(re->search("b"));

  const auto plus = Regex::compile("^x+y?z$");
  ASSERT_TRUE(plus.has_value());
  EXPECT_TRUE(plus->search("xz"));
  EXPECT_TRUE(plus->search("xxxyz"));
  EXPECT_FALSE(plus->search("z"));
  EXPECT_FALSE(plus->search("xyyz"));
}

TEST(Regex, AlternationAndGroups) {
  const auto re = Regex::compile("^(www|m|mobile)\\.facebook\\.com$");
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->search("www.facebook.com"));
  EXPECT_TRUE(re->search("m.facebook.com"));
  EXPECT_TRUE(re->search("mobile.facebook.com"));
  EXPECT_FALSE(re->search("api.facebook.com"));

  const auto grouped = Regex::compile("^a(bc)+d$");
  ASSERT_TRUE(grouped.has_value());
  EXPECT_TRUE(grouped->search("abcd"));
  EXPECT_TRUE(grouped->search("abcbcd"));
  EXPECT_FALSE(grouped->search("ad"));
}

TEST(Regex, DotMatchesAnySingleChar) {
  const auto re = Regex::compile("^a.c$");
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->search("abc"));
  EXPECT_TRUE(re->search("a.c"));
  EXPECT_FALSE(re->search("ac"));
  EXPECT_FALSE(re->search("abbc"));
}

TEST(Regex, EscapedMetacharacters) {
  const auto re = Regex::compile("^a\\.b\\*$");
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->search("a.b*"));
  EXPECT_FALSE(re->search("axb*"));
}

TEST(Regex, RejectsMalformedPatterns) {
  EXPECT_FALSE(Regex::compile("(").has_value());
  EXPECT_FALSE(Regex::compile(")").has_value());
  EXPECT_FALSE(Regex::compile("[a-").has_value());
  EXPECT_FALSE(Regex::compile("*a").has_value());
  EXPECT_FALSE(Regex::compile("a**").has_value());
  EXPECT_FALSE(Regex::compile("[z-a]").has_value());
  EXPECT_FALSE(Regex::compile("a\\").has_value());
  EXPECT_FALSE(Regex::compile("^*").has_value());
}

TEST(Regex, ZeroWidthStarDoesNotLoop) {
  const auto re = Regex::compile("^(a?)*b$");
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->search("aaab"));
  EXPECT_TRUE(re->search("b"));
  EXPECT_FALSE(re->search("c"));
}

TEST(Regex, EmptyPatternMatchesEverything) {
  const auto re = Regex::compile("");
  ASSERT_TRUE(re.has_value());
  EXPECT_TRUE(re->search("anything"));
  EXPECT_TRUE(re->full_match(""));
  EXPECT_FALSE(re->full_match("x"));
}

// Property: on randomly generated patterns from our supported grammar and
// random inputs, our engine agrees with std::regex (ECMAScript), which
// implements a superset of the same semantics.
TEST(Regex, AgreesWithStdRegexOnRandomPatterns) {
  ew::core::Xoshiro256 rng{20180604};
  const std::string_view alphabet = "abc.";

  auto random_atom = [&](auto&& self, int depth) -> std::string {
    const auto pick = ew::core::uniform_below(rng, depth > 2 ? 4u : 5u);
    switch (pick) {
      case 0:
        return std::string(1, 'a' + static_cast<char>(ew::core::uniform_below(rng, 3)));
      case 1:
        return ".";
      case 2: {  // class
        const char lo = 'a' + static_cast<char>(ew::core::uniform_below(rng, 2));
        const char hi = static_cast<char>(lo + 1 + ew::core::uniform_below(rng, 2));
        std::string out = "[";
        if (ew::core::chance(rng, 0.3)) out += "^";
        out += lo;
        out += '-';
        out += hi;
        out += ']';
        return out;
      }
      case 3:
        return "\\.";
      default: {  // group with alternation
        std::string out = "(";
        const auto alts = 1 + ew::core::uniform_below(rng, 2);
        for (std::uint64_t i = 0; i <= alts; ++i) {
          if (i > 0) out += '|';
          const auto len = 1 + ew::core::uniform_below(rng, 2);
          for (std::uint64_t j = 0; j < len; ++j) out += self(self, depth + 1);
        }
        out += ')';
        return out;
      }
    }
  };

  int checked = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string pattern;
    if (ew::core::chance(rng, 0.5)) pattern += '^';
    const auto atoms = 1 + ew::core::uniform_below(rng, 4);
    for (std::uint64_t i = 0; i < atoms; ++i) {
      pattern += random_atom(random_atom, 0);
      const auto q = ew::core::uniform_below(rng, 6);
      if (q == 0) pattern += '*';
      if (q == 1) pattern += '+';
      if (q == 2) pattern += '?';
    }
    if (ew::core::chance(rng, 0.5)) pattern += '$';

    const auto mine = Regex::compile(pattern);
    ASSERT_TRUE(mine.has_value()) << pattern;
    std::regex reference;
    try {
      reference.assign(pattern, std::regex::ECMAScript);
    } catch (const std::regex_error&) {
      continue;  // pattern our grammar allows but ECMAScript rejects (none known)
    }
    for (int input = 0; input < 30; ++input) {
      std::string text;
      const auto len = ew::core::uniform_below(rng, 8);
      for (std::uint64_t i = 0; i < len; ++i) {
        text += alphabet[ew::core::uniform_below(rng, alphabet.size())];
      }
      EXPECT_EQ(mine->search(text), std::regex_search(text, reference))
          << "pattern=" << pattern << " text=" << text;
      ++checked;
    }
  }
  EXPECT_GT(checked, 5000);
}

// ------------------------------------------------------------ rule engine

TEST(RuleEngine, PrecedenceExactOverSuffixOverRegex) {
  RuleEngine engine;
  engine.add_suffix("akamaihd.net", "Akamai");
  ASSERT_TRUE(engine.add_regex("^fbstatic-[a-z]\\.akamaihd\\.net$", "Facebook"));
  engine.add_exact("fbstatic-a.akamaihd.net", "FacebookExact");

  // Exact wins.
  auto got = engine.classify("fbstatic-a.akamaihd.net");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "FacebookExact");
  // Suffix beats regex for other subdomains.
  got = engine.classify("fbstatic-b.akamaihd.net");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "Akamai");
}

TEST(RuleEngine, LongestSuffixWins) {
  RuleEngine engine;
  engine.add_suffix("akamaihd.net", "Akamai");
  engine.add_suffix("video.akamaihd.net", "VideoCdn");
  auto got = engine.classify("edge1.video.akamaihd.net");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "VideoCdn");
  got = engine.classify("other.akamaihd.net");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "Akamai");
}

TEST(RuleEngine, SuffixMatchesApexAndSubdomains) {
  RuleEngine engine;
  engine.add_suffix("netflix.com", "Netflix");
  EXPECT_TRUE(engine.classify("netflix.com").has_value());
  EXPECT_TRUE(engine.classify("www.netflix.com").has_value());
  EXPECT_TRUE(engine.classify("api-global.netflix.com").has_value());
  // "notnetflix.com" must NOT match: suffixes align at label boundaries.
  EXPECT_FALSE(engine.classify("notnetflix.com").has_value());
}

TEST(RuleEngine, CaseAndTrailingDotNormalized) {
  RuleEngine engine;
  engine.add_suffix("Facebook.COM", "Facebook");
  auto got = engine.classify("WWW.FACEBOOK.COM.");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "Facebook");
}

TEST(RuleEngine, RejectsBadRegexRules) {
  RuleEngine engine;
  EXPECT_FALSE(engine.add_regex("(((", "Broken"));
  EXPECT_EQ(engine.regex_rules(), 0u);
}

TEST(RuleEngine, EmptyAndUnknownDomains) {
  RuleEngine engine;
  engine.add_suffix("x.com", "X");
  EXPECT_FALSE(engine.classify("").has_value());
  EXPECT_FALSE(engine.classify("unknown.example").has_value());
}

// --------------------------------------------------------------- catalog

TEST(Catalog, Table1Examples) {
  const auto& cat = ServiceCatalog::standard();
  EXPECT_EQ(cat.classify_domain("facebook.com"), ServiceId::kFacebook);
  EXPECT_EQ(cat.classify_domain("scontent.fbcdn.com"), ServiceId::kFacebook);
  EXPECT_EQ(cat.classify_domain("fbstatic-a.akamaihd.net"), ServiceId::kFacebook);
  EXPECT_EQ(cat.classify_domain("netflix.com"), ServiceId::kNetflix);
  EXPECT_EQ(cat.classify_domain("ipv4-c001-mxp001.nflxvideo.net"), ServiceId::kNetflix);
}

TEST(Catalog, YouTubeDomainGenerations) {
  const auto& cat = ServiceCatalog::standard();
  // Fig. 11i: the three domain generations all classify as YouTube.
  EXPECT_EQ(cat.classify_domain("www.youtube.com"), ServiceId::kYouTube);
  EXPECT_EQ(cat.classify_domain("r3---sn-uxaxovg-5gie.googlevideo.com"), ServiceId::kYouTube);
  EXPECT_EQ(cat.classify_domain("redirector.gvt1.com"), ServiceId::kYouTube);
  // And plain Google search stays Google.
  EXPECT_EQ(cat.classify_domain("www.google.com"), ServiceId::kGoogle);
  EXPECT_EQ(cat.classify_domain("www.google.it"), ServiceId::kGoogle);
}

TEST(Catalog, MessagingAndSocialDomains) {
  const auto& cat = ServiceCatalog::standard();
  EXPECT_EQ(cat.classify_domain("mmx-ds.cdn.whatsapp.net"), ServiceId::kWhatsApp);
  EXPECT_EQ(cat.classify_domain("scontent.cdninstagram.com"), ServiceId::kInstagram);
  EXPECT_EQ(cat.classify_domain("instagram-p13-shv-01.akamaihd.net"), ServiceId::kInstagram);
  EXPECT_EQ(cat.classify_domain("app.snapchat.com"), ServiceId::kSnapChat);
  EXPECT_EQ(cat.classify_domain("web.telegram.org"), ServiceId::kTelegram);
  EXPECT_EQ(cat.classify_domain("duckduckgo.com"), ServiceId::kDuckDuckGo);
}

TEST(Catalog, UnknownDomainIsOther) {
  const auto& cat = ServiceCatalog::standard();
  EXPECT_EQ(cat.classify_domain("polito.it"), ServiceId::kOther);
  EXPECT_EQ(cat.classify_domain(""), ServiceId::kOther);
}

TEST(Catalog, FlowClassificationP2pBeatsDomains) {
  const auto& cat = ServiceCatalog::standard();
  EXPECT_EQ(cat.classify_flow(ew::dpi::L7Protocol::kBittorrent, ""), ServiceId::kPeerToPeer);
  EXPECT_EQ(cat.classify_flow(ew::dpi::L7Protocol::kDht, "tracker.example"),
            ServiceId::kPeerToPeer);
  EXPECT_EQ(cat.classify_flow(ew::dpi::L7Protocol::kTls, "www.netflix.com"), ServiceId::kNetflix);
  EXPECT_EQ(cat.classify_flow(ew::dpi::L7Protocol::kTls, ""), ServiceId::kOther);
}

TEST(Catalog, InfoAndByNameAreConsistent) {
  const auto& cat = ServiceCatalog::standard();
  for (std::size_t i = 0; i < ew::services::kServiceCount; ++i) {
    const auto id = static_cast<ServiceId>(i);
    const auto& info = cat.info(id);
    EXPECT_EQ(info.id, id);
    const auto back = cat.by_name(info.name);
    ASSERT_TRUE(back.has_value()) << info.name;
    EXPECT_EQ(*back, id);
  }
  EXPECT_FALSE(cat.by_name("NoSuchService").has_value());
}

TEST(Catalog, ThresholdsAreSaneForVideoVsSearch) {
  const auto& cat = ServiceCatalog::standard();
  EXPECT_GT(cat.info(ServiceId::kNetflix).activity_threshold_bytes,
            cat.info(ServiceId::kGoogle).activity_threshold_bytes);
  EXPECT_GT(cat.info(ServiceId::kFacebook).activity_threshold_bytes, 0u);
}
