// Pins the exporters' bytes against an independent reference: a short
// std::ostringstream formatter kept here, sharing no code with
// src/obs/export.cpp. Seeded random recorders cover hostile names
// (quotes, backslashes, control and high bytes, NUL, the empty name), the
// int64/int32 extremes, the shared tid 1 of every negative uid and of
// uid 1, wrapped rings, rings after clear(), and several pids.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/trace.h"

namespace eandroid::obs {
namespace {

// --- Reference formatter ---------------------------------------------------

int ref_tid(std::int32_t uid) { return uid < 0 ? 1 : uid; }

std::string ref_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string ref_text(const TraceRecorder& rec) {
  std::ostringstream out;
  out << "# trace events=" << rec.size() << " dropped=" << rec.dropped()
      << "\n";
  rec.for_each([&](const TraceEvent& ev) {
    out << '@' << ev.t_us << ' ' << to_string(ev.category) << ' '
        << rec.names().routine_name(ev.name) << " uid=" << ev.uid
        << " arg=" << ev.arg << '\n';
  });
  return out.str();
}

std::string ref_chrome(const TraceRecorder& rec, int pid) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  std::map<int, std::int32_t> tracks;  // tid -> first-seen uid
  rec.for_each(
      [&](const TraceEvent& ev) { tracks.emplace(ref_tid(ev.uid), ev.uid); });
  for (const auto& [tid, uid] : tracks) {
    if (!first) out << ',';
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    if (uid < 0) {
      out << "system";
    } else {
      out << "uid " << uid;
    }
    out << "\"}}";
  }
  rec.for_each([&](const TraceEvent& ev) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << ref_escape(rec.names().routine_name(ev.name))
        << "\",\"cat\":\"" << to_string(ev.category)
        << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":" << pid
        << ",\"tid\":" << ref_tid(ev.uid) << ",\"ts\":" << ev.t_us
        << ",\"args\":{\"uid\":" << ev.uid << ",\"arg\":" << ev.arg << "}}";
  });
  out << "]}";
  return out.str();
}

// --- Random recorders ------------------------------------------------------

const std::vector<std::string>& hostile_names() {
  static const std::vector<std::string> names = {
      "tick",
      "wakelock.acquire",
      "",
      "quote\"inside",
      "back\\slash\\",
      "\"\\\"\\",
      std::string("nul\0byte", 8),
      "ctl\x01\x02\x1f\x7f",
      "tab\tnew\nline\rcr",
      "\xc3\xa9t\xc3\xa9 \xff\x80\xfe",
      "a-rather-long-name.with.many.dots.and_underscores_0123456789",
  };
  return names;
}

struct Gen {
  std::mt19937_64 rng;

  std::uint64_t below(std::uint64_t n) { return rng() % n; }

  std::string random_name() {
    std::string s(below(24), '\0');
    for (char& c : s) c = static_cast<char>(below(256));
    return s;
  }
  std::int64_t i64() {
    switch (below(6)) {
      case 0: return INT64_MIN;
      case 1: return INT64_MAX;
      case 2: return 0;
      case 3: return -1;
      case 4: return static_cast<std::int64_t>(below(1'000'000'000));
      default: return static_cast<std::int64_t>(rng());
    }
  }
  std::int32_t uid() {
    switch (below(9)) {
      case 0: return -1;
      case 1: return 1;
      case 2: return 0;
      case 3: return INT32_MIN;
      case 4: return INT32_MAX;
      case 5: return -5;
      case 6: return 10007;
      case 7: return 10008;
      default: return static_cast<std::int32_t>(rng());
    }
  }
  int pid() {
    switch (below(5)) {
      case 0: return 0;
      case 1: return 3;
      case 2: return INT_MAX;
      case 3: return INT_MIN;
      default: return static_cast<int>(below(4096));
    }
  }

  /// Records `count` random events over a pool of hostile and random
  /// names interned into `rec`.
  void fill(TraceRecorder& rec, int count) {
    std::vector<NameIdx> pool;
    for (const std::string& n : hostile_names()) pool.push_back(rec.intern(n));
    for (int i = 0; i < 4; ++i) pool.push_back(rec.intern(random_name()));
    for (int i = 0; i < count; ++i) {
      rec.record(static_cast<TraceCategory>(below(kTraceCategoryCount)),
                 pool[below(pool.size())], uid(), i64(), i64());
    }
  }
};

void expect_matches_reference(const TraceRecorder& rec, int pid,
                              const std::string& what) {
  EXPECT_EQ(text_trace(rec), ref_text(rec)) << what;
  EXPECT_EQ(chrome_trace(rec, pid), ref_chrome(rec, pid)) << what;
}

TEST(ExportTest, RandomRecordersMatchReferenceFormatter) {
  Gen gen{std::mt19937_64(0x5eed)};
  for (int round = 0; round < 300; ++round) {
    const std::size_t capacity = 1 + gen.below(64);
    TraceRecorder rec(capacity);
    const int count = static_cast<int>(gen.below(3 * capacity + 2));
    gen.fill(rec, count);
    const std::string what = "round " + std::to_string(round) +
                             " capacity " + std::to_string(capacity) +
                             " events " + std::to_string(count);
    expect_matches_reference(rec, gen.pid(), what);
    if (round % 3 == 0) {
      // A ring after clear(): fewer, equal or more events than before.
      rec.clear();
      expect_matches_reference(rec, gen.pid(), what + " cleared");
      gen.fill(rec, static_cast<int>(gen.below(2 * capacity + 1)));
      expect_matches_reference(rec, gen.pid(), what + " refilled");
    }
  }
}

TEST(ExportTest, ExtremeValuesMatchReferenceFormatter) {
  TraceRecorder rec(16);
  const NameIdx n = rec.intern("ctl\x01\"\\\xff");
  rec.record(TraceCategory::kFleet, n, INT32_MIN, INT64_MIN, INT64_MIN);
  rec.record(TraceCategory::kFault, n, INT32_MAX, INT64_MAX, INT64_MAX);
  rec.record(TraceCategory::kRecovery, n, -1, INT64_MIN, INT64_MAX);
  for (const int pid : {0, -1, INT_MIN, INT_MAX}) {
    expect_matches_reference(rec, pid, "pid " + std::to_string(pid));
  }
  const std::string text = text_trace(rec);
  EXPECT_NE(text.find("@-9223372036854775808 fleet"), std::string::npos);
  EXPECT_NE(text.find("uid=-2147483648 arg=-9223372036854775808\n"),
            std::string::npos);
  EXPECT_NE(chrome_trace(rec).find("\"name\":\"ctl\\u0001\\\"\\\\\xff\""),
            std::string::npos);
}

TEST(ExportTest, FirstSeenUidNamesTheSharedSystemTrack) {
  // Every negative uid and uid 1 share tid 1; the first one seen names it.
  for (const bool system_first : {true, false}) {
    TraceRecorder rec(8);
    const NameIdx n = rec.intern("e");
    rec.record(TraceCategory::kSim, n, system_first ? -1 : 1, 0, 10);
    rec.record(TraceCategory::kSim, n, system_first ? 1 : -1, 0, 20);
    rec.record(TraceCategory::kSim, n, INT32_MIN, 0, 30);
    expect_matches_reference(rec, 2, system_first ? "-1 first" : "1 first");
    const std::string json = chrome_trace(rec, 2);
    EXPECT_NE(json.find(system_first ? "{\"name\":\"system\"}"
                                     : "{\"name\":\"uid 1\"}"),
              std::string::npos);
    EXPECT_EQ(json.find(system_first ? "{\"name\":\"uid 1\"}"
                                     : "{\"name\":\"system\"}"),
              std::string::npos);
  }
}

TEST(ExportTest, EmptyRecorderMatchesReferenceFormatter) {
  TraceRecorder rec(4);
  (void)rec.intern("never-recorded");
  expect_matches_reference(rec, 0, "empty");
  EXPECT_EQ(chrome_trace(rec), "{\"traceEvents\":[]}");
  EXPECT_EQ(text_trace(rec), "# trace events=0 dropped=0\n");
}

}  // namespace
}  // namespace eandroid::obs
