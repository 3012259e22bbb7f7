#include "obs/export.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace eandroid::obs {
namespace {

// Track id for a uid: Chrome wants small positive tids and a stable
// ordering; system events (uid < 0) take tid 1, app uids keep their value.
int tid_of(std::int32_t uid) { return uid < 0 ? 1 : uid; }

// Widest decimal integer either exporter prints: INT64_MIN and
// UINT64_MAX are both 20 characters.
constexpr std::size_t kMaxInt = 20;

// Both exporters size one std::string for the worst case up front and
// write through a raw cursor; the final resize trims the slack.
char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

template <typename Int>
char* put_int(char* p, Int v) {
  static_assert(std::numeric_limits<Int>::digits10 + 1 +
                    std::is_signed_v<Int> <= kMaxInt);
  return std::to_chars(p, p + kMaxInt, v).ptr;
}

// Category names by value; every out-of-range value reads "?", as
// to_string() says.
constexpr auto kCategoryNames = [] {
  std::array<std::string_view, kTraceCategoryCount + 1> names{};
  for (int i = 0; i <= kTraceCategoryCount; ++i) {
    names[i] = to_string(static_cast<TraceCategory>(i));
  }
  return names;
}();

constexpr std::size_t kMaxCategory = [] {
  std::size_t widest = 0;
  for (std::string_view name : kCategoryNames) {
    widest = std::max(widest, name.size());
  }
  return widest;
}();

std::string_view category_name(TraceCategory c) {
  return kCategoryNames[std::min<std::size_t>(static_cast<std::size_t>(c),
                                              kTraceCategoryCount)];
}

void json_escape_into(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (byte < 0x20) {
      out += "\\u00";
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xf]);
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

std::string text_trace(const TraceRecorder& recorder) {
  const kernelsim::IdTable& names = recorder.names();
  std::size_t longest = 0;
  for (NameIdx i = 0; i < names.routine_count(); ++i) {
    longest = std::max(longest, names.routine_name(i).size());
  }
  // `@t_us category name uid=U arg=A\n`
  const std::size_t per_event = std::string_view("@  \n").size() +
                                kMaxCategory + longest +
                                std::string_view(" uid= arg=").size() +
                                3 * kMaxInt;
  const std::size_t header = std::string_view("# trace events= dropped=\n")
                                 .size() +
                             2 * kMaxInt;

  std::string out(header + recorder.size() * per_event, '\0');
  char* p = put(out.data(), "# trace events=");
  p = put_int(p, recorder.size());
  p = put(p, " dropped=");
  p = put_int(p, recorder.dropped());
  p = put(p, "\n");
  recorder.for_each([&](const TraceEvent& ev) {
    p = put(p, "@");
    p = put_int(p, ev.t_us);
    p = put(p, " ");
    p = put(p, category_name(ev.category));
    p = put(p, " ");
    p = put(p, names.routine_name(ev.name));
    p = put(p, " uid=");
    p = put_int(p, ev.uid);
    p = put(p, " arg=");
    p = put_int(p, ev.arg);
    p = put(p, "\n");
  });
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

std::string chrome_trace(const TraceRecorder& recorder, int pid) {
  // Each name's escaped `{"name":"…","cat":"` prefix, rendered once.
  const kernelsim::IdTable& names = recorder.names();
  std::string prefix_bytes;
  std::vector<std::size_t> prefix_begin;
  for (NameIdx i = 0; i < names.routine_count(); ++i) {
    prefix_begin.push_back(prefix_bytes.size());
    prefix_bytes += "{\"name\":\"";
    json_escape_into(prefix_bytes, names.routine_name(i));
    prefix_bytes += "\",\"cat\":\"";
  }
  prefix_begin.push_back(prefix_bytes.size());
  std::vector<std::string_view> prefix;
  std::size_t longest_prefix = 0;
  for (std::size_t i = 0; i + 1 < prefix_begin.size(); ++i) {
    prefix.push_back(std::string_view(prefix_bytes)
                         .substr(prefix_begin[i],
                                 prefix_begin[i + 1] - prefix_begin[i]));
    longest_prefix = std::max(longest_prefix, prefix.back().size());
  }

  // Track-name metadata: the tid universe in ascending order, each tid
  // named by the first uid seen on it (uid -1 and uid 1 share tid 1).
  struct Track {
    int tid;
    std::int32_t uid;
  };
  std::vector<Track> tracks;
  recorder.for_each([&](const TraceEvent& ev) {
    const int tid = tid_of(ev.uid);
    const auto at = std::lower_bound(
        tracks.begin(), tracks.end(), tid,
        [](const Track& t, int key) { return t.tid < key; });
    if (at == tracks.end() || at->tid != tid) tracks.insert(at, {tid, ev.uid});
  });

  // `","ph":"i","s":"t","pid":P,"tid":` is the same for every event.
  std::string mid = "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":";
  {
    char digits[kMaxInt];
    mid.append(digits, put_int(digits, pid));
  }
  mid += ",\"tid\":";

  constexpr std::string_view kTrackHead = "{\"ph\":\"M\",\"pid\":";
  constexpr std::string_view kTrackTid = ",\"tid\":";
  constexpr std::string_view kTrackName =
      ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
  constexpr std::string_view kTrackTail = "\"}},";
  const std::size_t per_track = kTrackHead.size() + kTrackTid.size() +
                                kTrackName.size() + kTrackTail.size() +
                                std::string_view("uid ").size() + 3 * kMaxInt;
  constexpr std::string_view kTs = ",\"ts\":";
  constexpr std::string_view kUid = ",\"args\":{\"uid\":";
  constexpr std::string_view kArg = ",\"arg\":";
  constexpr std::string_view kEventTail = "}},";
  const std::size_t per_event = longest_prefix + kMaxCategory + mid.size() +
                                kTs.size() + kUid.size() + kArg.size() +
                                kEventTail.size() + 4 * kMaxInt;
  constexpr std::string_view kHead = "{\"traceEvents\":[";
  constexpr std::string_view kTail = "]}";

  std::string out(kHead.size() + tracks.size() * per_track +
                      recorder.size() * per_event + kTail.size(),
                  '\0');
  char* p = put(out.data(), kHead);
  // Every element is written with a trailing ','; the last one's comma
  // is overwritten by the closing bracket.
  for (const Track& track : tracks) {
    p = put(p, kTrackHead);
    p = put_int(p, pid);
    p = put(p, kTrackTid);
    p = put_int(p, track.tid);
    p = put(p, kTrackName);
    if (track.uid < 0) {
      p = put(p, "system");
    } else {
      p = put(p, "uid ");
      p = put_int(p, track.uid);
    }
    p = put(p, kTrackTail);
  }
  recorder.for_each([&](const TraceEvent& ev) {
    p = put(p, prefix[ev.name]);
    p = put(p, category_name(ev.category));
    p = put(p, mid);
    p = put_int(p, tid_of(ev.uid));
    p = put(p, kTs);
    p = put_int(p, ev.t_us);
    p = put(p, kUid);
    p = put_int(p, ev.uid);
    p = put(p, kArg);
    p = put_int(p, ev.arg);
    p = put(p, kEventTail);
  });
  if (p[-1] == ',') --p;
  p = put(p, kTail);
  out.resize(static_cast<std::size_t>(p - out.data()));
  return out;
}

}  // namespace eandroid::obs
