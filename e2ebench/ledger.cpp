#include <algorithm>
#include <cmath>
#include <cstdio>

#include "workloads.h"

namespace e2e {
namespace {

std::vector<LedgerRow> self_time_ledger(
    const std::vector<Span>& spans, int root,
    const std::map<std::string, std::vector<LedgerRow>>& splits) {
  std::vector<std::vector<int>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(s.id);
    }
  }
  const int track = spans[static_cast<std::size_t>(root)].tid;
  auto seconds = [](const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  };
  std::map<std::string, double> self;
  std::vector<int> stack{root};
  while (!stack.empty()) {
    const Span& s = spans[static_cast<std::size_t>(stack.back())];
    stack.pop_back();
    double own = seconds(s);
    for (const int c : children[static_cast<std::size_t>(s.id)]) {
      const Span& child = spans[static_cast<std::size_t>(c)];
      // Spans on other threads ran in parallel with this one; the split
      // for this span's name accounts for them.
      if (child.tid != track) continue;
      own -= seconds(child);
      stack.push_back(c);
    }
    self[s.name] += own;
  }

  std::vector<LedgerRow> rows;
  for (const auto& [name, own] : self) {
    const auto split = splits.find(name);
    double weight = 0.0;
    if (split != splits.end()) {
      for (const LedgerRow& part : split->second) weight += part.seconds;
    }
    if (weight <= 0.0) {
      rows.push_back({name, own});
      continue;
    }
    for (const LedgerRow& part : split->second) {
      rows.push_back({part.name, own * part.seconds / weight});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const LedgerRow& a, const LedgerRow& b) {
              return a.seconds > b.seconds;
            });
  return rows;
}

}  // namespace

void report_ledger(const std::string& workload, const Spans& spans, int root,
                   const std::map<std::string, std::vector<LedgerRow>>& splits,
                   const std::string& span_path, RunResult& result) {
  const std::vector<Span> all = spans.all();
  const Span& top = all[static_cast<std::size_t>(root)];
  const double total = static_cast<double>(top.end_ns - top.start_ns) * 1e-9;
  const std::vector<LedgerRow> rows = self_time_ledger(all, root, splits);
  double sum = 0.0;
  for (const LedgerRow& row : rows) sum += row.seconds;
  std::printf("# ledger %s: traced total %.4f s, rows sum %.4f s\n",
              workload.c_str(), total, sum);
  for (const LedgerRow& row : rows) {
    std::printf("#   %-34s %10.4f s %6.2f%%\n", row.name.c_str(), row.seconds,
                total > 0.0 ? 100.0 * row.seconds / total : 0.0);
  }
  if (total <= 0.0 || std::fabs(sum - total) > 0.05 * total) {
    result.problem("ledger rows do not add to the traced total within 5%");
  }
  if (!write_chrome_trace(all, span_path)) {
    result.problem("cannot write span file " + span_path);
  } else {
    std::printf("# spans: %s (%zu spans)\n", span_path.c_str(), all.size());
  }
}

}  // namespace e2e
