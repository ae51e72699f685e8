#include "telemetry/profiler.hpp"

#include <algorithm>
#include <sstream>

#include "telemetry/json.hpp"
#include "util/check.hpp"

namespace dasched {

void ExecProfiler::begin_run(std::uint32_t num_directed_edges) {
  num_edges_ = num_directed_edges;
  edge_total_.assign(num_edges_, 0);
  edge_max_.assign(num_edges_, 0);
  edge_peak_round_.assign(num_edges_, 0);
  cells_.clear();
  cells_.reserve(cells_high_water_);
  hist_cell_load_.clear();
}

void ExecProfiler::end_run(std::span<const RoundRecord> rounds,
                           std::span<const std::uint32_t> max_loads) {
  DASCHED_CHECK_EQ(rounds.size(), max_loads.size(),
                   "profiler: per-round record and max loads differ in length");
  rounds_.assign(rounds.begin(), rounds.end());
  round_max_load_.assign(max_loads.begin(), max_loads.end());
  total_messages_ = 0;
  total_events_ = 0;
  total_inbox_ = 0;
  total_retries_ = 0;
  for (const RoundRecord& r : rounds) {
    total_messages_ += r.messages;
    total_events_ += r.events;
    total_inbox_ += r.inbox;
    total_retries_ += r.retries;
  }
  run_max_load_ = 0;
  hist_round_max_.clear();
  for (const std::uint32_t load : max_loads) {
    run_max_load_ = std::max(run_max_load_, load);
    hist_round_max_.add(load);
  }
  ++runs_;
  cells_high_water_ = std::max(cells_high_water_, cells_.size());
}

std::vector<ExecProfiler::EdgeSummary> ExecProfiler::top_edges(std::size_t n) const {
  std::vector<EdgeSummary> all;
  all.reserve(num_edges_);
  for (std::uint32_t e = 0; e < num_edges_; ++e) {
    if (edge_total_[e] == 0) continue;
    all.push_back({e, edge_total_[e], edge_max_[e], edge_peak_round_[e]});
  }
  const std::size_t keep = std::min(n, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep),
                    all.end(), [](const EdgeSummary& x, const EdgeSummary& y) {
                      if (x.total_load != y.total_load) return x.total_load > y.total_load;
                      return x.edge < y.edge;
                    });
  all.resize(keep);
  return all;
}

std::vector<LoadCell> ExecProfiler::top_cells(std::size_t n) const {
  std::vector<LoadCell> all = cells_;
  const std::size_t keep = std::min(n, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(keep),
                    all.end(), [](const LoadCell& x, const LoadCell& y) {
                      if (x.load != y.load) return x.load > y.load;
                      if (x.big_round != y.big_round) return x.big_round < y.big_round;
                      return x.edge < y.edge;
                    });
  all.resize(keep);
  return all;
}

namespace {

std::string heat_bar(std::uint32_t value, std::uint32_t max_value) {
  constexpr std::uint32_t kWidth = 24;
  if (max_value == 0) return std::string();
  const std::uint32_t filled =
      value == 0 ? 0
                 : std::max<std::uint32_t>(
                       1, static_cast<std::uint32_t>(
                              (static_cast<std::uint64_t>(value) * kWidth) /
                              max_value));
  return std::string(filled, '#');
}

}  // namespace

Table ExecProfiler::hot_edges_table(
    std::size_t top_n,
    const std::function<std::string(std::uint32_t)>& edge_label) const {
  Table table("profile: top-" + std::to_string(top_n) + " hot directed edges");
  table.set_header({"edge", "endpoints", "total load", "max load", "peak round", "heat"});
  const auto edges = top_edges(top_n);
  const std::uint64_t hottest = edges.empty() ? 0 : edges.front().total_load;
  for (const auto& e : edges) {
    table.add_row(
        {Table::fmt(std::uint64_t{e.edge}),
         edge_label ? edge_label(e.edge) : "-", Table::fmt(e.total_load),
         Table::fmt(std::uint64_t{e.max_load}), Table::fmt(std::uint64_t{e.peak_round}),
         heat_bar(static_cast<std::uint32_t>(e.total_load),
                  static_cast<std::uint32_t>(hottest))});
  }
  return table;
}

Table ExecProfiler::hot_rounds_table(std::size_t top_n) const {
  Table table("profile: top-" + std::to_string(top_n) + " hot big-rounds");
  table.set_header({"big-round", "messages", "max load", "events", "retries", "heat"});
  std::vector<std::uint32_t> rounds(rounds_used());
  for (std::uint32_t t = 0; t < rounds_used(); ++t) rounds[t] = t;
  const std::size_t keep = std::min(top_n, rounds.size());
  std::partial_sort(rounds.begin(), rounds.begin() + static_cast<std::ptrdiff_t>(keep),
                    rounds.end(), [&](std::uint32_t x, std::uint32_t y) {
                      if (round_max_load_[x] != round_max_load_[y]) {
                        return round_max_load_[x] > round_max_load_[y];
                      }
                      return x < y;
                    });
  rounds.resize(keep);
  for (const auto t : rounds) {
    table.add_row({Table::fmt(std::uint64_t{t}), Table::fmt(rounds_[t].messages),
                   Table::fmt(std::uint64_t{round_max_load_[t]}),
                   Table::fmt(rounds_[t].events), Table::fmt(rounds_[t].retries),
                   heat_bar(round_max_load_[t], run_max_load_)});
  }
  return table;
}

void ExecProfiler::write_json(std::ostream& os) const {
  json::Writer w(os);
  w.begin_object();
  w.kv("schema", "dasched.profile.v1");

  w.key("totals");
  w.begin_object();
  w.kv("runs", runs_);
  w.kv("big_rounds", std::uint64_t{rounds_used()});
  w.kv("directed_edges", std::uint64_t{num_edges_});
  w.kv("messages", total_messages_);
  w.kv("events", total_events_);
  w.kv("inbox_messages", total_inbox_);
  w.kv("retries", total_retries_);
  w.kv("max_edge_load", std::uint64_t{run_max_load_});
  w.kv("touched_cells", std::uint64_t{cells_.size()});
  // Deliberately no worker count or other engine parameter here: the
  // profile of a run is bit-identical across thread counts
  // (tests/test_profiler.cpp).
  w.end_object();

  w.key("rounds");
  w.begin_array();
  for (std::uint32_t t = 0; t < rounds_used(); ++t) {
    w.begin_object();
    w.kv("t", std::uint64_t{t});
    w.kv("messages", rounds_[t].messages);
    w.kv("max_load", std::uint64_t{round_max_load_[t]});
    w.kv("events", rounds_[t].events);
    w.kv("inbox", rounds_[t].inbox);
    w.kv("retries", rounds_[t].retries);
    w.end_object();
  }
  w.end_array();

  w.key("top_edges");
  w.begin_array();
  for (const auto& e : top_edges(16)) {
    w.begin_object();
    w.kv("edge", std::uint64_t{e.edge});
    w.kv("total_load", e.total_load);
    w.kv("max_load", std::uint64_t{e.max_load});
    w.kv("peak_round", std::uint64_t{e.peak_round});
    w.end_object();
  }
  w.end_array();

  w.key("cell_load_histogram");
  w.begin_array();
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i) {
    if (hist_cell_load_.bucket(i) == 0) continue;
    w.begin_object();
    w.kv("ge", LogHistogram::bucket_floor(i));
    w.kv("count", hist_cell_load_.bucket(i));
    w.end_object();
  }
  w.end_array();

  w.end_object();
}

std::string ExecProfiler::to_json() const {
  std::ostringstream oss;
  write_json(oss);
  return oss.str();
}

void ExecProfiler::emit(TelemetrySink* sink) const {
  if (sink == nullptr) return;
  sink->add_counter("profile.messages", total_messages_);
  sink->add_counter("profile.events", total_events_);
  sink->add_counter("profile.retries", total_retries_);
  sink->add_counter("profile.touched_cells", cells_.size());
  sink->set_gauge("profile.big_rounds", rounds_used());
  sink->set_gauge("profile.max_edge_load", run_max_load_);
  for (const std::uint32_t load : round_max_load_) {
    sink->record_value("profile.round_max_load", load);
  }
}

}  // namespace dasched
