// A deliberately naive reference executor: the paper's Section 2 model taken
// literally, for differential tests against congest/executor.hpp.
//
// Every (algorithm, node, tag) has its own inbox vector. A message an event
// sends in virtual round r is transmitted at the end of the big-round in
// which that event ran, appended to the receiver's tag-r inbox, and read by
// the receiver's round r + 1 (by on_finish when r == T). Events of one
// big-round run in (algorithm, node) order and transmissions are processed in
// send order, after the round's due retransmissions. A delivery whose
// consumer has already executed is a causality violation: counted, never
// read. There are no lanes, owners, arenas, shards or width dispatch;
// the whole run is one thread walking the schedule table slot by slot. Like
// the engine, it aborts on a send to a non-neighbor and on a second send to
// one neighbor from one event.
//
// Faults use the same FaultInjector questions as the engine, with the
// semantics docs/FAULTS.md states: a crashed node skips its events; every
// transmission attempt costs one unit of load on its directed edge; an
// attempt is lost to a dark link, then to a crashed receiver, then to a
// random drop; a delivered attempt may be duplicated (two copies without a
// reliable layer, suppressed with one); a dropped attempt a < max_retries is
// re-sent 2^a big-rounds later while its sender is alive, and is lost
// otherwise. A node that crashes within the run never finishes.
//
// On request the oracle also reports each algorithm's communication pattern
// (Section 2): the (virtual round, directed edge) cells its events sent on,
// counted over fresh sends only, so retransmissions are not part of it.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "congest/executor.hpp"
#include "congest/program.hpp"
#include "congest/schedule_table.hpp"
#include "fault/fault_injector.hpp"
#include "fault/reliable.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"
#include "util/load_cells.hpp"

namespace dasched {

class ReferenceExecutor {
 public:
  explicit ReferenceExecutor(const Graph& g, const FaultInjector* faults = nullptr,
                             RetryPolicy retry = {})
      : g_(g), faults_(faults), retry_(retry) {}

  /// Fills outputs, completed, causality_violations, total_messages,
  /// num_big_rounds, max_load_per_big_round, max_edge_load and faults. If
  /// `patterns` is set, (*patterns)[a] becomes algorithm a's pattern: one cell
  /// per (virtual round, directed edge) it sent on, sorted, its load the
  /// number of fresh sends there.
  ExecutionResult run(std::span<const DistributedAlgorithm* const> algos,
                      const ScheduleTable& schedule,
                      std::vector<std::vector<LoadCell>>* patterns = nullptr) const {
    const std::size_t k = algos.size();
    const NodeId n = g_.num_nodes();
    const std::uint32_t max_retries = faults_ != nullptr ? retry_.max_retries : 0;
    ExecutionResult out;
    auto& fs = out.faults;

    ProgramArena arena;
    std::vector<std::vector<NodeProgram*>> programs(k);
    std::vector<std::vector<std::uint32_t>> progress(k, std::vector<std::uint32_t>(n, 0));
    // inbox[a][v][tag]: messages algorithm a's round-`tag` events sent to v.
    std::vector<std::vector<std::vector<std::vector<Message>>>> inbox(k);
    std::uint32_t horizon = 0;
    for (std::size_t a = 0; a < k; ++a) {
      const std::uint32_t rounds = algos[a]->rounds();
      inbox[a].assign(n, std::vector<std::vector<Message>>(rounds + 1));
      for (NodeId v = 0; v < n; ++v) {
        programs[a].push_back(&algos[a]->construct_program(v, arena));
        for (std::uint32_t r = 1; r <= rounds; ++r) {
          const std::uint32_t slot = schedule.at(a, v, r);
          if (slot != kNeverScheduled) horizon = std::max(horizon, slot + 1);
        }
      }
    }

    std::map<std::uint32_t, std::vector<Transmission>> retries;  // due round -> FIFO
    std::vector<std::vector<std::uint64_t>> sent_keys(k);  // cell_key(tag, edge) per send
    for (std::uint32_t t = 0; t < horizon; ++t) {
      std::vector<Transmission> sent;
      if (const auto due = retries.find(t); due != retries.end()) {
        sent = std::move(due->second);
        retries.erase(due);
      }
      for (std::size_t a = 0; a < k; ++a) {
        for (NodeId v = 0; v < n; ++v) {
          for (std::uint32_t r = 1; r <= algos[a]->rounds(); ++r) {
            if (schedule.at(a, v, r) != t) continue;
            if (faults_ != nullptr && faults_->node_crashed(v, t)) {
              ++fs.skipped_events;
              break;
            }
            DASCHED_CHECK_EQ(progress[a][v] + 1, r);
            progress[a][v] = r;
            Sink sink{&g_, &sent, sent.size(), static_cast<std::uint32_t>(a), v, r};
            call(*programs[a][v], inbox[a][v][r - 1], v, r, &sink);
          }
        }
      }

      std::map<std::uint32_t, std::uint32_t> load;  // directed edge -> attempts
      for (const auto& tx : sent) {
        ++load[tx.msg.edge];
        ++out.total_messages;
        const Message& m = tx.msg;
        if (tx.attempt == 0) sent_keys[m.alg].push_back(cell_key(m.tag, m.edge));
        std::uint32_t copies = 1;
        if (faults_ != nullptr) {
          ++fs.attempts;
          copies = 0;
          if (faults_->link_down(m.edge / 2, t)) {
            ++fs.dropped_outage;
          } else if (faults_->node_crashed(m.to, t)) {
            ++fs.dropped_crash;
          } else if (faults_->drop(m.alg, m.edge, m.tag, tx.attempt)) {
            ++fs.dropped_random;
          } else {
            copies = 1;
            if (faults_->duplicate(m.alg, m.edge, m.tag, tx.attempt)) {
              if (max_retries > 0) {
                ++fs.duplicates_suppressed;
              } else {
                ++fs.duplicated;
                copies = 2;
              }
            }
            fs.delivered += copies;
          }
          if (copies == 0) {
            const std::uint32_t again = t + (1u << tx.attempt);
            if (tx.attempt < max_retries && !faults_->node_crashed(m.from, again)) {
              ++fs.retransmissions;
              retries[again].push_back({m, tx.attempt + 1});
              horizon = std::max(horizon, again + 1);
            } else {
              ++fs.lost;
            }
          }
        }
        for (std::uint32_t c = 0; c < copies; ++c) {
          if (m.tag < algos[m.alg]->rounds() && progress[m.alg][m.to] > m.tag) {
            ++out.causality_violations;  // the consumer already ran
          } else {
            inbox[m.alg][m.to][m.tag].push_back(m);
          }
        }
      }
      std::uint32_t max_load = 0;
      for (const auto& [edge, count] : load) max_load = std::max(max_load, count);
      out.max_load_per_big_round.push_back(max_load);
      out.max_edge_load = std::max(out.max_edge_load, max_load);
    }
    out.num_big_rounds = horizon;

    out.outputs.assign(k, {});
    out.completed.assign(k, std::vector<std::uint8_t>(n, 0));
    for (std::size_t a = 0; a < k; ++a) {
      const std::uint32_t rounds = algos[a]->rounds();
      for (NodeId v = 0; v < n; ++v) {
        std::vector<std::uint64_t> words;
        if (progress[a][v] == rounds &&
            (faults_ == nullptr || faults_->crash_round(v) >= horizon)) {
          call(*programs[a][v], inbox[a][v][rounds], v, rounds + 1, nullptr);
          out.completed[a][v] = 1;
          programs[a][v]->write_output(words);
        }
        out.outputs[a].push_back(OutputView(words));
      }
    }
    if (patterns != nullptr) {
      patterns->assign(k, {});
      for (std::size_t a = 0; a < k; ++a) count_cells(sent_keys[a], (*patterns)[a]);
    }
    return out;
  }

 private:
  struct Message {
    std::uint32_t alg;
    NodeId from;
    NodeId to;
    std::uint32_t tag;   // the sender's virtual round
    std::uint32_t edge;  // directed edge from -> to
    Payload payload;
  };
  struct Transmission {
    Message msg;
    std::uint32_t attempt;  // 0 for the first transmission
  };
  struct Sink {
    const Graph* g;
    std::vector<Transmission>* sent;
    std::size_t first;  // this event's sends are sent[first..]
    std::uint32_t alg;
    NodeId from;
    std::uint32_t tag;
  };

  static void send(void* raw, NodeId to, const Payload& payload) {
    const auto& sink = *static_cast<Sink*>(raw);
    // CONGEST bandwidth: one message per edge per round, checked against
    // this event's earlier sends.
    for (std::size_t i = sink.first; i < sink.sent->size(); ++i) {
      DASCHED_CHECK_MSG((*sink.sent)[i].msg.to != to,
                        "two messages to one neighbor in one round");
    }
    const auto nbrs = sink.g->neighbors(sink.from);
    for (std::size_t slot = 0; slot < nbrs.size(); ++slot) {
      if (nbrs[slot].neighbor != to) continue;
      const std::uint32_t edge = sink.g->directed_ids(sink.from)[slot];
      sink.sent->push_back({{sink.alg, sink.from, to, sink.tag, edge, payload}, 0});
      return;
    }
    DASCHED_CHECK_MSG(false, "send to non-neighbor");
  }

  /// Runs on_round (sink set) or on_finish (sink null) over `msgs`, presented
  /// through the InboxView every NodeProgram reads.
  void call(NodeProgram& program, const std::vector<Message>& msgs, NodeId v,
            std::uint32_t vround, Sink* sink) const {
    constexpr std::uint32_t kStride = InlinePayload::kInlineCapacity;
    std::vector<std::uint32_t> headers;
    std::vector<std::uint64_t> words(msgs.size() * kStride, 0);
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const Payload& p = msgs[i].payload;
      headers.push_back(pack_msg_header(msgs[i].from, static_cast<std::uint32_t>(p.size())));
      std::copy(p.data(), p.data() + p.size(), words.begin() + i * kStride);
    }
    VirtualContext ctx(v, g_.num_nodes(), vround,
                       InboxView(headers.data(), words.data(), kStride,
                                 static_cast<std::uint32_t>(msgs.size())),
                       g_.neighbors(v), sink != nullptr ? &ReferenceExecutor::send : nullptr,
                       sink);
    if (sink != nullptr) {
      program.on_round(ctx);
    } else {
      program.on_finish(ctx);
    }
  }

  const Graph& g_;
  const FaultInjector* faults_;
  RetryPolicy retry_;
};

}  // namespace dasched
