#include "ktau/system.hpp"

#include <algorithm>

namespace ktau::meas {

KtauSystem::KtauSystem(const KtauConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {}

double KtauSystem::base_mean(double min, double mean) const {
  // Keep the overall mean at `mean` despite the outlier component.
  const double p = cfg_.overhead.outlier_prob;
  const double om = cfg_.overhead.outlier_mean;
  const double base = p > 0 ? (mean - p * om) / (1.0 - p) : mean;
  return std::max(base, min + 1.0);
}

double KtauSystem::draw_cost(double min, double mean) {
  const double p = cfg_.overhead.outlier_prob;
  if (p > 0 && rng_.bernoulli(p)) {
    return rng_.shifted_exponential(min, cfg_.overhead.outlier_mean);
  }
  return rng_.shifted_exponential(min, base_mean(min, mean));
}

double KtauSystem::draw_cost_sum(double min, double mean, std::uint32_t k) {
  // Each draw_cost is min + (component mean - min) * Exp(1), so k of them
  // sum to k*min plus one Erlang per component, the components split by a
  // Binomial count of outliers.
  const std::uint64_t outliers =
      sim::binomial(rng_, k, cfg_.overhead.outlier_prob);
  return k * min +
         (cfg_.overhead.outlier_mean - min) * sim::erlang(rng_, outliers) +
         (base_mean(min, mean) - min) * sim::erlang(rng_, k - outliers);
}

void KtauSystem::charge(CpuClock& clock, double cycles) {
  const auto c = static_cast<sim::Cycles>(cycles);
  total_overhead_ += c;
  if (cfg_.charge_overhead) clock.consume_cycles(c);
}

void KtauSystem::entry(CpuClock& clock, TaskProfile* prof, EventId ev) {
  if (!cfg_.compiled_in) return;
  const Group g = info(ev).group;
  if (!contains(effective_mask(), g)) {
    charge(clock, cfg_.overhead.disabled_check);
    return;
  }
  // Timestamp is read at probe start; the bookkeeping cost that follows is
  // absorbed by the enclosing (parent) region, as in the real macros.
  const sim::Cycles now = clock.now_cycles();
  if (prof != nullptr) {
    prof->entry(ev, now);
    if (cfg_.tracing && contains(cfg_.trace_groups, g) &&
        prof->trace() != nullptr) {
      prof->trace()->push({clock.cursor, ev, TraceType::Entry,
                           prof->request_tag()});
      charge(clock, cfg_.overhead.trace_record_cost);
    }
  }
  const double cost =
      draw_cost(cfg_.overhead.start_min, cfg_.overhead.start_mean);
  start_overhead_.add(cost);
  charge(clock, cost);
}

void KtauSystem::exit(CpuClock& clock, TaskProfile* prof, EventId ev) {
  if (!cfg_.compiled_in) return;
  const Group g = info(ev).group;
  // An exit probe pairs against the *in-flight entry*, not the current mask:
  // the runtime mask can legally flip between a probe pair (procfs ctl), and
  // early-returning here used to leave the pseudo-callstack unbalanced
  // (ON->OFF: the open frame never closed and the next exit threw; OFF->ON:
  // an exit with no matching entry threw immediately).  Four cases:
  //   enabled + matching frame  — the normal path (bit-identical to before);
  //   enabled + no frame        — entry ran while the group was off (OFF->ON
  //                               flip): nothing to close, but the probe body
  //                               still runs and charges full stop cost;
  //   disabled + matching frame — entry ran while the group was on (ON->OFF
  //                               flip): force-close the frame at full stop
  //                               cost so the stack stays balanced;
  //   disabled + no frame       — the steady disabled state: flag check only.
  const bool live = contains(effective_mask(), g);
  const bool paired = prof != nullptr && prof->current_event() == ev;
  if (!live && !paired) {
    charge(clock, cfg_.overhead.disabled_check);
    return;
  }
  const sim::Cycles now = clock.now_cycles();
  if (paired) {
    prof->exit(ev, now);
    if (cfg_.tracing && contains(cfg_.trace_groups, g) &&
        prof->trace() != nullptr) {
      prof->trace()->push({clock.cursor, ev, TraceType::Exit,
                           prof->last_closed_tag()});
      charge(clock, cfg_.overhead.trace_record_cost);
    }
  }
  const double cost =
      draw_cost(cfg_.overhead.stop_min, cfg_.overhead.stop_mean);
  stop_overhead_.add(cost);
  charge(clock, cost);
}

void KtauSystem::atomic(CpuClock& clock, TaskProfile* prof, EventId ev,
                        double value) {
  if (!cfg_.compiled_in) return;
  const Group g = info(ev).group;
  if (!contains(effective_mask(), g)) {
    charge(clock, cfg_.overhead.disabled_check);
    return;
  }
  if (prof != nullptr) {
    prof->atomic(ev, value);
    if (cfg_.tracing && contains(cfg_.trace_groups, g) &&
        prof->trace() != nullptr) {
      prof->trace()->push({clock.cursor, ev, TraceType::Atomic,
                           static_cast<std::uint64_t>(value)});
      charge(clock, cfg_.overhead.trace_record_cost);
    }
  }
  charge(clock, cfg_.overhead.atomic_cost);
}

void KtauSystem::hidden_pairs(CpuClock& clock, Group g, std::uint32_t pairs) {
  if (!cfg_.compiled_in || pairs == 0) return;
  if (!contains(effective_mask(), g)) {
    charge(clock, cfg_.overhead.disabled_check * pairs);
    return;
  }
  hidden_pairs_charged_ += pairs;
  const double start =
      draw_cost_sum(cfg_.overhead.start_min, cfg_.overhead.start_mean, pairs);
  start_overhead_.add_batch(pairs, start);
  charge(clock, start);
  const double stop =
      draw_cost_sum(cfg_.overhead.stop_min, cfg_.overhead.stop_mean, pairs);
  stop_overhead_.add_batch(pairs, stop);
  charge(clock, stop);
}

void KtauSystem::reap(Pid pid, std::string name, TaskProfile&& profile) {
  reaped_.push_back(ReapedTask{pid, std::move(name), std::move(profile)});
}

}  // namespace ktau::meas
