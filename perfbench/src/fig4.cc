// fig4-sweep: the paper's Figure 4 grid (six workload x system panels,
// K = 4, the six paper policies, non-preemptive) as one run_sweep batch
// on 2 worker threads -- what a reproduction user runs.  No service
// layer is involved; time goes to offline-policy set-up (ShiftBT
// prepare) and single-job dispatch.
//
// Traced run: one untraced sweep for SweepMetrics, then a serial replay
// of every cell through the same public calls run_sweep makes
// (generate, ClusterParams::sample, SchedulerSpec::instantiate with the
// same seeds, simulate), with a timing decorator around each policy and
// its DispatchContext.
#include <cmath>
#include <string>
#include <vector>

#include "exp/configs.hh"
#include "exp/sweep.hh"
#include "metrics/bounds.hh"
#include "sched/registry.hh"
#include "support/rng.hh"
#include "timed.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace fhs;

/// Instances per panel: 6 x 60 = 360 cells, a sweep of about 1.4 s on 2
/// threads of a 4-vCPU Xeon VM, so a run holds several whole sweeps.
constexpr std::size_t kInstancesPerPanel = 60;
constexpr std::size_t kSweepThreads = 2;
/// Spec construction takes microseconds: it is repeated before every
/// sweep and reported as the median.
constexpr int kSetupRepeats = 101;
/// The five samples one cell yields per policy, in run_sweep's order.
constexpr std::size_t kSamples = 5;

std::string paper_policy_list() {
  std::string list;
  for (const SchedulerSpec& spec : paper_scheduler_names()) {
    list += (list.empty() ? "" : ",") + spec.to_string();
  }
  return list;
}

std::vector<ExperimentSpec> make_specs(const std::string& policies, std::uint64_t seed) {
  const std::vector<SchedulerSpec> schedulers = split_scheduler_list(policies);
  std::vector<ExperimentSpec> specs;
  for (const Fig4Panel& panel : fig4_panels(kDefaultNumTypes)) {
    ExperimentSpec spec;
    spec.name = panel.name;
    spec.workload = panel.workload;
    spec.cluster = panel.cluster;
    spec.schedulers = schedulers;
    spec.instances = kInstancesPerPanel;
    spec.mode = ExecutionMode::kNonPreemptive;
    spec.seed = seed;
    specs.push_back(std::move(spec));
  }
  return specs;
}

bool same_stats(const RunningStats& a, const RunningStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() && a.min() == b.min() &&
         a.max() == b.max() && a.variance() == b.variance();
}

bool same_outcome(const SchedulerOutcome& a, const SchedulerOutcome& b) {
  return a.scheduler == b.scheduler && same_stats(a.ratio, b.ratio) &&
         same_stats(a.completion_time, b.completion_time) &&
         same_stats(a.mean_utilization, b.mean_utilization) &&
         same_stats(a.preemptions, b.preemptions) &&
         same_stats(a.reduction_vs_baseline, b.reduction_vs_baseline);
}

bool same_report(const SweepResult& a, const SweepResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t e = 0; e < a.results.size(); ++e) {
    const auto& x = a.results[e].outcomes;
    const auto& y = b.results[e].outcomes;
    if (x.size() != y.size()) return false;
    for (std::size_t s = 0; s < x.size(); ++s) {
      if (!same_outcome(x[s], y[s])) return false;
    }
  }
  return true;
}

/// Report-level checks: every cell ran every policy, and every ratio
/// T(J) / L(J) is at least 1.  T(J) is an integer, so ratio >= 1 is
/// exactly T(J) >= ceil(L(J)).  Returns the number of cells of
/// experiments that failed a check.
std::uint64_t check_report(const SweepResult& sweep, RunResult& result) {
  std::uint64_t failed = 0;
  for (const ExperimentResult& experiment : sweep.results) {
    bool ok = experiment.outcomes.size() == experiment.spec.schedulers.size();
    for (const SchedulerOutcome& outcome : experiment.outcomes) {
      ok = ok && outcome.ratio.count() == experiment.spec.instances &&
           outcome.ratio.min() >= 1.0 && std::isfinite(outcome.ratio.max()) &&
           std::isfinite(outcome.completion_time.mean());
    }
    result.check(ok, "fig4-sweep: panel '" + experiment.spec.name +
                         "' has a cell with T(J) < ceil(L(J)) or a missing policy run");
    if (!ok) failed += experiment.spec.instances;
  }
  return failed;
}

struct Replay {
  SweepResult folded;
  std::int64_t wall_ns = 0;
  std::uint64_t bound_violations = 0;
};

/// Serial traced replay of every cell, mirroring run_sweep's cell body
/// call for call, then the same deterministic fold.
Replay replay_cells(const std::vector<ExperimentSpec>& specs, Trace& trace) {
  const std::uint32_t cell_name = trace.intern("exp.cell");
  const std::uint32_t generate_name = trace.intern("workload.generate");
  const std::uint32_t simulate_name = trace.intern("sim.simulate");
  const std::uint32_t ctx_name = trace.intern("sim.ctx");
  std::vector<std::uint32_t> prepare_names;
  std::vector<std::uint32_t> dispatch_names;
  for (const SchedulerSpec& spec : specs.front().schedulers) {
    prepare_names.push_back(trace.intern("sched.prepare." + spec.to_string()));
    dispatch_names.push_back(trace.intern("sched.dispatch." + spec.to_string()));
  }

  Replay replay;
  std::vector<std::vector<double>> samples(specs.size());
  std::uint64_t cell_id = 0;
  const std::int64_t start = now_ns();
  for (std::size_t e = 0; e < specs.size(); ++e) {
    const ExperimentSpec& spec = specs[e];
    const std::size_t policies = spec.schedulers.size();
    samples[e].assign(spec.instances * policies * kSamples, 0.0);
    for (std::size_t i = 0; i < spec.instances; ++i, ++cell_id) {
      const Scope cell(&trace, cell_name, Span::kNoParent, cell_id);
      Rng rng(mix_seed(spec.seed, i));
      KDag dag;
      {
        const Scope generate_span(&trace, generate_name, cell.index(), cell_id);
        dag = generate(spec.workload, rng);
      }
      const Cluster cluster = spec.cluster.sample(rng);
      const double bound = fractional_lower_bound(dag, cluster);
      const Time integer_bound = completion_time_lower_bound(dag, cluster);
      double* out = samples[e].data() + i * kSamples * policies;
      double baseline_time = 0.0;
      for (std::size_t s = 0; s < policies; ++s) {
        TimedScheduler timed(spec.schedulers[s].instantiate(mix_seed(spec.seed, i, s + 1)));
        SimOptions sim_options;
        sim_options.mode = spec.mode;
        SimResult sim;
        std::uint32_t sim_index = 0;
        {
          const Scope simulate_span(&trace, simulate_name, cell.index(), cell_id);
          sim_index = simulate_span.index();
          sim = simulate(dag, cluster, timed, sim_options);
        }
        timed.prepare_time.flush(trace, prepare_names[s], sim_index, cell_id);
        const std::uint32_t dispatch_index =
            timed.dispatch_time.flush(trace, dispatch_names[s], sim_index, cell_id);
        timed.ctx_time.flush(trace, ctx_name, dispatch_index, cell_id);

        if (sim.completion_time < integer_bound) ++replay.bound_violations;
        const auto time = static_cast<double>(sim.completion_time);
        double utilization = 0.0;
        for (ResourceType a = 0; a < dag.num_types(); ++a) {
          utilization += sim.utilization(a, cluster);
        }
        out[s * kSamples + 0] = time / bound;
        out[s * kSamples + 1] = time;
        out[s * kSamples + 2] = utilization / static_cast<double>(dag.num_types());
        out[s * kSamples + 3] = static_cast<double>(sim.preemptions);
        if (s == 0) {
          baseline_time = time;
        } else {
          out[s * kSamples + 4] = (baseline_time - time) / baseline_time;
        }
      }
    }
  }
  replay.wall_ns = now_ns() - start;

  replay.folded.results.resize(specs.size());
  for (std::size_t e = 0; e < specs.size(); ++e) {
    const ExperimentSpec& spec = specs[e];
    const std::size_t policies = spec.schedulers.size();
    ExperimentResult& result = replay.folded.results[e];
    result.spec = spec;
    result.outcomes.resize(policies);
    for (std::size_t s = 0; s < policies; ++s) {
      result.outcomes[s].scheduler = spec.schedulers[s].to_string();
    }
    for (std::size_t i = 0; i < spec.instances; ++i) {
      const double* in = samples[e].data() + i * kSamples * policies;
      for (std::size_t s = 0; s < policies; ++s) {
        SchedulerOutcome& o = result.outcomes[s];
        o.ratio.add(in[s * kSamples + 0]);
        o.completion_time.add(in[s * kSamples + 1]);
        o.mean_utilization.add(in[s * kSamples + 2]);
        o.preemptions.add(in[s * kSamples + 3]);
        if (s > 0) o.reduction_vs_baseline.add(in[s * kSamples + 4]);
      }
    }
  }
  return replay;
}

}  // namespace

RunResult run_fig4_sweep(const Options& options) {
  RunResult result;
  const std::string policies = paper_policy_list();

  // Sweep k runs grid mix_seed(seed, k), so one run averages over several
  // grids: a single 360-cell grid's cost varies by several percent from
  // seed to seed.  Each grid's tasks are counted before its clock starts.
  SweepOptions sweep_options;
  sweep_options.threads = kSweepThreads;
  std::vector<double> setup_s;
  std::vector<double> sweep_ms;
  std::vector<double> sweep_tasks_per_s;
  std::uint64_t tasks = 0;
  double completion_sum = 0.0;
  double completion_count = 0.0;
  std::vector<ExperimentSpec> first_specs;
  SweepResult first;
  const std::int64_t run_start = now_ns();
  for (std::uint64_t k = 0;; ++k) {
    // Set-up: parsing the policy list and building the grid's specs.  It
    // is timed before every sweep, so its median spans the whole run.
    for (int r = 0; r < kSetupRepeats; ++r) {
      const std::int64_t start = now_ns();
      const std::vector<ExperimentSpec> parsed = make_specs(policies, mix_seed(options.seed, k));
      setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    }
    std::vector<ExperimentSpec> specs = make_specs(policies, mix_seed(options.seed, k));
    std::uint64_t grid_tasks = 0;
    for (const ExperimentSpec& spec : specs) {
      for (std::size_t i = 0; i < spec.instances; ++i) {
        Rng rng(mix_seed(spec.seed, i));
        grid_tasks += generate(spec.workload, rng).task_count() * spec.schedulers.size();
      }
    }
    const std::uint64_t cells = specs.size() * kInstancesPerPanel;
    result.attempted += cells;
    try {
      const std::int64_t start = now_ns();
      SweepResult sweep = run_sweep(specs, sweep_options);
      const std::int64_t elapsed = now_ns() - start;
      sweep_ms.push_back(ns_to_ms(elapsed));
      sweep_tasks_per_s.push_back(static_cast<double>(grid_tasks) /
                                  (static_cast<double>(elapsed) / 1e9));
      tasks += grid_tasks;
      result.failed += check_report(sweep, result);
      for (const ExperimentResult& experiment : sweep.results) {
        for (const SchedulerOutcome& outcome : experiment.outcomes) {
          const auto count = static_cast<double>(outcome.completion_time.count());
          completion_sum += outcome.completion_time.mean() * count;
          completion_count += count;
        }
      }
      if (k == 0) {
        first_specs = std::move(specs);
        first = std::move(sweep);
      }
    } catch (const std::exception& error) {
      result.check(false, std::string("fig4-sweep: run_sweep threw: ") + error.what());
      result.failed += cells;
    }
    if (options.trace || static_cast<double>(now_ns() - run_start) >= options.seconds * 1e9) {
      break;
    }
  }
  if (first.results.empty()) return result;

  if (!options.trace) {
    result.notes.push_back("fig4-sweep: " + std::to_string(sweep_ms.size()) + " sweeps of " +
                           std::to_string(first_specs.size() * kInstancesPerPanel) +
                           " cells on " + std::to_string(kSweepThreads) + " threads, " +
                           std::to_string(tasks) + " policy-tasks");
    result.notes.push_back("tasks_per_s: median over sweeps; e2e_p50_ms / e2e_p90_ms: "
                           "latency of one sweep, " +
                           std::to_string(sweep_ms.size()) + " samples");
    // cells/s is tasks_per_s in other units: printed, not gated twice.
    std::vector<double> cells_per_s;
    for (const double ms : sweep_ms) {
      cells_per_s.push_back(static_cast<double>(first_specs.size() * kInstancesPerPanel) /
                            (ms / 1e3));
    }
    result.notes.push_back("cells_per_s: " + std::to_string(median(cells_per_s)) +
                           " cells/s, median over " + std::to_string(sweep_ms.size()) +
                           " sweeps");
    result.add("tasks_per_s", median(sweep_tasks_per_s), "tasks/s");
    result.add("e2e_p50_ms", quantile(sweep_ms, 0.5), "ms");
    result.add("e2e_p90_ms", quantile(sweep_ms, 0.9), "ms");
    result.add("flow_mean_ticks", completion_sum / completion_count, "ticks");
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  // Traced run: the untraced sweep above supplies SweepMetrics; the
  // serial replay supplies every per-layer span.
  const SweepMetrics& metrics = first.metrics;
  const double cell_seconds_sum =
      metrics.cell_seconds.mean() * static_cast<double>(metrics.cell_seconds.count());
  Trace trace;
  const Replay replay = replay_cells(first_specs, trace);
  result.attempted += first.metrics.cells;
  result.check(same_report(first, replay.folded),
               "fig4-sweep: the serial replay does not reproduce the 2-thread report");
  result.check(replay.bound_violations == 0,
               "fig4-sweep: " + std::to_string(replay.bound_violations) +
                   " replayed policy runs with T(J) < ceil(L(J))");
  if (!result.correct()) result.failed += first.metrics.cells;

  std::vector<double> cell_ms;
  for (const std::int64_t ns : trace.durations_of("exp.cell")) cell_ms.push_back(ns_to_ms(ns));
  result.notes.push_back("exp.cell_ms percentiles over " + std::to_string(cell_ms.size()) +
                         " replayed cells");
  result.add("exp.cells_per_s", metrics.cells_per_second(), "cells/s");
  result.add("exp.cell_ms.p50", quantile(cell_ms, 0.5), "ms");
  result.add("exp.cell_ms.p99", quantile(cell_ms, 0.99), "ms");
  result.add("exp.worker_idle_frac",
             1.0 - cell_seconds_sum /
                       (static_cast<double>(metrics.threads) * metrics.wall_seconds),
             "frac");
  result.add("exp.self_ms", ns_to_ms(trace.totals_of("exp.cell").self_ns), "ms");
  const NameTotals generate = trace.totals_of("workload.generate");
  result.add("workload.generate_ms", ns_to_ms(generate.total_ns), "ms");
  result.add("workload.generate_calls", static_cast<double>(generate.count), "count");
  for (const SchedulerSpec& spec : first_specs.front().schedulers) {
    const std::string p = spec.to_string();
    const NameTotals prepare = trace.totals_of("sched.prepare." + p);
    const NameTotals dispatch = trace.totals_of("sched.dispatch." + p);
    result.add("sched.prepare_ms." + p, ns_to_ms(prepare.self_ns), "ms");
    result.add("sched.dispatch_self_ms." + p, ns_to_ms(dispatch.self_ns), "ms");
    result.add("sched.dispatch_calls." + p, static_cast<double>(dispatch.count), "count");
  }
  const NameTotals ctx = trace.totals_of("sim.ctx");
  result.add("sim.engine_self_ms", ns_to_ms(trace.totals_of("sim.simulate").self_ns), "ms");
  result.add("sim.ctx_ms", ns_to_ms(ctx.total_ns), "ms");
  result.add("sim.ctx_calls", static_cast<double>(ctx.count), "count");
  result.add("trace.overhead_frac",
             static_cast<double>(replay.wall_ns) / 1e9 / cell_seconds_sum - 1.0, "frac");
  add_coverage(result, trace, replay.wall_ns);
  trace.write(options.trace_dir / ("fig4-sweep-seed" + std::to_string(options.seed) + ".jsonl"));
  return result;
}

}  // namespace perfbench
