// serve-backlog and serve-open: the sharded scheduling service driven
// through its public API (submit / poll / drain / stats) from one
// generator thread, which in serve-backlog leaves polling to a second.
//
// Both workloads fix the number of jobs per session, never a duration:
// every fold copies the engine's whole task table (TaskTable::add_job
// and EngineCore::add_job reserve size() + n), so fold cost grows with
// session length, and a duration-bound run would measure a different
// session on faster or slower code.  A run repeats whole sessions until
// its time is up; each session starts a fresh service.
//
// Traced run: one untraced session (the overhead baseline), one session
// with every submit / poll / drain timed, then each shard's fold stream
// replayed through MultiJobEngine the way replay_journal does, with
// timing decorators around the stream policy and its dispatch context.
// Fold, harvest and journal serialization run inside the service's
// workers, where no public call isolates them; they stay inside
// shard.queued_ms and shard.run_ms.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <stop_token>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "rt/stream_rt.hh"
#include "shard/shard_journal.hh"
#include "shard/sharded_service.hh"
#include "support/rng.hh"
#include "timed.hh"
#include "workload/workload.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace fhs;

constexpr std::uint32_t kProcsPerType = 16;
constexpr ResourceType kTypes = 2;
const char* const kPolicy = "mqb";
/// Extra service constructions per session, so setup_s is a median.
constexpr int kSetupRepeats = 41;

/// serve-backlog: enough large EP jobs (about 380 tasks each) that the
/// engine sits at its 128-job resident limit for most of the session.
/// The batch is due at the session start, so a job's latency is the time
/// until the batch has completed it.
constexpr std::size_t kBacklogJobs = 240;
/// serve-open: 5000 small EP jobs per session at a fixed 1000 jobs/s.
/// Long enough for the fold-cost growth to show (multijob.add_job_growth,
/// and a median latency that rises through the session); at 10 000 jobs
/// the late folds bring the shards close enough to saturation that the
/// median latency of one seed moved by 12% between runs.  The rate is a
/// constant, never derived from a capacity measured at run time, so a
/// parent and a change see the same offered load.
constexpr std::size_t kOpenJobs = 5000;
constexpr double kOpenRatePerSecond = 1000.0;

/// The open-loop generator polls every outstanding ticket once per
/// interval: a tighter loop would hold the ticket store's stripe locks
/// most of the time, and a host preemption of the generator's CPU would
/// then stall the workers behind those locks.
constexpr std::int64_t kPollIntervalNs = 20'000;
/// A batch's jobs take seconds; its poller polls every millisecond and
/// sleeps in between, leaving the CPUs to the service.
constexpr std::int64_t kBatchPollIntervalNs = 1'000'000;

struct Inputs {
  std::vector<KDag> dags;
  /// Due offsets (ns from session start); empty means back to back.
  std::vector<std::int64_t> due_ns;
  std::uint64_t tasks = 0;
  std::int64_t generate_ns = 0;
};

Inputs make_inputs(const std::string& workload, std::uint64_t seed) {
  Inputs inputs;
  EpParams params;
  params.num_types = kTypes;
  std::size_t jobs = kBacklogJobs;
  if (workload == "serve-open") {
    params.min_branches = 2;
    params.max_branches = 6;
    jobs = kOpenJobs;
  }
  Rng rng(mix_seed(seed, workload == "serve-open" ? 2 : 1));
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < jobs; ++i) {
    inputs.dags.push_back(generate_ep(params, rng));
    inputs.tasks += inputs.dags.back().task_count();
  }
  inputs.generate_ns = now_ns() - start;
  if (workload == "serve-open") {
    double due = 0.0;
    for (std::size_t i = 0; i < jobs; ++i) {
      due += rng.exponential(1e9 / kOpenRatePerSecond);
      inputs.due_ns.push_back(static_cast<std::int64_t>(due));
    }
  }
  return inputs;
}

/// In-memory journal: keeps the bytes for the replay, counts them, and
/// in traced sessions times every write the service makes into it.  The
/// service serializes appends under its journal mutex.
class JournalSink final : public std::streambuf {
 public:
  explicit JournalSink(bool timed) : timed_(timed) {}

  std::string bytes;
  std::int64_t write_ns = 0;

 protected:
  std::streamsize xsputn(const char* data, std::streamsize n) override {
    const std::int64_t start = timed_ ? now_ns() : 0;
    bytes.append(data, static_cast<std::size_t>(n));
    if (timed_) write_ns += now_ns() - start;
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      xsputn(&c, 1);
    }
    return traits_type::not_eof(ch);
  }

 private:
  bool timed_;
};

/// Wall-clock stamps of one job, from the generator's own clock.
struct JobStamps {
  std::uint64_t ticket = 0;
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t accepted = 0;
  std::int64_t scheduled_seen = -1;
  std::int64_t completed_seen = -1;
  JobStatus final_status;
};

struct ObsTotals {
  std::uint64_t steals = 0;
  std::uint64_t deferred = 0;
  std::uint64_t epochs = 0;
  std::uint64_t epoch_ns = 0;
};

ObsTotals read_obs() {
  const obs::MetricsSnapshot snapshot = obs::Registry::global().snapshot();
  ObsTotals totals;
  if (const auto* value = snapshot.counter("service.steals")) totals.steals = *value;
  if (const auto* value = snapshot.counter("service.deferred")) totals.deferred = *value;
  if (const auto* epoch = snapshot.histogram("service.epoch_ns")) {
    totals.epochs = epoch->count;
    totals.epoch_ns = epoch->sum;
  }
  return totals;
}

struct Session {
  std::vector<JobStamps> jobs;
  std::int64_t setup_ns = 0;
  std::int64_t wall_ns = 0;
  ServiceStats stats;
  ShardPartition partition;
  std::string journal;  // traced sessions only
  std::size_t journal_bytes = 0;
  std::int64_t journal_write_ns = 0;
  ObsTotals obs;
  std::vector<double> poll_us;  // traced sessions only
};

ShardedConfig service_config(std::size_t shards, std::ostream* journal) {
  ShardedConfig config;
  config.policy = kPolicy;
  config.shards = shards;
  config.steal = true;
  config.admission.overload = OverloadPolicy::kDefer;
  config.journal = journal;
  return config;
}

/// CPU placement for a session.  The busy-polling generator gets one CPU
/// of its own and the service's workers, which inherit the affinity mask
/// in force when the service starts them, get the rest: otherwise the
/// scheduler sometimes parks a worker behind the generator.  For the open
/// loop, idle-priority spinners also keep the workers' CPUs from halting
/// between jobs -- the idle=poll setting of latency benchmarks -- so that
/// a worker's wake-up measures the program, not the hypervisor's idle
/// exit, whose cost moved serve-open's latencies by 2x between runs.  A
/// spinner yields at once to any runnable normal thread.  Needs at least
/// three CPUs; with fewer it leaves placement to the scheduler.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0 || CPU_COUNT(&all_) < 3) return;
    CPU_ZERO(&generator_);
    CPU_ZERO(&workers_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &all_)) continue;
      if (CPU_COUNT(&generator_) == 0) {
        CPU_SET(cpu, &generator_);
      } else {
        CPU_SET(cpu, &workers_);
      }
    }
    active_ = true;
  }
  ~CpuSplit() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& spinner : spinners_) spinner.join();
    if (active_) sched_setaffinity(0, sizeof all_, &all_);
  }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  /// Call before starting the service, then generator() after.
  void workers() {
    if (active_) sched_setaffinity(0, sizeof workers_, &workers_);
  }
  void generator() {
    if (active_) sched_setaffinity(0, sizeof generator_, &generator_);
  }
  /// Starts one idle-priority spinner per worker CPU until destruction.
  void spin_worker_cpus() {
    if (!active_) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &workers_)) continue;
      spinners_.emplace_back([this, cpu] {
        cpu_set_t mine;
        CPU_ZERO(&mine);
        CPU_SET(cpu, &mine);
        sched_param param{};
        if (sched_setaffinity(0, sizeof mine, &mine) != 0 ||
            sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
          return;  // never compete with the workers at normal priority
        }
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }

 private:
  bool active_ = false;
  cpu_set_t all_;
  cpu_set_t generator_;
  cpu_set_t workers_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

/// Runs one session: constructs the service, sends every job (on its due
/// time, or back to back), polls the outstanding tickets until each is
/// terminal, drains, and shuts down.
Session run_session(const Inputs& inputs, std::size_t shards, bool journal, Trace* trace) {
  const Cluster cluster(std::vector<std::uint32_t>(kTypes, kProcsPerType));
  std::vector<KDag> dags = inputs.dags;  // submit() consumes its job
  const std::size_t n = dags.size();
  const bool open_loop = !inputs.due_ns.empty();

  Session session;
  session.jobs.resize(n);
  std::vector<CallTotals> polls(trace != nullptr ? n : 0);
  JournalSink sink(trace != nullptr);
  std::ostream journal_stream(&sink);
  const ObsTotals obs_before = read_obs();

  CpuSplit cpus;
  if (open_loop) cpus.spin_worker_cpus();
  cpus.workers();
  const std::int64_t setup_start = now_ns();
  auto service = std::make_unique<ShardedService>(
      cluster, service_config(shards, journal ? &journal_stream : nullptr));
  session.setup_ns = now_ns() - setup_start;
  cpus.generator();

  const std::uint32_t session_name = trace ? trace->intern("gen.session") : 0;
  const std::uint32_t submit_name = trace ? trace->intern("shard.submit") : 0;
  const std::uint32_t poll_name = trace ? trace->intern("shard.poll") : 0;
  const std::uint32_t drain_name = trace ? trace->intern("shard.drain") : 0;

  std::vector<std::size_t> outstanding;
  // Polls every outstanding ticket once; a ticket that turned terminal
  // leaves the outstanding set.
  auto poll_pass = [&] {
    for (std::size_t slot = 0; slot < outstanding.size();) {
      const std::size_t index = outstanding[slot];
      JobStamps& stamps = session.jobs[index];
      const std::int64_t start = now_ns();
      const JobStatus status = service->poll(JobTicket{stamps.ticket});
      const std::int64_t end = now_ns();
      if (trace != nullptr) {
        polls[index].add(start, end);
        session.poll_us.push_back(ns_to_us(end - start));
      }
      if (status.state != JobState::kQueued && stamps.scheduled_seen < 0) {
        stamps.scheduled_seen = end;
      }
      if (status.state == JobState::kQueued || status.state == JobState::kScheduled) {
        ++slot;
        continue;
      }
      stamps.completed_seen = end;
      stamps.final_status = status;
      outstanding[slot] = outstanding.back();
      outstanding.pop_back();
    }
  };
  // Sends job `next`, due at steady-clock time `due`, and stamps it.
  auto send = [&](std::size_t next, std::int64_t due, std::uint32_t parent) {
    JobStamps& stamps = session.jobs[next];
    stamps.due = due;
    stamps.sent = now_ns();
    std::optional<JobTicket> ticket;
    {
      const Scope submit_span(trace, submit_name, parent, next);
      ticket = service->submit(std::move(dags[next]));
    }
    stamps.accepted = now_ns();
    if (ticket.has_value()) stamps.ticket = ticket->id;
  };

  std::uint32_t session_index = Span::kNoParent;
  {
    const Scope session_span(trace, session_name, Span::kNoParent);
    session_index = session_span.index();
    const std::int64_t start = now_ns();
    if (open_loop) {
      // One thread sends each job on its due time and, between sends,
      // polls the outstanding tickets every kPollIntervalNs, spinning on
      // the clock in between (it must send on time).
      std::size_t next = 0;
      std::int64_t next_pass = start;
      while (next < n || !outstanding.empty()) {
        const std::int64_t now = now_ns();
        if (next < n && now >= start + inputs.due_ns[next]) {
          send(next, start + inputs.due_ns[next], session_index);
          if (session.jobs[next].ticket != 0) outstanding.push_back(next);
          ++next;
        } else if (now >= next_pass) {
          poll_pass();
          next_pass = now + kPollIntervalNs;
        }
      }
    } else {
      // Back to back, every job due at the session start.  submit() blocks
      // while admission defers, so a second thread polls: a poll pass made
      // only between submits would stamp most completions when the last
      // submit returns.  The poller sleeps between passes.
      std::atomic<std::size_t> sent{0};
      std::jthread poller([&](const std::stop_token& stop) {
        std::size_t known = 0;
        while (!stop.stop_requested() && (known < n || !outstanding.empty())) {
          for (const std::size_t ready = sent.load(std::memory_order_acquire); known < ready;
               ++known) {
            if (session.jobs[known].ticket != 0) outstanding.push_back(known);
          }
          poll_pass();
          std::this_thread::sleep_for(std::chrono::nanoseconds(kBatchPollIntervalNs));
        }
      });
      for (std::size_t next = 0; next < n; ++next) {
        send(next, start, session_index);
        sent.store(next + 1, std::memory_order_release);
      }
      poller.join();
    }
    {
      const Scope drain_span(trace, drain_name, session_index);
      service->drain();
    }
    session.wall_ns = now_ns() - start;
  }
  if (trace != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      polls[i].flush(*trace, poll_name, session_index, session.jobs[i].ticket);
    }
  }
  session.stats = service->stats();
  session.partition = service->partition();
  service.reset();  // joins the workers: the sink is complete after this
  // Hand the session's freed memory back, so every session starts from
  // the same resident baseline and peak_rss_mb does not depend on how the
  // previous session's frees landed in the allocator's arenas.
  malloc_trim(0);
  const ObsTotals obs_after = read_obs();
  session.obs.steals = obs_after.steals - obs_before.steals;
  session.obs.deferred = obs_after.deferred - obs_before.deferred;
  session.obs.epochs = obs_after.epochs - obs_before.epochs;
  session.obs.epoch_ns = obs_after.epoch_ns - obs_before.epoch_ns;
  session.journal_bytes = sink.bytes.size();
  if (trace != nullptr) session.journal = std::move(sink.bytes);  // for the replay
  session.journal_write_ns = sink.write_ns;
  return session;
}

/// Output checks on a live session: every job was accepted and reached
/// kCompleted, and stats().completed equals the number submitted.
/// Returns the number of failed jobs.
std::uint64_t check_session(const Session& session, RunResult& result) {
  std::uint64_t failed = 0;
  for (const JobStamps& stamps : session.jobs) {
    if (stamps.ticket == 0 || stamps.final_status.state != JobState::kCompleted) ++failed;
  }
  result.check(failed == 0, std::to_string(failed) +
                                " jobs were rejected or did not reach kCompleted");
  result.check(session.stats.completed == session.jobs.size(),
               "stats().completed = " + std::to_string(session.stats.completed) +
                   ", submitted " + std::to_string(session.jobs.size()));
  return failed;
}

struct ShardReplay {
  std::vector<JobArrival> jobs;
  std::vector<std::uint64_t> tickets;
  MultiJobResult result;
  std::vector<std::int64_t> add_job_ns;  // fold order
};

/// Replays one shard's fold stream through MultiJobEngine exactly as
/// replay_journal does (advance to each new epoch, then fold), with the
/// stream policy and its dispatch context wrapped in timing decorators.
ShardReplay replay_shard(const std::vector<JournalEntry>& entries, const Cluster& slice,
                         std::size_t shard, Trace& trace) {
  const std::uint32_t root_name = trace.intern("harness.replay");
  const std::uint32_t add_name = trace.intern("multijob.add_job");
  const std::uint32_t admit_name = trace.intern("sched.stream_admit");
  const std::uint32_t advance_name = trace.intern("multijob.advance");
  const std::uint32_t dispatch_name = trace.intern("sched.stream_dispatch");
  const std::uint32_t ready_name = trace.intern("multijob.ready");
  const std::uint32_t assign_name = trace.intern("multijob.assign");

  ShardReplay replay;
  TimedStreamScheduler policy(make_stream_scheduler(kPolicy));
  MultiEngineOptions engine_options;
  engine_options.record_trace = true;

  const Scope root(&trace, root_name, Span::kNoParent, shard);
  MultiJobEngine engine(slice, policy, engine_options);
  auto advance = [&](auto&& call) {
    std::uint32_t index = 0;
    {
      const Scope span(&trace, advance_name, root.index(), shard);
      index = span.index();
      call();
    }
    const std::uint32_t dispatch = policy.dispatch_time.flush(trace, dispatch_name, index, shard);
    policy.ready_time.flush(trace, ready_name, dispatch, shard);
    policy.assign_time.flush(trace, assign_name, dispatch, shard);
  };
  for (const JournalEntry& entry : entries) {
    if (entry.cancel) throw std::logic_error("replay: unexpected cancel entry");
    if (entry.epoch > engine.now()) advance([&] { engine.advance_until(entry.epoch); });
    KDag dag = entry.dag;
    const Time arrival = entry.effective_arrival();
    std::uint32_t index = 0;
    {
      const Scope span(&trace, add_name, root.index(), entry.ticket);
      index = span.index();
      (void)engine.add_job(std::move(dag), arrival);
    }
    replay.add_job_ns.push_back(trace.spans()[index].total_ns);
    policy.admit_time.flush(trace, admit_name, index, entry.ticket);
    replay.tickets.push_back(entry.ticket);
    replay.jobs.push_back(JobArrival{entry.dag, arrival});
  }
  advance([&] { engine.run_to_completion(); });
  advance([&] { replay.result = engine.finish(); });
  return replay;
}

/// The fold streams of a session, per shard: from the journal, or --
/// with one shard and no journal -- from poll().folded_epoch in ticket
/// order (one submitter and one ring fold tickets in order).
std::vector<std::vector<JournalEntry>> fold_streams(const Session& session,
                                                    const Inputs& inputs) {
  if (!session.journal.empty()) {
    std::istringstream in(session.journal);
    const std::vector<JournalEntry> entries = read_journal(in);
    return split_journal_by_shard(entries);
  }
  std::vector<JournalEntry> entries;
  for (std::size_t i = 0; i < session.jobs.size(); ++i) {
    const JobStamps& stamps = session.jobs[i];
    entries.emplace_back(stamps.ticket, stamps.final_status.folded_epoch, inputs.dags[i]);
  }
  return {std::move(entries)};
}

void add_percentiles(RunResult& result, const std::string& name, std::vector<double> values,
                     const std::string& unit, bool with_p99 = true) {
  result.notes.push_back(name + " percentiles over " + std::to_string(values.size()) +
                         " samples");
  result.add(name + ".p50", quantile(values, 0.5), unit);
  if (with_p99) result.add(name + ".p99", quantile(values, 0.99), unit);
}

RunResult run_serve(const Options& options, std::size_t shards, bool journal) {
  RunResult result;
  // Session k draws its own jobs from mix_seed(seed, k), so a run averages
  // over several job sets; a traced run replays session 0's.
  const Inputs inputs = make_inputs(options.workload, mix_seed(options.seed, 0));
  const std::size_t n = inputs.dags.size();
  const Cluster cluster(std::vector<std::uint32_t>(kTypes, kProcsPerType));

  // Untraced sessions: the end-to-end measurement (and, in a traced run,
  // the overhead baseline).  An open-loop session lasts jobs / rate
  // seconds, so its count follows from --seconds; a back-to-back session
  // lasts as long as the service takes, so sessions repeat until the
  // time is up.
  const bool open_loop = !inputs.due_ns.empty();
  const auto open_sessions = static_cast<std::size_t>(std::max(
      1.0, std::floor(options.seconds * kOpenRatePerSecond / static_cast<double>(n) + 0.5)));
  std::vector<Session> sessions;
  std::uint64_t tasks = 0;
  std::vector<double> session_tasks_per_s;
  std::vector<double> setup_s;
  const std::int64_t run_start = now_ns();
  do {
    // Set-up: extra service constructions before every session, so the
    // median of setup_s spans the whole run.
    for (int r = 0; r < kSetupRepeats; ++r) {
      const std::int64_t start = now_ns();
      { const ShardedService service(cluster, service_config(shards, nullptr)); }
      setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    }
    const Inputs session_inputs =
        sessions.empty() ? inputs
                         : make_inputs(options.workload, mix_seed(options.seed, sessions.size()));
    sessions.push_back(run_session(session_inputs, shards, journal, nullptr));
    tasks += session_inputs.tasks;
    session_tasks_per_s.push_back(static_cast<double>(session_inputs.tasks) /
                                  (static_cast<double>(sessions.back().wall_ns) / 1e9));
    result.attempted += n;
    result.failed += check_session(sessions.back(), result);
    setup_s.push_back(static_cast<double>(sessions.back().setup_ns) / 1e9);
  } while (!options.trace &&
           (open_loop ? sessions.size() < open_sessions
                      : static_cast<double>(now_ns() - run_start) < options.seconds * 1e9));

  if (!options.trace) {
    // Each figure is a median over sessions of that session's own value:
    // a host stall that slows one session does not move it.
    std::vector<double> p50_ms;
    std::vector<double> p90_ms;
    std::vector<double> p99_ms;
    double flow_sum = 0.0;
    double completed = 0.0;
    for (const Session& session : sessions) {
      std::vector<double> e2e_ms;
      for (const JobStamps& stamps : session.jobs) {
        if (stamps.completed_seen >= 0) e2e_ms.push_back(ns_to_ms(stamps.completed_seen - stamps.due));
      }
      p50_ms.push_back(quantile(e2e_ms, 0.5));
      p90_ms.push_back(quantile(e2e_ms, 0.9));
      p99_ms.push_back(quantile(e2e_ms, 0.99));
      flow_sum += session.stats.mean_flow_time * static_cast<double>(session.stats.completed);
      completed += static_cast<double>(session.stats.completed);
      result.notes.push_back("session: " + std::to_string(ns_to_ms(session.wall_ns)) +
                             " ms wall, e2e p50 " + std::to_string(p50_ms.back()) + " ms, p90 " +
                             std::to_string(p90_ms.back()) + " ms and p99 " +
                             std::to_string(p99_ms.back()) + " ms over " +
                             std::to_string(e2e_ms.size()) + " jobs, mean flow " +
                             std::to_string(session.stats.mean_flow_time) + " ticks");
    }
    result.notes.push_back(options.workload + ": " + std::to_string(sessions.size()) +
                           " sessions of " + std::to_string(n) + " jobs, " +
                           std::to_string(tasks) + " tasks in all");
    result.notes.push_back("tasks_per_s, e2e_p50_ms, e2e_p90_ms: median over " +
                           std::to_string(sessions.size()) + " sessions");
    // The p99 follows the host's preemptions more than the program, so it
    // is printed but carries no bound.
    result.notes.push_back("e2e_p99_ms: " + std::to_string(median(p99_ms)) +
                           " ms, median over " + std::to_string(sessions.size()) + " sessions");
    result.add("tasks_per_s", median(session_tasks_per_s), "tasks/s");
    result.add("e2e_p50_ms", median(p50_ms), "ms");
    result.add("e2e_p90_ms", median(p90_ms), "ms");
    result.add("flow_mean_ticks", completed > 0.0 ? flow_sum / completed : 0.0, "ticks");
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return result;
  }

  // Traced session, then the replay of its fold streams.
  Trace trace;
  const Session traced = run_session(inputs, shards, journal, &trace);
  result.attempted += n;
  result.failed += check_session(traced, result);
  const auto streams = fold_streams(traced, inputs);
  const std::int64_t replay_start = now_ns();
  std::vector<ShardReplay> replays;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    replays.push_back(replay_shard(streams[s], traced.partition.shards.at(s), s, trace));
  }
  const std::int64_t replay_ns = now_ns() - replay_start;

  // Replay checks: every live flow time per ticket, and the schedule
  // checker on every shard's recorded trace.
  std::vector<std::int64_t> ticket_flow(n + 1, -1);
  std::uint64_t replayed = 0;
  for (std::size_t s = 0; s < replays.size(); ++s) {
    const ShardReplay& replay = replays[s];
    for (std::size_t j = 0; j < replay.tickets.size(); ++j) {
      if (replay.tickets[j] <= n) ticket_flow[replay.tickets[j]] = replay.result.flow_time[j];
    }
    replayed += replay.tickets.size();
    const auto violations = check_multijob_trace(replay.jobs, traced.partition.shards.at(s),
                                                 replay.result);
    result.check(violations.empty(), "shard " + std::to_string(s) + " replay: " +
                                         (violations.empty() ? "" : violations.front()));
  }
  std::uint64_t mismatches = 0;
  for (const JobStamps& stamps : traced.jobs) {
    if (stamps.ticket == 0 || stamps.ticket > n ||
        ticket_flow[stamps.ticket] != stamps.final_status.flow_time) {
      ++mismatches;
    }
  }
  result.check(replayed == n && mismatches == 0,
               "replay reproduces " + std::to_string(n - mismatches) + " of " +
                   std::to_string(n) + " live flow times");

  // Per-layer metrics.
  std::vector<double> add_us;
  std::vector<double> first_tenth;
  std::vector<double> last_tenth;
  for (const ShardReplay& replay : replays) {
    const std::size_t folds = replay.add_job_ns.size();
    for (std::size_t j = 0; j < folds; ++j) {
      const double us = ns_to_us(replay.add_job_ns[j]);
      add_us.push_back(us);
      if (j < folds / 10) first_tenth.push_back(us);
      if (j >= folds - folds / 10) last_tenth.push_back(us);
    }
  }
  auto mean = [](const std::vector<double>& values) {
    double sum = 0.0;
    for (const double value : values) sum += value;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  };
  add_percentiles(result, "multijob.add_job_us", add_us, "us");
  result.add("multijob.add_job_growth",
             mean(first_tenth) > 0.0 ? mean(last_tenth) / mean(first_tenth) : 0.0, "ratio");
  const NameTotals advance = trace.totals_of("multijob.advance");
  const NameTotals ready = trace.totals_of("multijob.ready");
  const NameTotals assign = trace.totals_of("multijob.assign");
  const NameTotals dispatch = trace.totals_of("sched.stream_dispatch");
  result.add("multijob.add_job_self_ms", ns_to_ms(trace.totals_of("multijob.add_job").self_ns), "ms");
  result.add("multijob.core_self_ms", ns_to_ms(advance.self_ns), "ms");
  result.add("multijob.ready_ms", ns_to_ms(ready.total_ns), "ms");
  result.add("multijob.ready_calls", static_cast<double>(ready.count), "count");
  result.add("multijob.assign_ms", ns_to_ms(assign.total_ns), "ms");
  result.add("multijob.assign_calls", static_cast<double>(assign.count), "count");
  result.add("sched.stream_admit_ms", ns_to_ms(trace.totals_of("sched.stream_admit").total_ns), "ms");
  result.add("sched.stream_dispatch_self_ms", ns_to_ms(dispatch.self_ns), "ms");
  result.add("sched.stream_dispatch_calls", static_cast<double>(dispatch.count), "count");

  std::vector<double> submit_us;
  for (const std::int64_t ns : trace.durations_of("shard.submit")) submit_us.push_back(ns_to_us(ns));
  add_percentiles(result, "shard.submit_us", submit_us, "us");
  const NameTotals polls = trace.totals_of("shard.poll");
  result.add("shard.submit_calls", static_cast<double>(submit_us.size()), "count");
  add_percentiles(result, "shard.poll_us", traced.poll_us, "us", /*with_p99=*/false);
  result.add("shard.poll_calls", static_cast<double>(polls.count), "count");
  result.add("shard.drain_ms", ns_to_ms(trace.totals_of("shard.drain").total_ns), "ms");
  std::vector<double> queued_ms;
  std::vector<double> run_ms;
  std::vector<double> late_ms;
  std::vector<double> e2e_ms;
  for (const JobStamps& stamps : traced.jobs) {
    if (stamps.completed_seen < 0) continue;
    queued_ms.push_back(ns_to_ms(stamps.scheduled_seen - stamps.accepted));
    run_ms.push_back(ns_to_ms(stamps.completed_seen - stamps.scheduled_seen));
    late_ms.push_back(ns_to_ms(stamps.sent - stamps.due));
    e2e_ms.push_back(ns_to_ms(stamps.completed_seen - stamps.due));
  }
  add_percentiles(result, "shard.queued_ms", queued_ms, "ms");
  add_percentiles(result, "shard.run_ms", run_ms, "ms");
  // The end-to-end tail beyond p90 follows the host's preemptions more
  // than the program: reported here, where no bound applies.
  result.notes.push_back("gen.e2e_ms.p99 over " + std::to_string(e2e_ms.size()) + " jobs");
  result.add("gen.e2e_ms.p99", quantile(e2e_ms, 0.99), "ms");

  result.add("service.epochs", static_cast<double>(traced.obs.epochs), "count");
  result.add("service.epoch_us.mean",
             traced.obs.epochs > 0 ? static_cast<double>(traced.obs.epoch_ns) /
                                         static_cast<double>(traced.obs.epochs) / 1e3
                                   : 0.0,
             "us");
  result.add("service.steals", static_cast<double>(traced.obs.steals), "count");
  result.add("service.deferred", static_cast<double>(traced.obs.deferred), "count");
  result.add("service.journal_bytes", static_cast<double>(traced.journal_bytes), "bytes");
  result.add("service.journal_write_ms", ns_to_ms(traced.journal_write_ns), "ms");

  result.notes.push_back("gen.late_ms over " + std::to_string(late_ms.size()) + " sends");
  result.add("gen.late_ms.p99", quantile(late_ms, 0.99), "ms");  // sorts late_ms
  result.add("gen.late_ms.max", late_ms.empty() ? 0.0 : late_ms.back(), "ms");
  const std::int64_t first_sent = traced.jobs.front().sent;
  const std::int64_t last_sent = traced.jobs.back().sent;
  result.add("gen.offered_per_s",
             last_sent > first_sent ? static_cast<double>(n - 1) /
                                          (static_cast<double>(last_sent - first_sent) / 1e9)
                                    : 0.0,
             "1/s");
  result.add("gen.self_ms", ns_to_ms(trace.totals_of("gen.session").self_ns), "ms");
  result.add("harness.self_ms", ns_to_ms(trace.totals_of("harness.replay").self_ns), "ms");
  result.add("workload.generate_ms", ns_to_ms(inputs.generate_ns), "ms");
  result.add("workload.generate_calls", static_cast<double>(n), "count");
  result.add("trace.overhead_frac",
             static_cast<double>(traced.wall_ns) / static_cast<double>(sessions.front().wall_ns) -
                 1.0,
             "frac");
  add_coverage(result, trace, traced.wall_ns + replay_ns);
  trace.write(options.trace_dir /
              (options.workload + "-seed" + std::to_string(options.seed) + ".jsonl"));
  return result;
}

}  // namespace

RunResult run_serve_backlog(const Options& options) {
  return run_serve(options, /*shards=*/1, /*journal=*/false);
}

RunResult run_serve_open(const Options& options) {
  return run_serve(options, /*shards=*/2, /*journal=*/true);
}

}  // namespace perfbench
