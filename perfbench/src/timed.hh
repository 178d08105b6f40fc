// Timing decorators for the traced replays.  Each wraps a policy (or the
// engine's dispatch context) through its public interface, forwards
// every call unchanged, and adds the wall time of the calls it times to
// a CallTotals.  The wrapped policy sees the same calls in the same
// order, so a decorated replay makes the same decisions as the run it
// replays -- which the output checks confirm.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>

#include "common.hh"
#include "multijob/multijob.hh"
#include "sim/scheduler.hh"

namespace perfbench {

/// Single-job dispatch context: ready() and assign() are timed together
/// (sim.ctx); the remaining queries are forwarded untimed and count as
/// the policy's own dispatch time.
class TimedContext final : public fhs::DispatchContext {
 public:
  TimedContext(fhs::DispatchContext& inner, CallTotals& ctx) : inner_(inner), ctx_(ctx) {}

  [[nodiscard]] fhs::ResourceType num_types() const noexcept override {
    return inner_.num_types();
  }
  [[nodiscard]] fhs::Time now() const noexcept override { return inner_.now(); }
  [[nodiscard]] std::uint32_t free_processors(fhs::ResourceType alpha) const override {
    return inner_.free_processors(alpha);
  }
  [[nodiscard]] std::uint32_t total_processors(fhs::ResourceType alpha) const override {
    return inner_.total_processors(alpha);
  }
  [[nodiscard]] fhs::ReadySpan ready(fhs::ResourceType alpha) const override {
    const std::int64_t start = now_ns();
    fhs::ReadySpan span = inner_.ready(alpha);
    ctx_.add(start, now_ns());
    return span;
  }
  [[nodiscard]] fhs::Work queue_work(fhs::ResourceType alpha) const override {
    return inner_.queue_work(alpha);
  }
  [[nodiscard]] fhs::Work remaining_work(fhs::TaskId task) const override {
    return inner_.remaining_work(task);
  }
  void assign(fhs::ResourceType alpha, std::size_t index) override {
    const std::int64_t start = now_ns();
    inner_.assign(alpha, index);
    ctx_.add(start, now_ns());
  }

 private:
  fhs::DispatchContext& inner_;
  CallTotals& ctx_;
};

/// Single-job policy decorator: times prepare() and every dispatch().
class TimedScheduler final : public fhs::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<fhs::Scheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void prepare(const fhs::KDag& dag, const fhs::Cluster& cluster) override {
    const std::int64_t start = now_ns();
    inner_->prepare(dag, cluster);
    prepare_time.add(start, now_ns());
  }
  void dispatch(fhs::DispatchContext& ctx) override {
    TimedContext timed(ctx, ctx_time);
    const std::int64_t start = now_ns();
    inner_->dispatch(timed);
    dispatch_time.add(start, now_ns());
  }

  CallTotals prepare_time;
  CallTotals dispatch_time;
  CallTotals ctx_time;

 private:
  std::unique_ptr<fhs::Scheduler> inner_;
};

/// Multi-job dispatch context: ready() and assign() timed separately.
class TimedMultiContext final : public fhs::MultiDispatchContext {
 public:
  TimedMultiContext(fhs::MultiDispatchContext& inner, CallTotals& ready, CallTotals& assign)
      : inner_(inner), ready_(ready), assign_(assign) {}

  [[nodiscard]] fhs::ResourceType num_types() const noexcept override {
    return inner_.num_types();
  }
  [[nodiscard]] fhs::Time now() const noexcept override { return inner_.now(); }
  [[nodiscard]] std::uint32_t free_processors(fhs::ResourceType alpha) const override {
    return inner_.free_processors(alpha);
  }
  [[nodiscard]] std::uint32_t total_processors(fhs::ResourceType alpha) const override {
    return inner_.total_processors(alpha);
  }
  [[nodiscard]] std::span<const fhs::GlobalTask> ready(fhs::ResourceType alpha) const override {
    const std::int64_t start = now_ns();
    const std::span<const fhs::GlobalTask> tasks = inner_.ready(alpha);
    ready_.add(start, now_ns());
    return tasks;
  }
  [[nodiscard]] fhs::Work task_work(fhs::GlobalTask id) const override {
    return inner_.task_work(id);
  }
  [[nodiscard]] fhs::Work queue_work(fhs::ResourceType alpha) const override {
    return inner_.queue_work(alpha);
  }
  [[nodiscard]] fhs::Work remaining_job_work(std::uint32_t job) const override {
    return inner_.remaining_job_work(job);
  }
  void assign(fhs::ResourceType alpha, std::size_t index) override {
    const std::int64_t start = now_ns();
    inner_.assign(alpha, index);
    assign_.add(start, now_ns());
  }

 private:
  fhs::MultiDispatchContext& inner_;
  CallTotals& ready_;
  CallTotals& assign_;
};

/// Stream policy decorator: times admit() and every dispatch().
class TimedStreamScheduler final : public fhs::MultiJobScheduler {
 public:
  explicit TimedStreamScheduler(std::unique_ptr<fhs::MultiJobScheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void prepare(const fhs::Cluster& cluster) override { inner_->prepare(cluster); }
  void admit(std::uint32_t job, const fhs::JobArrival& arrival) override {
    const std::int64_t start = now_ns();
    inner_->admit(job, arrival);
    admit_time.add(start, now_ns());
  }
  void dispatch(fhs::MultiDispatchContext& ctx) override {
    TimedMultiContext timed(ctx, ready_time, assign_time);
    const std::int64_t start = now_ns();
    inner_->dispatch(timed);
    dispatch_time.add(start, now_ns());
  }

  CallTotals admit_time;
  CallTotals dispatch_time;
  CallTotals ready_time;
  CallTotals assign_time;

 private:
  std::unique_ptr<fhs::MultiJobScheduler> inner_;
};

}  // namespace perfbench
