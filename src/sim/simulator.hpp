// The simulation kernel: a virtual clock plus the deterministic event loop.
// Every process, network hop and coroutine resumption in the system is an
// event on this queue.
#pragma once

#include "common/random.hpp"
#include "common/types.hpp"
#include "sim/event_queue.hpp"

#include <cstdint>
#include <functional>

namespace ares::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The simulator whose step()/run*() call is executing on this thread,
  /// else the one most recently constructed here. Coroutine promises post
  /// resumptions to it, so with several simulators alive in one thread an
  /// event's resumptions stay on the queue that ran the event.
  [[nodiscard]] static Simulator* current();

  /// RAII: makes `s` the thread's current() for the scope. The socket
  /// backend dispatches protocol handlers on threads that did not
  /// construct the node's Simulator; the guard routes their coroutine
  /// resumptions into the right event queue. Single-threaded sim runs
  /// never need it.
  class ScopedCurrent {
   public:
    explicit ScopedCurrent(Simulator& s);
    ~ScopedCurrent();
    ScopedCurrent(const ScopedCurrent&) = delete;
    ScopedCurrent& operator=(const ScopedCurrent&) = delete;

   private:
    Simulator* prev_;
  };

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Run `action` at the current time, after already-queued same-time events.
  void post(std::function<void()> action);

  /// Run `action` `delay` time units from now.
  void schedule_after(SimDuration delay, std::function<void()> action);

  /// Run `action` at absolute time `at` (clamped to now if in the past).
  void schedule_at(SimTime at, std::function<void()> action);

  /// Execute the single earliest event. Returns false if queue empty.
  bool step();

  /// Run until the queue drains or `max_events` fire. Returns events run.
  std::size_t run(std::size_t max_events = kDefaultEventBudget);

  /// Run until `done()` returns true (checked after every event), the queue
  /// drains, or the budget is hit. Returns true iff `done()` held.
  bool run_until(const std::function<bool()>& done,
                 std::size_t max_events = kDefaultEventBudget);

  /// Run all events with timestamp <= now() + duration.
  void run_for(SimDuration duration,
               std::size_t max_events = kDefaultEventBudget);

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Timestamp of the earliest pending event (the socket backend's timer
  /// pump sleeps until then). Requires pending_events() > 0.
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }
  [[nodiscard]] std::size_t events_executed() const { return executed_; }

  static constexpr std::size_t kDefaultEventBudget = 50'000'000;

 private:
  /// step() without making this simulator current(); the public entry
  /// points do that once per call.
  bool execute_next();

  EventQueue queue_;
  SimTime now_ = 0;
  Rng rng_;
  std::size_t executed_ = 0;
  Simulator* prev_current_ = nullptr;
};

}  // namespace ares::sim
