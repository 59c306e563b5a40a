#include "sim/simulator.hpp"

#include <utility>

namespace ares::sim {
namespace {
thread_local Simulator* t_current = nullptr;
}

Simulator::Simulator(std::uint64_t seed) : rng_(seed) {
  prev_current_ = t_current;
  t_current = this;
}

Simulator::~Simulator() {
  if (t_current == this) t_current = prev_current_;
}

Simulator* Simulator::current() { return t_current; }

Simulator::ScopedCurrent::ScopedCurrent(Simulator& s) : prev_(t_current) {
  t_current = &s;
}

Simulator::ScopedCurrent::~ScopedCurrent() { t_current = prev_; }

void Simulator::post(std::function<void()> action) {
  queue_.push(now_, std::move(action));
}

void Simulator::schedule_after(SimDuration delay,
                               std::function<void()> action) {
  queue_.push(now_ + delay, std::move(action));
}

void Simulator::schedule_at(SimTime at, std::function<void()> action) {
  queue_.push(at < now_ ? now_ : at, std::move(action));
}

bool Simulator::execute_next() {
  if (queue_.empty()) return false;
  now_ = queue_.next_time();
  auto action = queue_.pop();
  ++executed_;
  action();
  return true;
}

bool Simulator::step() {
  const ScopedCurrent cur(*this);
  return execute_next();
}

std::size_t Simulator::run(std::size_t max_events) {
  const ScopedCurrent cur(*this);
  std::size_t n = 0;
  while (n < max_events && execute_next()) ++n;
  return n;
}

bool Simulator::run_until(const std::function<bool()>& done,
                          std::size_t max_events) {
  if (done()) return true;
  const ScopedCurrent cur(*this);
  std::size_t n = 0;
  while (n < max_events && execute_next()) {
    ++n;
    if (done()) return true;
  }
  return false;
}

void Simulator::run_for(SimDuration duration, std::size_t max_events) {
  const ScopedCurrent cur(*this);
  const SimTime deadline = now_ + duration;
  std::size_t n = 0;
  while (n < max_events && !queue_.empty() && queue_.next_time() <= deadline) {
    execute_next();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace ares::sim
