#include "net/runtime.hpp"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <ctime>
#include <limits>

namespace ares::net {

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

/// epoll data of the timerfd; watch ids start at 1.
constexpr std::uint64_t kTimerId = 0;

constexpr int kMaxEvents = 64;

/// The node whose lock the calling thread holds (see NodeRuntime::in_node).
thread_local const NodeRuntime* t_node = nullptr;

struct Inside {
  explicit Inside(const NodeRuntime* rt) : prev(t_node) { t_node = rt; }
  ~Inside() { t_node = prev; }
  const NodeRuntime* prev;
};

}  // namespace

NodeRuntime::NodeRuntime(std::uint64_t seed)
    : sim_(seed),
      epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      timer_fd_(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)),
      armed_at_(kNever) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTimerId;
  if (epoll_fd_ < 0 || timer_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) != 0) {
    throw std::runtime_error("net::NodeRuntime: epoll/timerfd setup failed");
  }
}

NodeRuntime::~NodeRuntime() {
  stop();
  ::close(timer_fd_);
  ::close(epoll_fd_);
}

SimTime NodeRuntime::unix_now_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<SimTime>(ts.tv_sec) * 1'000'000 +
         static_cast<SimTime>(ts.tv_nsec) / 1'000;
}

void NodeRuntime::pump_locked() {
  const SimTime wall = unix_now_us();
  sim_.run_for(wall > sim_.now() ? wall - sim_.now() : 0);
}

void NodeRuntime::arm_timer(SimTime at) {
  const SimTime now = unix_now_us();
  const SimDuration d = std::max<SimDuration>(at > now ? at - now : 0, 1);
  itimerspec its{};
  its.it_value.tv_sec = static_cast<time_t>(d / 1'000'000);
  its.it_value.tv_nsec = static_cast<long>(d % 1'000'000) * 1'000;
  ::timerfd_settime(timer_fd_, 0, &its, nullptr);
  armed_at_ = at;
}

bool NodeRuntime::settle_locked() {
  if (sim_.pending_events() > 0 && sim_.next_event_time() < armed_at_) {
    arm_timer(sim_.next_event_time());
  }
  return std::any_of(
      waiters_.begin(), waiters_.end(),
      [](const std::function<bool()>* pred) { return (*pred)(); });
}

void NodeRuntime::locked(const std::function<void()>& fn) {
  if (in_node()) {
    fn();
    return;
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    sim::Simulator::ScopedCurrent cur(sim_);
    const Inside in(this);
    fn();
    wake = settle_locked();
  }
  if (wake) cv_.notify_all();
}

void NodeRuntime::run(const std::function<void()>& fn) {
  locked([&] {
    pump_locked();
    fn();
    // Drain the resumptions and same-time sends fn just posted.
    sim_.run_for(0);
  });
}

bool NodeRuntime::in_node() const { return t_node == this; }

bool NodeRuntime::wait_until(const std::function<bool()>& pred,
                             SimDuration timeout_us) {
  std::unique_lock<std::mutex> lk(mu_);
  if (pred()) return true;
  waiters_.push_back(&pred);
  const bool ok =
      cv_.wait_for(lk, std::chrono::microseconds(timeout_us), pred);
  std::erase(waiters_, &pred);
  return ok;
}

void NodeRuntime::start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (loop_.joinable()) return;
  loop_stop_ = false;
  loop_ = std::thread(&NodeRuntime::loop, this);
}

void NodeRuntime::stop() {
  std::thread t;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!loop_.joinable()) return;
    loop_stop_ = true;
    arm_timer(0);  // wake the loop now
    t = std::move(loop_);
  }
  t.join();
}

std::uint64_t NodeRuntime::watch(int fd, IoHandler on_ready) {
  const std::uint64_t id = next_watch_++;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error("net::NodeRuntime: epoll_ctl add failed");
  }
  handlers_.emplace(id, std::make_shared<IoHandler>(std::move(on_ready)));
  return id;
}

void NodeRuntime::unwatch(std::uint64_t id, int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(id);
}

void NodeRuntime::loop() {
  std::unique_lock<std::mutex> lk(mu_);
  sim::Simulator::ScopedCurrent cur(sim_);
  const Inside in(this);  // this thread runs node code only under mu_
  std::array<epoll_event, kMaxEvents> evs{};
  int n = 0;
  for (;;) {
    // One turn: clock first (handlers stamp leases with now()), then every
    // ready fd, then the resumptions they posted and the timers that fell
    // due.
    pump_locked();
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = evs[static_cast<std::size_t>(i)];
      if (ev.data.u64 == kTimerId) {
        std::uint64_t expirations = 0;
        (void)!::read(timer_fd_, &expirations, sizeof(expirations));
        armed_at_ = kNever;
        continue;
      }
      auto it = handlers_.find(ev.data.u64);
      if (it == handlers_.end()) continue;  // unwatched earlier this turn
      const std::shared_ptr<IoHandler> h = it->second;
      (*h)(ev.events);
    }
    pump_locked();
    const bool wake = settle_locked();
    if (loop_stop_) return;
    lk.unlock();
    // Outside the lock, so the woken caller does not block on it.
    if (wake) cv_.notify_all();
    n = std::max(::epoll_wait(epoll_fd_, evs.data(), kMaxEvents, -1), 0);
    lk.lock();
  }
}

}  // namespace ares::net
