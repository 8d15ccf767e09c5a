#pragma once

// Resource-limit faults for the suites that test a refusing disk or a
// descriptor shortage, in-tree and without root: the test lowers its own
// soft limit around a job and restores it after.

#include <sys/resource.h>

namespace ddp {

/// Lowers one of the process's soft resource limits while in scope. Forked
/// workers inherit it. Under a lowered RLIMIT_FSIZE, ignore SIGXFSZ so a
/// write past the limit fails with EFBIG instead of killing the process.
class SoftLimit {
 public:
  SoftLimit(int resource, rlim_t soft) : resource_(resource) {
    ok_ = ::getrlimit(resource_, &saved_) == 0;
    struct rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    ok_ = ok_ && ::setrlimit(resource_, &lowered) == 0;
  }
  ~SoftLimit() {
    if (ok_) ::setrlimit(resource_, &saved_);
  }

  SoftLimit(const SoftLimit&) = delete;
  SoftLimit& operator=(const SoftLimit&) = delete;

  bool ok() const { return ok_; }

 private:
  const int resource_;
  struct rlimit saved_ {};
  bool ok_ = false;
};

}  // namespace ddp
