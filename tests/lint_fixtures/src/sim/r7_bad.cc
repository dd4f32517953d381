// R7 fixture (bad): writes to now_ outside advance(): a compound
// assignment, a plain assignment, and an increment inside a lambda in
// a function that only calls advance(). mclock_lint must exit 1 with
// [R7-clock-write].
#include <algorithm>
#include <cstdint>

using SimTime = std::uint64_t;

class Clock
{
  public:
    void chargeInline(SimTime t) { now_ += t; }

    void
    compute(SimTime target)
    {
        now_ = std::max(now_, target);
    }

    void
    tick()
    {
        advance(1);
        const auto bump = [this] { ++now_; };
        bump();
    }

  private:
    void advance(SimTime dt) { now_ += dt; }

    SimTime now_ = 0;
};
