// R7 fixture (good): simulated time moves only inside advance(), in
// either brace style. Reads and comparisons of now_ are fine, and so
// are the words `now_ += lat` in this comment or in a string literal
// (whose braces open no block) and a declaration's initialiser.
// mclock_lint must exit 0.
#include <algorithm>
#include <cstdint>

using SimTime = std::uint64_t;

class Clock
{
  public:
    SimTime now() const { return now_; }

    void
    compute(SimTime duration, SimTime due)
    {
        const SimTime target = now_ + duration;
        if (due <= target && now_ != due)
            advance(std::max(now_, due) - now_);
        advance(std::max(now_, target) - now_);
    }

    void charge(SimTime t) { advance(t); }

    const char *
    describe() const
    {
        return "} now_ += dt; {";
    }

  private:
    void advance(SimTime dt) { now_ += dt; }

    void
    advanceTwice(SimTime dt)
    {
        advance(dt);
        advance(dt);
    }

    SimTime now_ = 0;
};

class Stepper
{
    void
    advance(SimTime dt)
    {
        now_ = now_ + dt;
    }

    SimTime now_{0};
};
