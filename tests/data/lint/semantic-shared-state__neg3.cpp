// fixture-path: src/sim/lane_stats.h
// fixture-expect: 0
// The annotated twin of pos4: the counter written from an event
// callback carries V10_SHARED_STATE, so its ownership contract is
// explicit.

class LaneStats
{
  public:
    void
    arm()
    {
        sim_.at(64, [this] { drained_ = drained_ + 1; });
    }

  private:
    Simulator sim_;
    long drained_ V10_SHARED_STATE = 0;
};
