// fixture-path: src/sim/lane_stats.h
// fixture-expect: 1
// An engine-side counter leaking unannotated mutable state: it is
// written from an event callback, so without a V10_SHARED_STATE or
// V10_DOMAIN_LOCAL annotation nothing states which simulation owns
// it.

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
    long drained_ = 0;
};
