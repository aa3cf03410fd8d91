/**
 * @file
 * In-memory span recorder for the benchmark's traced run. Each span
 * is one call the benchmark makes into a simulator layer: its name
 * is "<layer>.<what>", it has host start/end times (seconds since
 * the recorder was created), the span that was open when it started
 * as its parent, and optional counts measured at that boundary.
 * Nothing is written until writeJsonl() at the end of the run.
 */

#ifndef V10_PERFBENCH_SPAN_RECORDER_H
#define V10_PERFBENCH_SPAN_RECORDER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace v10bench {

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        std::map<std::string, double> counts;
    };

    /** Closes its span when destroyed; a no-op without a recorder. */
    class Scope
    {
      public:
        Scope() = default;
        Scope(SpanRecorder *rec, int id) : rec_(rec), id_(id) {}
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Scope(Scope &&other) noexcept
            : rec_(std::exchange(other.rec_, nullptr)), id_(other.id_)
        {
        }
        Scope &operator=(Scope &&) = delete;
        ~Scope() { close(); }

        void
        close()
        {
            if (rec_ != nullptr)
                rec_->closeSpan(id_);
            rec_ = nullptr;
        }

        /** Rename the span, e.g. once it is known whether a cache
         * lookup compiled or hit. */
        void
        rename(std::string name)
        {
            if (rec_ != nullptr)
                rec_->spans_[static_cast<std::size_t>(id_)].name =
                    std::move(name);
        }

      private:
        SpanRecorder *rec_ = nullptr;
        int id_ = -1;
    };

    SpanRecorder() : t0_(Clock::now()) {}

    /** Open a child of the innermost open span. */
    Scope
    open(std::string name)
    {
        Span s;
        s.name = std::move(name);
        s.parent = current_;
        s.start = elapsed();
        spans_.push_back(std::move(s));
        current_ = static_cast<int>(spans_.size()) - 1;
        return Scope(this, current_);
    }

    /** Add @p value to count @p name on the innermost open span. */
    void
    count(const std::string &name, double value)
    {
        if (current_ >= 0)
            spans_[static_cast<std::size_t>(current_)].counts[name] +=
                value;
    }

    /** One JSON object per span: id, name, start, end, parent,
     * counts. */
    void
    writeJsonl(std::ostream &os) const
    {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            v10::JsonWriter w(os, 0);
            w.beginObject();
            w.kv("id", static_cast<std::int64_t>(i));
            w.kv("name", s.name);
            w.kv("start", s.start);
            w.kv("end", s.end);
            w.kv("parent", static_cast<std::int64_t>(s.parent));
            w.key("counts");
            w.beginObject();
            for (const auto &[k, v] : s.counts)
                w.kv(k, v);
            w.endObject();
            w.endObject();
            os << '\n';
        }
    }

  private:
    using Clock = std::chrono::steady_clock;

    double
    elapsed() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_)
            .count();
    }

    void
    closeSpan(int id)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.end = elapsed();
        current_ = s.parent;
    }

    Clock::time_point t0_;
    std::vector<Span> spans_;
    int current_ = -1;
};

} // namespace v10bench

#endif // V10_PERFBENCH_SPAN_RECORDER_H
