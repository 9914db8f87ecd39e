/**
 * @file
 * A stage sink that logs completions, for driving a StageResource on
 * its own: a stage item carries no callback, so a test observes it
 * through the sink the resource calls (StageResource<StageLog>, which
 * `StageResource res(eq, log, ...)` deduces).
 */

#ifndef SGMS_TESTS_STAGE_LOG_H
#define SGMS_TESTS_STAGE_LOG_H

#include <cstdint>
#include <utility>
#include <vector>

#include "net/resource.h"

namespace sgms::test
{

/** Every completion a StageResource reported, in order. */
class StageLog
{
  public:
    struct Done
    {
        uint32_t slot;
        uint8_t stage;
        Tick start;
        Tick end;
    };

    void
    stage_done(uint32_t slot, uint8_t stage, Tick start, Tick end)
    {
        done.push_back({slot, stage, start, end});
    }

    /** Slots in completion order. */
    std::vector<uint32_t>
    slots() const
    {
        std::vector<uint32_t> out;
        for (const Done &d : done)
            out.push_back(d.slot);
        return out;
    }

    /** (slot, end) in completion order. */
    std::vector<std::pair<uint32_t, Tick>>
    ends() const
    {
        std::vector<std::pair<uint32_t, Tick>> out;
        for (const Done &d : done)
            out.emplace_back(d.slot, d.end);
        return out;
    }

    std::vector<Done> done;
};

} // namespace sgms::test

#endif // SGMS_TESTS_STAGE_LOG_H
