/**
 * @file
 * PALcode software subpage-protection cost model.
 *
 * The prototype implements subpage valid bits in software by editing
 * the Alpha's PALcode: accesses to pages whose subpages are not all
 * valid trap, and the PALcode emulates the load or store after
 * checking the valid bits. The paper's Table 1 reports the measured
 * emulation costs; this model charges them during simulation when
 * software protection is selected (the default simulation mode is
 * TLB-based hardware support with zero overhead, as in the paper).
 */

#ifndef SGMS_PROTO_PALCODE_H
#define SGMS_PROTO_PALCODE_H

#include <cstdint>

#include "common/types.h"

namespace sgms
{

/** How accesses to resident subpages of incomplete pages trap. */
enum class ProtectionMode
{
    /** Per-subpage TLB valid bits; no overhead on valid accesses. */
    HardwareTlb,

    /** PALcode emulation of loads/stores on incomplete pages. */
    SoftwarePal,
};

/** Table 1 costs (DEC Alpha 250, 266 MHz). */
struct PalCosts
{
    Tick fast_load = ticks::from_ns(195);   ///< 52 cycles
    Tick slow_load = ticks::from_ns(361);   ///< 95 cycles
    Tick fast_store = ticks::from_ns(241);  ///< 64 cycles
    Tick slow_store = ticks::from_ns(383);  ///< 102 cycles
    Tick null_pal_call = ticks::from_ns(56); ///< 15 cycles
    Tick l1_hit = ticks::from_ns(11);       ///< 3 cycles
    Tick l2_hit = ticks::from_ns(30);       ///< 8 cycles
    Tick l2_miss = ticks::from_ns(315);     ///< 84 cycles

    static PalCosts alpha250() { return PalCosts{}; }
};

/**
 * Stateful emulation-cost model: an access is "fast" when the
 * PALcode's cached valid bits are for the same page as the previous
 * emulated access, "slow" otherwise.
 */
class PalEmulator
{
  public:
    explicit PalEmulator(PalCosts costs = PalCosts::alpha250())
        : costs_(costs)
    {}

    /**
     * Cost of emulating an access to a valid subpage of an
     * incomplete page.
     */
    Tick
    access_cost(PageId page, bool write)
    {
        bool fast = page == last_page_;
        last_page_ = page;
        ++(fast ? fast_ : slow_);
        if (write)
            return fast ? costs_.fast_store : costs_.slow_store;
        return fast ? costs_.fast_load : costs_.slow_load;
    }

    /** A page completed; drop the cached-valid-bits affinity. */
    void
    page_completed(PageId page)
    {
        if (last_page_ == page)
            last_page_ = NO_PAGE;
    }

    /**
     * Emulated accesses served with the PALcode's cached valid bits
     * (the Table 1 "fast" case), published as tlb.emulation_hits.
     */
    uint64_t fast() const { return fast_; }
    /** The "slow" case, published as tlb.emulation_misses. */
    uint64_t slow() const { return slow_; }
    uint64_t emulated() const { return fast_ + slow_; }

    const PalCosts &costs() const { return costs_; }

  private:
    static constexpr PageId NO_PAGE = ~0ULL;

    PalCosts costs_;
    PageId last_page_ = NO_PAGE;
    uint64_t fast_ = 0;
    uint64_t slow_ = 0;
};

} // namespace sgms

#endif // SGMS_PROTO_PALCODE_H
