#include "trace/synthetic.h"

#include <algorithm>

#include "common/logging.h"

namespace sgms
{

namespace
{

/**
 * Scatter a Zipf rank over [0, @p n) with Knuth's multiplicative
 * hash, so popularity is not correlated with position.
 */
uint64_t
scatter(uint64_t rank, uint64_t n)
{
    return (rank * 2654435761ULL) % n;
}

/**
 * A Zipf table over [0, @p n) whose cells hold scattered ranks: one
 * table read per draw, and no division.
 */
ZipfTable
scattered_zipf(uint64_t n, double skew)
{
    return ZipfTable(n, skew).mapped(
        [n](uint64_t rank) { return scatter(rank, n); });
}

} // namespace

uint64_t
WorkloadSpec::total_refs() const
{
    uint64_t total = 0;
    for (const auto &ph : phases)
        total += ph.refs;
    return total;
}

uint64_t
WorkloadSpec::page_span() const
{
    uint64_t hi = hot_pages;
    for (const auto &ph : phases)
        hi = std::max(hi, ph.page_hi);
    return hi;
}

SyntheticTrace::SyntheticTrace(WorkloadSpec spec, uint64_t seed)
    : spec_(std::move(spec)), seed_(seed), rng_(seed)
{
    if (!is_pow2(spec_.page_size))
        fatal("workload '%s': page size must be a power of two",
              spec_.name.c_str());
    for (const auto &ph : spec_.phases) {
        if (ph.page_hi < ph.page_lo)
            fatal("workload '%s': malformed phase region",
                  spec_.name.c_str());
        if (ph.kind != PhaseSpec::Kind::Compute &&
            ph.page_hi == ph.page_lo && ph.refs) {
            fatal("workload '%s': scan phase over empty region",
                  spec_.name.c_str());
        }
    }

    if (spec_.hot_pages > 0) {
        hot_table_ = scattered_zipf(
            spec_.hot_pages * (spec_.page_size / 64),
            spec_.hot_zipf_skew);
    }
    phase_tables_.resize(spec_.phases.size());
    for (size_t i = 0; i < spec_.phases.size(); ++i) {
        const auto &ph = spec_.phases[i];
        if (ph.kind == PhaseSpec::Kind::Compute &&
            ph.page_hi > ph.page_lo) {
            phase_tables_[i] =
                scattered_zipf(ph.page_hi - ph.page_lo, ph.zipf_skew);
        }
    }

    reset();
}

void
SyntheticTrace::reset()
{
    rng_.reseed(seed_);
    phase_idx_ = 0;
    phase_left_ = 0;
    if (!spec_.phases.empty())
        enter_phase(0);
}

void
SyntheticTrace::enter_phase(size_t idx)
{
    phase_idx_ = idx;
    const PhaseSpec &ph = spec_.phases[idx];
    phase_left_ = ph.refs;
    scan_addr_ = ph.page_lo * spec_.page_size;
    sparse_page_ = ph.page_lo;
    sparse_touch_ = 0;
}

Addr
SyntheticTrace::pattern_addr(const PhaseSpec &ph)
{
    const uint64_t psize = spec_.page_size;
    switch (ph.kind) {
      case PhaseSpec::Kind::DenseScan: {
        Addr a = scan_addr_;
        scan_addr_ += ph.stride;
        if (scan_addr_ >= ph.page_hi * psize)
            scan_addr_ = ph.page_lo * psize; // wrap: next pass
        return a;
      }
      case PhaseSpec::Kind::SweepScan: {
        uint32_t touches = std::max<uint32_t>(ph.sweep_touches, 1);
        uint32_t per_visit =
            touches + (ph.sweep_record_bytes ? 1 : 0);
        Addr a;
        if (sparse_touch_ < touches) {
            // The page size is a power of two (checked at
            // construction), so the mask is the modulus.
            uint64_t offset =
                ((static_cast<uint64_t>(ph.sweep_pass) * touches +
                  sparse_touch_) *
                 ph.sweep_step) &
                (psize - 1);
            if (ph.sweep_jitter)
                offset += rng_.below(ph.sweep_jitter);
            if (offset >= psize)
                offset = psize - 1;
            sweep_last_offset_ = offset;
            a = sparse_page_ * psize + offset;
        } else {
            // Record tail: may cross into the next subpage.
            uint64_t offset =
                sweep_last_offset_ + ph.sweep_record_bytes;
            if (offset >= psize)
                offset = psize - 1;
            a = sparse_page_ * psize + offset;
        }
        if (++sparse_touch_ >= per_visit) {
            sparse_touch_ = 0;
            if (++sparse_page_ >= ph.page_hi)
                sparse_page_ = ph.page_lo; // wrap: next pass
        }
        return a;
      }
      case PhaseSpec::Kind::SparseScan: {
        Addr a = sparse_page_ * psize + rng_.below(psize);
        if (++sparse_touch_ >= ph.touches_per_page) {
            sparse_touch_ = 0;
            if (++sparse_page_ >= ph.page_hi)
                sparse_page_ = ph.page_lo; // wrap: next pass
        }
        return a;
      }
      case PhaseSpec::Kind::Compute: {
        if (ph.page_hi == ph.page_lo)
            return hot_addr();
        uint64_t page =
            ph.page_lo + phase_tables_[phase_idx_].sample(rng_);
        return page * psize + rng_.below(psize);
      }
    }
    panic("unreachable phase kind");
}

Addr
SyntheticTrace::hot_addr()
{
    // Popularity is scattered across the hot pages so every hot page
    // stays recently used. Only a Compute phase over an empty region
    // of a spec with no hot pages lacks the table; it draws over one
    // page's lines.
    uint64_t line;
    if (hot_table_.valid()) {
        line = hot_table_.sample(rng_);
    } else {
        uint64_t lines = spec_.page_size / 64;
        line = scatter(rng_.zipf(lines, spec_.hot_zipf_skew), lines);
    }
    return line * 64 + rng_.below(64);
}

bool
SyntheticTrace::generate(TraceEvent &ev)
{
    while (phase_left_ == 0) {
        if (phase_idx_ + 1 >= spec_.phases.size())
            return false;
        enter_phase(phase_idx_ + 1);
    }
    --phase_left_;

    const PhaseSpec &ph = spec_.phases[phase_idx_];
    bool hot = spec_.hot_pages > 0 && rng_.chance(ph.hot_frac);
    if (hot) {
        ev.addr = hot_addr();
    } else {
        ev.addr = pattern_addr(ph);
    }
    ev.write = rng_.chance(ph.write_frac);
    return true;
}

bool
SyntheticTrace::next(TraceEvent &ev)
{
    return generate(ev);
}

size_t
SyntheticTrace::next_batch(TraceEvent *out, size_t n)
{
    size_t got = 0;
    while (got < n && generate(out[got]))
        ++got;
    return got;
}

} // namespace sgms
