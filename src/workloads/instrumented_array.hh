/**
 * @file
 * An array whose element accesses flow through the simulator.
 *
 * Workload code (graph kernels, the KV store) stores real data in host
 * memory but issues a simulated memory access for every element it
 * touches, so the simulated machine observes the workload's true access
 * pattern at the right virtual addresses. This is the moral equivalent
 * of running the benchmark binary on the instrumented kernel.
 */

#ifndef MCLOCK_WORKLOADS_INSTRUMENTED_ARRAY_HH_
#define MCLOCK_WORKLOADS_INSTRUMENTED_ARRAY_HH_

#include <string>
#include <utility>

#include "base/default_init_vector.hh"
#include "base/logging.hh"
#include "base/types.hh"
#include "sim/simulator.hh"

namespace mclock {
namespace workloads {

/** Fixed-size array of T backed by a simulated memory region. */
template <typename T>
class InstrumentedArray
{
  public:
    /**
     * The host copy's type: filled by whoever builds it (a moved-in
     * vector is never zero-filled first).
     */
    using Host = base::DefaultInitVector<T>;

    InstrumentedArray() = default;

    /** Allocate @p n zero-filled elements in @p sim's address space. */
    InstrumentedArray(sim::Simulator &sim, std::size_t n,
                      const std::string &name)
    {
        allocate(sim, n, name);
    }

    /** Allocate @p n zero-filled elements in @p sim's address space. */
    void
    allocate(sim::Simulator &sim, std::size_t n, const std::string &name)
    {
        allocate(sim, Host(n, T{}), name);
    }

    /**
     * Adopt @p data as the host copy, without copying it, and map a
     * region of its size. An empty array is allocated but maps nothing.
     */
    void
    allocate(sim::Simulator &sim, Host data, const std::string &name)
    {
        MCLOCK_ASSERT(sim_ == nullptr);
        sim_ = &sim;
        data_ = std::move(data);
        if (!data_.empty())
            base_ = sim.mmap(data_.size() * sizeof(T), /*anon=*/true, name);
    }

    /** Release the simulated region (host copy is freed too). */
    void
    release()
    {
        if (sim_) {
            if (!data_.empty())
                sim_->unmapRegion(base_);
            sim_ = nullptr;
            Host().swap(data_);
        }
    }

    ~InstrumentedArray()
    {
        release();
    }

    InstrumentedArray(const InstrumentedArray &) = delete;
    InstrumentedArray &operator=(const InstrumentedArray &) = delete;

    std::size_t size() const { return data_.size(); }
    bool allocated() const { return sim_ != nullptr; }

    /** Simulated load of element @p i. */
    T
    get(std::size_t i)
    {
        sim_->read(addrOf(i), sizeof(T));
        return data_[i];
    }

    /** Simulated store of element @p i. */
    void
    set(std::size_t i, const T &v)
    {
        sim_->write(addrOf(i), sizeof(T));
        data_[i] = v;
    }

    /** Read-modify-write convenience (one load + one store). */
    template <typename Fn>
    void
    update(std::size_t i, Fn &&fn)
    {
        sim_->read(addrOf(i), sizeof(T));
        data_[i] = fn(data_[i]);
        sim_->write(addrOf(i), sizeof(T));
    }

    /**
     * Sequential first-touch sweep: one simulated store per 64 B line.
     * Used after filling host data (poke() or a moved-in vector) to
     * materialise the region's pages in allocation order (the load
     * phase of a benchmark).
     */
    void
    streamInit()
    {
        const std::size_t bytes = data_.size() * sizeof(T);
        for (std::size_t off = 0; off < bytes; off += 64)
            sim_->write(base_ + off, 8);
    }

    /**
     * Host-side peek without a simulated access. Use only for result
     * verification, never inside the measured kernel.
     */
    const T &peek(std::size_t i) const { return data_[i]; }

    /** Host-side poke without a simulated access (initialisation). */
    void poke(std::size_t i, const T &v) { data_[i] = v; }

  private:
    Vaddr
    addrOf(std::size_t i) const
    {
        MCLOCK_ASSERT(i < data_.size());
        return base_ + i * sizeof(T);
    }

    sim::Simulator *sim_ = nullptr;
    Host data_;
    Vaddr base_ = 0;
};

}  // namespace workloads
}  // namespace mclock

#endif  // MCLOCK_WORKLOADS_INSTRUMENTED_ARRAY_HH_
