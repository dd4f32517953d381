/**
 * @file
 * Host-speed calibration for the end-to-end host times.
 *
 * The reference host is a virtual machine on a shared physical
 * machine. Its cores' L2 and L3 are shared with other tenants, and
 * their traffic changes the speed of the same code by up to 2x from
 * one second to the next. Calibration times a fixed kernel between
 * the benchmark's repetitions: a dependent random walk over a 2 MiB
 * (L2-sized) and an 8 MiB (L3-resident) buffer, on as many threads as
 * the workload uses. The kernel is benchmark code, so a change to the
 * simulator cannot move it; it moves only with the host. A process's
 * host times are then scaled by kReferenceS / (the mean of its kernel
 * times), which states them in seconds of a host that runs the kernel
 * in kReferenceS.
 */

#ifndef PERFBENCH_CALIBRATION_HH_
#define PERFBENCH_CALIBRATION_HH_

#include <cstdint>
#include <vector>

namespace perfbench {

class Calibration
{
  public:
    /**
     * Kernel time on the reference host when it is quiet (a 4-CPU
     * Intel Xeon virtual machine; see README "Noise").
     */
    static constexpr double kReferenceS = 0.035;

    /** Build the walk buffers; measure() runs on @p width threads. */
    explicit Calibration(unsigned width);

    /** Host seconds of one run of the kernel (wall, all threads). */
    double measureS() const;

  private:
    unsigned width_;
    std::vector<std::uint32_t> l2_;
    std::vector<std::uint32_t> l3_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_HH_
