/**
 * @file
 * Virtual machine model.
 *
 * A VM contributes its vCPU set and guest software-path profile; its
 * storage attaches through one of three paths matching the paper's
 * comparison:
 *
 *   - VFIO: the guest NVMe driver binds directly to a native SSD's
 *     PCIe function (device monopolized, no sharing);
 *   - BM-Store: the guest NVMe driver binds to a BMS-Engine VF
 *     (standard driver, shared back end);
 *   - SPDK vhost: a virtio-blk front end feeds a host polling target.
 *
 * Guest memory is a window of host memory, so DMA into guest buffers
 * needs no extra translation layer in the model (posted interrupts
 * and vCPU costs come from the guest PlatformProfile).
 */

#ifndef BMS_VIRT_VM_HH
#define BMS_VIRT_VM_HH

#include <string>

#include "host/cpu.hh"
#include "host/platform_profile.hh"
#include "sim/simulator.hh"

namespace bms::virt {

/** Static shape of a VM (paper: 4 vCPUs / 4 GB). */
struct VmConfig
{
    int vcpus = 4;
    host::PlatformProfile profile = host::centos7Guest();
};

/** One guest. */
class VirtualMachine : public sim::SimObject
{
  public:
    using Config = VmConfig;

    VirtualMachine(sim::Simulator &sim, std::string name,
                   Config cfg = Config())
        : SimObject(sim, std::move(name)), _cfg(cfg), _vcpus(cfg.vcpus)
    {}

    host::CpuSet &vcpus() { return _vcpus; }
    const host::PlatformProfile &profile() const { return _cfg.profile; }
    const Config &config() const { return _cfg; }

  private:
    Config _cfg;
    host::CpuSet _vcpus;
};

} // namespace bms::virt

#endif // BMS_VIRT_VM_HH
