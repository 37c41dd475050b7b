/**
 * @file
 * Front-end PF/VF — one of the 128 standard NVMe controllers the
 * BMS-Engine's SR-IOV layer exposes to the host (paper Fig. 3 module
 * 1). The host's stock NVMe driver binds to these functions exactly
 * as it would to a physical SSD: that is BM-Store's transparency.
 *
 * All protocol handling is inherited from nvme::ControllerModel; I/O
 * commands are handed to the Target Controller by handle.
 */

#ifndef BMS_CORE_ENGINE_FRONT_FUNCTION_HH
#define BMS_CORE_ENGINE_FRONT_FUNCTION_HH

#include <utility>

#include "core/engine/target_controller.hh"
#include "nvme/controller.hh"

namespace bms::core {

/** One front-end NVMe function (PF or VF). */
class FrontFunction : public nvme::ControllerModel
{
  public:
    FrontFunction(sim::Simulator &sim, std::string name, Config cfg,
                  bool is_pf, TargetController &target)
        : ControllerModel(sim, std::move(name), cfg),
          _isPf(is_pf),
          _target(target)
    {}

    bool isPf() const { return _isPf; }

  protected:
    void executeIo(Handle h) override { _target.handleIo(*this, h); }

  private:
    bool _isPf;
    TargetController &_target;
};

} // namespace bms::core

#endif // BMS_CORE_ENGINE_FRONT_FUNCTION_HH
