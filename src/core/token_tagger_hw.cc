// CompiledTagger's two hardware forwarders, kept only for perfbench. They
// live in their own object file: a binary that never calls them links no
// hwgen or rtl code out of the static archives.

#include "core/hardware_design.h"
#include "core/token_tagger.h"

namespace cfgtag::core {

StatusOr<const HardwareDesign*> CompiledTagger::Design() const {
  if (loaded_from_artifact()) {
    return FailedPreconditionError(
        "tagger was loaded from an artifact (software engine only); build "
        "a HardwareDesign from the grammar for netlist operations");
  }
  HardwareSlot& slot = *hardware_;
  std::call_once(slot.once, [&] {
    auto design = HardwareDesign::Create(*grammar_, options_);
    if (!design.ok()) {
      slot.status = design.status();
      return;
    }
    slot.design =
        std::make_shared<const HardwareDesign>(std::move(design).value());
  });
  if (!slot.status.ok()) return slot.status;
  return slot.design.get();
}

StatusOr<ImplementationReport> CompiledTagger::Implement(
    const rtl::Device& device, bool optimize) const {
  CFGTAG_ASSIGN_OR_RETURN(const HardwareDesign* design, Design());
  return design->Implement(device, optimize);
}

StatusOr<std::vector<tagger::Tag>> CompiledTagger::TagCycleAccurate(
    std::string_view input) const {
  CFGTAG_ASSIGN_OR_RETURN(const HardwareDesign* design, Design());
  return design->TagCycleAccurate(input);
}

}  // namespace cfgtag::core
