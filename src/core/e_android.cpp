#include "core/e_android.h"

namespace eandroid::core {

EAndroid::EAndroid(framework::SystemServer& server, Mode mode,
                   EngineConfig config)
    : mode_(mode),
      tracker_(server),
      engine_(server, tracker_, config),
      interface_(server, engine_) {}

void EAndroid::attach_to(energy::MeteringPipeline& pipeline) {
  if (mode_ == Mode::kComplete) engine_.attach_to(pipeline);
}

}  // namespace eandroid::core
