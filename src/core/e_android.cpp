#include "core/e_android.h"

namespace eandroid::core {

EAndroid::EAndroid(framework::SystemServer& server, Mode mode,
                   EngineConfig config)
    : tracker_(server),
      engine_(server, tracker_,
              [&] {
                if (mode == Mode::kFrameworkOnly) {
                  config.accounting_enabled = false;
                }
                return config;
              }()),
      interface_(server, engine_) {}

}  // namespace eandroid::core
