// Figure 5: attack-lifecycle state machines.
//
// Exercises each of the five machines with a canonical event sequence and
// prints every window open and close with the framework event that caused
// it, so the Fig 5 transitions can be read off directly.
#include <cstdint>
#include <cstdio>
#include <map>

#include "apps/demo_app.h"
#include "apps/malware.h"
#include "apps/testbed.h"

namespace {

using namespace eandroid;
using apps::DemoApp;
using apps::Testbed;

/// Prints `title`, then every window that opens or closes on `bed` from
/// here on: a bus listener subscribed after the tracker diffs
/// open_windows() on each framework event and names that event as the
/// cause.
void trace_windows(Testbed& bed, const char* title) {
  std::printf("--- %s ---\n", title);
  bed.server().events().subscribe(
      [&bed, seen = std::map<std::uint64_t, core::Window>{}](
          const framework::FwEvent& event) mutable {
        const auto print = [&](const char* what, const core::Window& w) {
          std::printf("  [%s] %-5s %-9s driver=uid%d driven=uid%d  (%s)\n",
                      sim::format_time(bed.sim().now()).c_str(), what,
                      core::to_string(w.kind), w.driver.value, w.driven.value,
                      framework::to_string(event.type));
        };
        const auto& open = bed.eandroid()->tracker().open_windows();
        for (auto it = seen.begin(); it != seen.end();) {
          if (open.contains(it->first)) {
            ++it;
            continue;
          }
          print("close", it->second);
          it = seen.erase(it);
        }
        std::map<std::uint64_t, core::Window> opened;
        for (const auto& [id, w] : open) {
          if (!seen.contains(id)) opened.emplace(id, w);
        }
        for (const auto& [id, w] : opened) print("open", w);
        seen.merge(opened);
      });
}

}  // namespace

int main() {
  using framework::BrightnessMode;
  using framework::Intent;
  using framework::WakelockType;

  std::printf("=== Figure 5: attack lifecycle traces ===\n\n");

  {  // (a) Activity: start by another app; ends when started again.
    Testbed bed;
    trace_windows(bed, "(a) activity: cross-app start ... user restart");
    bed.install<DemoApp>(apps::message_spec());
    bed.install<DemoApp>(apps::camera_spec());
    bed.start();
    bed.server().user_launch("com.example.message");
    bed.sim().run_for(sim::seconds(1));
    bed.context_of("com.example.message")
        .start_activity(Intent::explicit_for("com.example.camera", "Main"));
    bed.sim().run_for(sim::seconds(5));
    bed.server().user_launch("com.example.camera");  // end event
    std::printf("\n");
  }

  {  // (b) Interrupting activity: ends when the victim returns to front.
    Testbed bed;
    trace_windows(bed, "(b) interrupt: forced to background ... resumed");
    bed.install<DemoApp>(apps::message_spec());
    apps::DemoAppSpec mal = apps::message_spec();
    mal.package = "com.evil.popup";
    bed.install<DemoApp>(mal);
    bed.start();
    bed.server().user_launch("com.example.message");
    bed.sim().run_for(sim::seconds(1));
    bed.context_of("com.evil.popup").start_home();  // forces message away
    bed.sim().run_for(sim::seconds(5));
    bed.server().user_switch_to("com.example.message");  // back to front
    std::printf("\n");
  }

  {  // (c) Service: bind survives stopService; ends at unbind.
    Testbed bed;
    trace_windows(bed,
                  "(c) service: bind+start ... stop (window survives) "
                  "... unbind");
    apps::DemoAppSpec victim = apps::victim_spec();
    victim.wakelock_bug = false;
    victim.exit_dialog = false;
    bed.install<DemoApp>(victim);
    apps::DemoAppSpec client = apps::message_spec();
    client.package = "com.evil.client";
    bed.install<DemoApp>(client);
    bed.start();
    auto binding = bed.context_of("com.evil.client")
                       .bind_service(Intent::explicit_for(
                           victim.package, DemoApp::kService));
    bed.context_of("com.evil.client")
        .start_service(Intent::explicit_for(victim.package,
                                            DemoApp::kService));
    bed.sim().run_for(sim::seconds(2));
    bed.context_of("com.evil.client")
        .stop_service(Intent::explicit_for(victim.package,
                                           DemoApp::kService));
    bed.sim().run_for(sim::seconds(2));
    bed.context_of("com.evil.client").unbind_service(*binding);
    std::printf("\n");
  }

  {  // (d) Screen: brightness escalation; ends when the user intervenes.
    Testbed bed;
    trace_windows(bed, "(d) screen: background increase ... user reset");
    apps::DemoAppSpec mal = apps::message_spec();
    mal.package = "com.evil.bright";
    mal.permissions = {framework::Permission::kWriteSettings};
    bed.install<DemoApp>(mal);
    bed.start();
    bed.server().user_set_screen_mode(BrightnessMode::kManual);
    bed.server().user_set_brightness(100);
    bed.context_of("com.evil.bright").set_brightness(240);
    bed.sim().run_for(sim::seconds(5));
    bed.server().user_set_brightness(100);  // user takes control back
    std::printf("\n");
  }

  {  // (e) Wakelock: acquired in background; ends at release.
    Testbed bed;
    trace_windows(bed, "(e) wakelock: background acquire ... release");
    apps::DemoAppSpec mal = apps::message_spec();
    mal.package = "com.evil.lock";
    mal.permissions = {framework::Permission::kWakeLock};
    bed.install<DemoApp>(mal);
    bed.start();
    auto lock = bed.context_of("com.evil.lock")
                    .acquire_wakelock(WakelockType::kScreenBright, "trace");
    bed.sim().run_for(sim::seconds(5));
    bed.context_of("com.evil.lock").release_wakelock(*lock);
    std::printf("\n");
  }

  return 0;
}
