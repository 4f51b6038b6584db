#include "src/core/stage_contexts.h"

#include <cassert>
#include <utility>

#include "src/fault/fault_injector.h"
#include "src/obs/observer.h"

namespace npr {

StageContexts::StageContexts(RouterCore& core)
    : core_(core), ring_(*core.engine, core.config->hw.token_pass_cycles) {}

void StageContexts::Add(HwContext& ctx) {
  [[maybe_unused]] const int member = ring_.AddMember(ctx);
  assert(member == size());
  contexts_.push_back(&ctx);
}

void StageContexts::Start(LoopFn loop) {
  loop_ = std::move(loop);
  for (int i = 0; i < size(); ++i) {
    context(i).Install(loop_(i));
  }
}

bool StageContexts::CrashDraw(int index) {
  if (!core_.fault->ShouldCrashContext()) {
    return false;
  }
  core_.stats->context_crashes += 1;
  NPR_OBS_HOOK(core_.obs, Record(SpanPoint::kFault, 0, ObsUnitOf(context(index)),
                                 static_cast<uint16_t>(FaultKind::kContextCrash)));
  ring_.SetMemberDown(index, true);
  // A lost restart models the recovery path itself failing: nothing is
  // scheduled, and only a health monitor (if attached) brings the context
  // back.
  if (!core_.fault->ShouldLoseRestart()) {
    StageContexts* self = this;
    core_.engine->ScheduleIn(core_.fault->context_restart_ps(),
                             [self, index] { self->Restart(index); });
  }
  return true;
}

void StageContexts::Restart(int index) {
  // Only the first of a racing pair reinstalls the loop: a crash marks the
  // member down before its loop co_returns, so member-up means live.
  if (!ring_.member_down(index)) {
    return;
  }
  core_.stats->context_restarts += 1;
  ring_.SetMemberDown(index, false);
  context(index).Install(loop_(index));
}

}  // namespace npr
