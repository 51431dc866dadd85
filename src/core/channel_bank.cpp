#include "src/core/channel_bank.hpp"

#include "src/common/error.hpp"

namespace twiddc::core {

ChannelBank::ChannelBank(const std::vector<ChainPlan>& plans) {
  if (plans.empty()) throw ConfigError("ChannelBank: needs at least one plan");
  channels_.reserve(plans.size());
  for (const auto& plan : plans)
    channels_.emplace_back(CompiledPlanCache::instance().get_or_compile(plan));
  enabled_.assign(channels_.size(), 1);
}

void ChannelBank::process_block(std::span<const std::int64_t> in,
                                std::vector<std::vector<IqSample>>& out) {
  out.resize(channels_.size());
  if (in.empty()) return;
  // Same all-or-nothing contract as one channel's process_block, over the
  // bank: each channel checks only its own width, so a later channel would
  // throw after the earlier ones had advanced.  A block that fits the
  // narrowest enabled channel fits them all, so one sweep covers the bank.
  int narrowest = 0;  // 0: no channel enabled
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (!enabled_[c]) continue;
    const int bits = channels_[c].compiled().plan().front_end.input_bits;
    if (narrowest == 0 || bits < narrowest) narrowest = bits;
  }
  if (narrowest == 0) return;
  check_input_block(in, narrowest, "ChannelBank::process_block");

  for (std::size_t c = 0; c < channels_.size(); ++c)
    if (enabled_[c]) channels_[c].process_block(in, out[c]);
}

std::vector<std::vector<IqSample>> ChannelBank::process(
    const std::vector<std::int64_t>& in) {
  std::vector<std::vector<IqSample>> out;
  process_block(in, out);
  return out;
}

void ChannelBank::reset() {
  for (auto& ch : channels_) ch.reset();
}

}  // namespace twiddc::core
