#include "src/core/channel_bank.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/dsp/cic.hpp"
#include "src/fixed/qformat.hpp"

namespace twiddc::core {
namespace {
// Channels are advanced tile by tile so each channel's per-block scratch
// (mixer planar buffers, rail ping-pong buffers) stays cache-resident
// instead of streaming a full block's worth per channel.  Pipelines are
// streaming-composable, so tiling is bit-exact with one monolithic call.
constexpr std::size_t kTileSamples = 8192;
}  // namespace

ChannelBank::ChannelBank(const std::vector<ChainPlan>& plans) {
  if (plans.empty()) throw ConfigError("ChannelBank: needs at least one plan");
  channels_.reserve(plans.size());
  for (const auto& plan : plans) channels_.emplace_back(plan);
  enabled_.assign(channels_.size(), 1);
}

bool ChannelBank::packable(std::size_t c) {
  DdcPipeline& p = channels_[c];
  // Observation taps see per-stage intermediates that a split chain does not
  // produce in one place; such channels keep the monolithic path.
  if (p.has_mixer_tap()) return false;
  const ChainPlan& plan = p.plan();
  if (plan.stages.empty() || plan.stages[0].kind != StageSpec::Kind::kCic)
    return false;
  if (!plan.stages[0].prune_shifts.empty()) return false;
  for (int r = 0; r < 2; ++r) {
    StageChain<std::int64_t>& rail = p.rail(r);
    if (rail.has_taps()) return false;
    if (rail.size() == 0 || rail.stage(0).cic_kernel() == nullptr) return false;
  }
  return true;
}

std::vector<ChannelBank::Unit> ChannelBank::make_units() {
  std::vector<Unit> units;
  // Packing groups: identical first-stage CIC geometry AND decimation phase
  // (lanes must hit decimation boundaries in lockstep).  Channels are
  // normally constructed and fed together so phases agree; a channel that
  // was disabled for a while simply lands in its own group.
  std::map<std::tuple<int, int, int, int, std::uint64_t>, std::vector<std::size_t>>
      groups;
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (!enabled_[c]) continue;
    if (!packing_ || !packable(c)) {
      units.push_back(Unit{{c}, 1});
      continue;
    }
    dsp::CicDecimator* k = channels_[c].rail(0).stage(0).cic_kernel();
    const auto& cfg = k->config();
    groups[{cfg.stages, cfg.decimation, cfg.diff_delay, k->register_bits(),
            k->samples_in() % static_cast<std::uint64_t>(cfg.decimation)}]
        .push_back(c);
  }
  // Octets only when the AVX-512 tier is actually up right now; an octet on
  // an AVX2-only box would decline packed8 and split into packed4 halves,
  // which quads already express directly.
  const bool octets = simd::avx512_active();
  for (auto& [key, chs] : groups) {
    std::size_t i = 0;
    if (octets) {
      for (; i + 8 <= chs.size(); i += 8) {
        Unit u;
        u.lanes = 8;
        for (int l = 0; l < 8; ++l) u.ch[l] = chs[i + static_cast<std::size_t>(l)];
        units.push_back(u);
      }
    }
    for (; i + 4 <= chs.size(); i += 4)
      units.push_back(Unit{{chs[i], chs[i + 1], chs[i + 2], chs[i + 3]}, 4});
    for (; i < chs.size(); ++i) units.push_back(Unit{{chs[i]}, 1});
  }
  return units;
}

void ChannelBank::run_packed_tile(const Unit& unit,
                                  std::span<const std::int64_t> tile,
                                  std::vector<std::vector<IqSample>>& out) {
  PackScratch& s = scratch_;
  const std::size_t m = tile.size();
  const int L = unit.lanes;

  // Front end per lane: the NCO and mixer already vectorise along time
  // through the simd shim, so cross-channel packing buys nothing there.
  dsp::CicDecimator* kern_i[8];
  dsp::CicDecimator* kern_q[8];
  const std::int64_t* in_i[8];
  const std::int64_t* in_q[8];
  std::vector<std::int64_t>* out_i[8];
  std::vector<std::int64_t>* out_q[8];
  for (int l = 0; l < L; ++l) {
    DdcPipeline& p = channels_[unit.ch[l]];
    s.cs[l].resize(m);
    s.sn[l].resize(m);
    p.nco().next_block(s.cs[l], s.sn[l]);
    s.mix_i[l].resize(m);
    s.mix_q[l].resize(m);
    p.mixer().mix_block(tile, s.cs[l], s.sn[l], s.mix_i[l], s.mix_q[l]);
    s.cic_i[l].clear();
    s.cic_q[l].clear();
    kern_i[l] = p.rail(0).stage(0).cic_kernel();
    kern_q[l] = p.rail(1).stage(0).cic_kernel();
    in_i[l] = s.mix_i[l].data();
    in_q[l] = s.mix_q[l].data();
    out_i[l] = &s.cic_i[l];
    out_q[l] = &s.cic_q[l];
  }

  // The packed CIC leg: all lanes' integrator cascades per register, one
  // pass for the I rails and one for the Q rails.  Octets try the AVX-512
  // kernel first and degrade to AVX2 quad pairs, then to per-lane blocks;
  // every kernel declines without touching state, so any mix is bit-exact.
  const auto run_cic = [m, L](dsp::CicDecimator* const kern[],
                              const std::int64_t* const in[],
                              std::vector<std::int64_t>* const outp[]) {
    if (L == 8 && dsp::CicDecimator::process_block_packed8(kern, in, m, outp))
      return;
    for (int base = 0; base < L; base += 4) {
      if (base + 4 <= L &&
          dsp::CicDecimator::process_block_packed4(kern + base, in + base, m,
                                                   outp + base))
        continue;
      const int end = std::min(base + 4, L);
      for (int l = base; l < end; ++l)
        kern[l]->process_block(std::span(in[l], m), *outp[l]);
    }
  };
  run_cic(kern_i, in_i, out_i);
  run_cic(kern_q, in_q, out_q);

  // Stage-0 conditioning + the rest of each lane's chain, per lane.
  for (int l = 0; l < L; ++l) {
    DdcPipeline& p = channels_[unit.ch[l]];
    const StageSpec& st0 = p.plan().stages[0];
    for (std::vector<std::int64_t>* rail : {&s.cic_i[l], &s.cic_q[l]}) {
      for (std::int64_t& v : *rail) {
        v = fixed::shift_right(v, st0.post_shift, st0.rounding);
        if (st0.narrow_bits != 0)
          v = fixed::narrow(v, st0.narrow_bits, fixed::Overflow::kSaturate);
      }
    }
    s.rail_i[l].clear();
    s.rail_q[l].clear();
    p.rail(0).process_block_from(1, s.cic_i[l], s.rail_i[l]);
    p.rail(1).process_block_from(1, s.cic_q[l], s.rail_q[l]);
    if (s.rail_i[l].size() != s.rail_q[l].size())
      throw SimulationError("ChannelBank: I/Q rails lost rate lock");
    std::vector<IqSample>& o = out[unit.ch[l]];
    for (std::size_t j = 0; j < s.rail_i[l].size(); ++j)
      o.push_back(IqSample{s.rail_i[l][j], s.rail_q[l][j]});
    p.note_packed_block(m, s.rail_i[l].size());
  }
}

void ChannelBank::process_block(std::span<const std::int64_t> in,
                                std::vector<std::vector<IqSample>>& out) {
  out.resize(channels_.size());
  if (in.empty()) return;
  // Same all-or-nothing contract as DdcPipeline::process_block, over the
  // whole block: a single channel's own check sees one tile at a time, so
  // it would throw only after the earlier tiles had advanced every channel.
  // A block that fits the narrowest enabled channel fits them all, so one
  // sweep covers the bank.
  int narrowest = 0;  // 0: no channel enabled
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (!enabled_[c]) continue;
    const int bits = channels_[c].plan().front_end.input_bits;
    if (narrowest == 0 || bits < narrowest) narrowest = bits;
  }
  if (narrowest > 0) check_input_block(in, narrowest, "ChannelBank::process_block");

  // Tile-outer, unit-inner: every unit advances through tile t before any
  // unit starts tile t+1.
  const std::vector<Unit> units = make_units();
  for (std::size_t off = 0; off < in.size(); off += kTileSamples) {
    const std::span<const std::int64_t> tile =
        in.subspan(off, std::min(kTileSamples, in.size() - off));
    for (const Unit& u : units) {
      if (u.lanes == 1)
        channels_[u.ch[0]].process_block(tile, out[u.ch[0]]);
      else
        run_packed_tile(u, tile, out);
    }
  }
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
