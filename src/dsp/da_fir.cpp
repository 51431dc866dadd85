#include "src/dsp/da_fir.hpp"

#include <string>

#include "src/common/error.hpp"
#include "src/fixed/qformat.hpp"

namespace twiddc::dsp {

std::vector<std::int64_t> DaFirEngine::build_tables(
    const std::vector<std::int64_t>& rev_taps) {
  const std::size_t nslices =
      (rev_taps.size() + kSliceTaps - 1) / static_cast<std::size_t>(kSliceTaps);
  std::vector<std::int64_t> tables(nslices * kTableEntries, 0);
  for (std::size_t c = 0; c < nslices; ++c) {
    std::uint64_t h[kSliceTaps] = {};
    for (int i = 0; i < kSliceTaps; ++i) {
      const std::size_t j = c * kSliceTaps + static_cast<std::size_t>(i);
      if (j < rev_taps.size()) h[i] = static_cast<std::uint64_t>(rev_taps[j]);
    }
    for (int a = 0; a < kTableEntries; ++a) {
      // Partial sums accumulate mod 2^64, matching the dot kernels' wrapping
      // int64 accumulation.
      std::uint64_t sum = 0;
      for (int i = 0; i < kSliceTaps; ++i)
        if (a & (1 << i)) sum += h[i];
      tables[c * kTableEntries + static_cast<std::size_t>(a)] =
          static_cast<std::int64_t>(sum);
    }
  }
  return tables;
}

DaFirEngine::DaFirEngine(std::shared_ptr<const std::vector<std::int64_t>> tables,
                         std::size_t ntaps, int input_bits)
    : tables_(std::move(tables)),
      ntaps_(ntaps),
      slices_((ntaps + kSliceTaps - 1) / static_cast<std::size_t>(kSliceTaps)),
      input_bits_(input_bits) {
  if (ntaps_ == 0) throw ConfigError("DaFirEngine: tap count must be >= 1");
  if (input_bits_ < 1 || input_bits_ > 63)
    throw ConfigError("DaFirEngine: input_bits must be in [1, 63], got " +
                      std::to_string(input_bits_));
  if (!tables_ || tables_->size() != slices_ * kTableEntries)
    throw ConfigError("DaFirEngine: table size does not match the tap count");
}

std::int64_t DaFirEngine::dot(const std::int64_t* win) const {
  // Two's complement with W = input_bits: x = sum_w b_w 2^w - b_{W-1} 2^W,
  // so y = sum_w 2^w S_w - 2^W S_{W-1} with S_w the tap sum selected by the
  // samples' w-th bits -- exactly what the slice tables store.  Everything
  // accumulates mod 2^64, so the result equals the MAC dot bit for bit.
  const std::int64_t* t = tables_->data();
  const int w_bits = input_bits_;
  std::uint64_t acc = 0;
  for (std::size_t c = 0; c < slices_; ++c, t += kTableEntries) {
    const std::size_t base = c * kSliceTaps;
    std::uint64_t u[kSliceTaps] = {};
    for (int i = 0; i < kSliceTaps; ++i) {
      const std::size_t j = base + static_cast<std::size_t>(i);
      // A final partial slice reads zeros: its missing taps are zero in the
      // table, and index bits of zero keep the addresses in range without
      // reading past the window.
      if (j < ntaps_) u[i] = static_cast<std::uint64_t>(win[j]);
    }
    for (int w = 0; w < w_bits; ++w) {
      const std::size_t addr = (u[0] & 1) | ((u[1] & 1) << 1) |
                               ((u[2] & 1) << 2) | ((u[3] & 1) << 3);
      const auto tv = static_cast<std::uint64_t>(t[addr]);
      acc += tv << w;
      if (w == w_bits - 1) acc -= tv << w_bits;  // sign-bit weight
      for (int i = 0; i < kSliceTaps; ++i) u[i] >>= 1;
    }
  }
  return static_cast<std::int64_t>(acc);
}

bool DaFirEngine::fits(std::int64_t lo, std::int64_t hi) const {
  return fixed::fits_bits(lo, input_bits_) && fixed::fits_bits(hi, input_bits_);
}

DaFirEngine::Cost DaFirEngine::cost(std::size_t ntaps, int input_bits) {
  Cost c;
  c.macs_per_output = ntaps;
  c.eligible = ntaps > 0 && input_bits >= 1 && input_bits <= kMaxInputBits;
  if (ntaps == 0) return c;
  c.slices = (ntaps + kSliceTaps - 1) / static_cast<std::size_t>(kSliceTaps);
  c.table_entries = c.slices * kTableEntries;
  if (input_bits >= 1)
    c.lookups_per_output = static_cast<std::size_t>(input_bits) * c.slices;
  return c;
}

}  // namespace twiddc::dsp
