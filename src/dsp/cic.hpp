// twiddc::dsp -- Cascaded Integrator-Comb decimator (paper section 2.1, Fig 2).
//
// N integrators run at the input rate; a decimator passes 1 of every R
// samples to N comb (first-difference) sections.  Registers use
// two's-complement wrap-around arithmetic at the Hogenauer width
// W_in + ceil(N*log2(R*M)); overflow in the integrators is intentional and
// cancels in the combs.  Optional per-stage pruning (discarding LSBs) models
// narrow datapaths; the injected noise is bounded per Hogenauer (1981).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace twiddc::dsp {

class CicDecimator {
 public:
  struct Config {
    int stages = 2;          ///< N: number of integrator+comb pairs
    int decimation = 16;     ///< R
    int diff_delay = 1;      ///< M (the paper uses 1 throughout)
    int input_bits = 12;     ///< width of the input samples
    int register_bits = 0;   ///< 0 = automatic Hogenauer full width
    /// Right-shift applied at the input of each integrator stage (size must
    /// equal `stages` if non-empty).  Models Hogenauer pruning.
    std::vector<int> prune_shifts;
  };

  explicit CicDecimator(const Config& config);

  /// Validates `config` (ConfigError exactly where the constructor throws)
  /// and returns the register width it resolves to.
  static int checked_register_bits(const Config& config);

  /// Pushes one input sample; returns an output sample every `decimation`
  /// inputs (full register width, gain (R*M)^N / 2^sum(prune_shifts), not
  /// yet normalised -- callers shift by growth_bits() or divide by gain()).
  std::optional<std::int64_t> push(std::int64_t x);

  /// Block hot path: feeds every sample of `in`, appending produced outputs
  /// to `out`.  Bit-exact with a push() loop, but keeps the integrator state
  /// in registers across the whole block and never materialises a
  /// std::optional per input sample.
  void process_block(std::span<const std::int64_t> in, std::vector<std::int64_t>& out);

  /// Block helper: feeds all of `in`, appends produced outputs to a vector.
  std::vector<std::int64_t> process(const std::vector<std::int64_t>& in);

  void reset();

  /// DC gain (R*M)^N before any pruning shifts.
  [[nodiscard]] std::int64_t gain() const;
  /// Hogenauer bit growth ceil(N*log2(R*M)).
  [[nodiscard]] int growth_bits() const;
  /// Actual register width used.
  [[nodiscard]] int register_bits() const { return register_bits_; }
  /// Number of inputs consumed since construction/reset.
  [[nodiscard]] std::uint64_t samples_in() const { return samples_in_; }
  /// Number of outputs produced since construction/reset.
  [[nodiscard]] std::uint64_t samples_out() const { return samples_out_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Worst-case output magnitude bound for a full-scale input, used by tests
  /// to prove the chosen register width cannot mis-wrap.
  [[nodiscard]] std::int64_t output_bound() const;

 private:
  // Block kernel specialised on the stage count (fully unrolled integrator
  // cascade) and on the presence of pruning; see cic.cpp.
  template <int Stages, bool Prune>
  void run_block(std::span<const std::int64_t> in, std::vector<std::int64_t>& out);

  Config config_;
  int register_bits_ = 0;
  std::vector<std::int64_t> integrators_;
  std::vector<std::int64_t> comb_delays_;  // stages * diff_delay entries
  int decim_count_ = 0;
  std::uint64_t samples_in_ = 0;
  std::uint64_t samples_out_ = 0;
};

/// Hogenauer's non-recursive form of an unpruned CIC decimator whose
/// decimation is a power of two, R = 2^k, and whose register fits 32 bits.
/// Such a CIC is linear over the integers mod 2^B (B = register width), and
/// its N-fold boxcar factors as B_2R(z) = B_R(z) * B_2(z^R).  So it runs as k
/// sub-stages of (1 + z^-1)^N (binomial taps), each followed by decimation
/// by 2, plus one output-rate (1 + z^-1)^N when M = 2.  Each sub-stage is a
/// short FIR whose loop vectorises along time within one channel.
///
/// Arithmetic runs in wrapping uint32_t lanes.  Sums mod 2^32 reduce exactly
/// to any B <= 32, so the last sub-stage's value, wrapped to B bits and
/// sign-extended, is bit-exact with CicDecimator on the same config.  Every
/// sub-stage emits on its odd inputs, counted from reset, so output m lands
/// on input (m+1)R - 1, exactly where CicDecimator emits it.  Registers over
/// 32 bits keep CicDecimator: 64-bit lanes have no measured win over its
/// unrolled cascade.
class NonRecursiveCic {
 public:
  /// True when `config` takes this form: no prune shifts (pruning shifts
  /// between integrators, which breaks linearity), a power-of-two decimation
  /// and a register of at most 32 bits.  Throws ConfigError where
  /// CicDecimator would.
  static bool accepts(const CicDecimator::Config& config);

  /// Throws ConfigError where CicDecimator would, or when !accepts(config).
  explicit NonRecursiveCic(const CicDecimator::Config& config);

  /// Feeds every sample of `in`, appending produced outputs (full register
  /// width, sign-extended, as CicDecimator::process_block) to `out`.
  void process_block(std::span<const std::int64_t> in, std::vector<std::int64_t>& out);
  /// Same, from a 32-bit input tile.
  void process_block(std::span<const std::int32_t> in, std::vector<std::int64_t>& out);

  void reset();

  [[nodiscard]] int register_bits() const { return register_bits_; }

 private:
  /// Feeds `size` samples from `wide` or, when it is null, from `narrow`.
  void run(const std::int64_t* wide, const std::int32_t* narrow, std::size_t size,
           std::vector<std::int64_t>& out);

  int stages_ = 1;
  int levels_ = 0;  ///< k = log2(R)
  int diff_delay_ = 1;
  int register_bits_ = 0;
  std::vector<int> phase_;  ///< per decimating sub-stage: inputs since its last output, mod 2
  /// Each sub-stage's last N inputs (k decimating sub-stages, then the M = 2
  /// stage).
  std::vector<std::uint32_t> hist_;
};

}  // namespace twiddc::dsp
