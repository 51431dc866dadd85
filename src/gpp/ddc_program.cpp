#include "src/gpp/ddc_program.hpp"

#include <string>

#include "src/common/error.hpp"
#include "src/core/backend.hpp"
#include "src/core/fixed_ddc.hpp"
#include "src/dsp/nco.hpp"
#include "src/fixed/qformat.hpp"

namespace twiddc::gpp {
namespace {

// Memory map (byte addresses).  The cosine table sits at 0 so the zero
// register r10 doubles as its base, like a compiler placing hot constants
// at a known literal base.
constexpr std::uint32_t kCosTable = 0x00000;   // 4096 words
constexpr std::uint32_t kCoeff = 0x10000;      // fir_taps words (Q1.15)
constexpr std::uint32_t kRing = 0x10400;       // 128-word sample ring
constexpr std::uint32_t kState = 0x10800;
constexpr std::uint32_t kOutput = 0x11000;
constexpr std::uint32_t kInput = 0x20000;

// State offsets relative to address 0 (accessed via r10 = 0).
constexpr std::int32_t kD1 = kState + 0;        // CIC2 comb delay 1
constexpr std::int32_t kD2 = kState + 4;        // CIC2 comb delay 2
constexpr std::int32_t kCic5Int = kState + 8;   // 5 x {lo,hi}
constexpr std::int32_t kCic5Dly = kState + 48;  // 5 x {lo,hi}
constexpr std::int32_t kRidx = kState + 88;
constexpr std::int32_t kCnt21 = kState + 92;
constexpr std::int32_t kCnt8 = kState + 96;
constexpr std::int32_t kOutPtr = kState + 100;
constexpr std::int32_t kSaveLr = kState + 104;
constexpr std::int32_t kSave6 = kState + 116;
constexpr std::int32_t kS1 = kState + 120;  // CIC2 integrator 1 state
constexpr std::int32_t kS2 = kState + 124;  // CIC2 integrator 2 state

// Register conventions for the main loop.
constexpr int rIn = 0;      // input pointer
constexpr int rEnd = 1;     // input end
constexpr int rPhase = 2;   // NCO phase accumulator
constexpr int rStep = 3;    // NCO tuning word
constexpr int rS1 = 4;      // scratch (FIR ring base)
constexpr int rS2 = 5;      // scratch (FIR coefficient base)
constexpr int rCnt16 = 6;   // CIC2 decimation counter
constexpr int rX = 7;
constexpr int rT0 = 8;
constexpr int rT1 = 9;
constexpr int rZero = 10;   // always 0: base for absolute addressing
constexpr int rT2 = 11;
constexpr int rT3 = 12;

Operand2 imm(std::int32_t v) { return Operand2::immediate(v); }
Operand2 rr(int reg) { return Operand2::r(reg); }

// The one input contract, shared by the batch runner and the stream so the
// two paths can never drift: samples must fit the 12-bit front end, and are
// widened to the memory image's word size.
void widen_checked(std::span<const std::int64_t> in,
                   std::vector<std::int32_t>& out, const char* who) {
  out.clear();
  out.reserve(in.size());
  for (const std::int64_t v : in) {
    if (!fixed::fits_bits(v, 12))
      throw SimulationError(std::string(who) +
                            ": input sample does not fit 12 bits");
    out.push_back(static_cast<std::int32_t>(v));
  }
}

}  // namespace

core::DdcConfig DdcProgram::lower_plan(const core::ChainPlan& plan) {
  const std::string who = "gpp-arm";
  const auto config =
      core::lower_figure1_plan(plan, core::DatapathSpec::wide16(), who);
  if (config.cic2_stages != 2 || config.cic5_stages != 5)
    throw core::LoweringError(who, "the ARM kernel is written for the CIC2+CIC5 "
                              "chain (got CIC" + std::to_string(config.cic2_stages) +
                              "+CIC" + std::to_string(config.cic5_stages) + ")");
  if (config.fir_taps > 128)
    throw core::LoweringError(who, "the 128-word sample ring cannot hold a " +
                              std::to_string(config.fir_taps) + "-tap FIR");
  for (const auto g : {fixed::cic_bit_growth(config.cic2_stages, config.cic2_decimation),
                       fixed::cic_bit_growth(config.cic5_stages, config.cic5_decimation)}) {
    if (g < 1 || g > 31)
      throw core::LoweringError(who, "CIC gain-normalisation shift of " +
                                std::to_string(g) +
                                " is outside the 32-bit barrel shifter's range");
  }
  return config;
}

DdcProgram::DdcProgram(const core::ChainPlan& plan) : DdcProgram(lower_plan(plan)) {}

DdcProgram::DdcProgram(const core::DdcConfig& config) : config_(config) {
  config.validate();
  if (config.fir_taps > 128)
    throw ConfigError("DdcProgram: the ring buffer supports at most 128 FIR taps");
  if (config.cic2_stages != 2 || config.cic5_stages != 5)
    throw ConfigError("DdcProgram: the ARM kernel is written for the CIC2+CIC5 chain");

  // Shared data, identical to FixedDdc(wide16): the 10-bit quarter-wave
  // sine table (4 KB -- fits the ARM922T's 8 KB D-cache alongside the FIR
  // state; a flattened full-wave table would thrash it), and the same
  // quantised coefficients.
  cos_table_ = dsp::make_quarter_sine_table(10, 16);
  tuning_word_ =
      dsp::PhaseAccumulator::tuning_word(config.nco_freq_hz, config.input_rate_hz);

  core::FixedDdc twin(config, core::DatapathSpec::wide16());
  fir_coeffs_.assign(twin.fir_taps().begin(), twin.fir_taps().end());

  // Gain-normalisation shifts (8 and 22 for the reference chain); derived
  // rather than hard-coded so non-reference configs stay correct.
  const int g2 = fixed::cic_bit_growth(config.cic2_stages, config.cic2_decimation);
  const int g5 = fixed::cic_bit_growth(config.cic5_stages, config.cic5_decimation);
  if (g2 < 1 || g2 > 31 || g5 < 1 || g5 > 31)
    throw ConfigError("DdcProgram: CIC growth shift outside the 32-bit shifter range");

  Assembler a;

  // ------------------------------------------------------------- entry
  a.region("init");
  a.label("entry");
  a.mov_imm(rZero, 0);
  a.mov_imm(rIn, static_cast<std::int32_t>(kInput));
  // rEnd is patched at run time via register write (set below in run()).
  a.mov_imm(rEnd, static_cast<std::int32_t>(kInput));
  a.mov_imm(rPhase, 0);
  a.mov_imm(rStep, static_cast<std::int32_t>(tuning_word_));
  a.mov_imm(rCnt16, 0);
  a.mov_imm(rT0, static_cast<std::int32_t>(kOutput));
  a.str(rT0, rZero, kOutPtr);
  a.b("main_loop");

  // ------------------------------------------------------------- main loop
  a.region("loop-control");
  a.label("main_loop");
  a.cmp(rIn, rr(rEnd));
  a.b("done", Cond::kGe);
  a.ldr(rX, rIn, 0);
  a.add(rIn, rIn, imm(4));

  // NCO: quarter-wave table lookup with quadrant unfolding, exactly the
  // dsp::lut_sincos cosine path (table_bits = 10).
  a.region("NCO");
  a.mov(rT0, Operand2::r(rPhase, Shift::kLsr, 20));  // 12-bit phase cell
  a.add(rPhase, rPhase, rr(rStep));
  a.and_(rT2, rT0, imm(1023));                       // index within quadrant
  a.mov(rT3, Operand2::r(rT0, Shift::kLsr, 10));     // quadrant 0..3
  a.cmp(rT3, imm(2));
  a.b("nco_q23", Cond::kGe);
  a.cmp(rT3, imm(1));
  a.b("nco_q1", Cond::kEq);
  a.rsb(rT2, rT2, imm(1023));     // q0: cos = +table[1023 - idx]
  a.ldr_idx(rT1, rZero, rT2, 2);
  a.b("nco_done");
  a.label("nco_q1");              // q1: cos = -table[idx]
  a.ldr_idx(rT1, rZero, rT2, 2);
  a.rsb(rT1, rT1, imm(0));
  a.b("nco_done");
  a.label("nco_q23");
  a.cmp(rT3, imm(3));
  a.b("nco_q3", Cond::kEq);
  a.rsb(rT2, rT2, imm(1023));     // q2: cos = -table[1023 - idx]
  a.ldr_idx(rT1, rZero, rT2, 2);
  a.rsb(rT1, rT1, imm(0));
  a.b("nco_done");
  a.label("nco_q3");              // q3: cos = +table[idx]
  a.ldr_idx(rT1, rZero, rT2, 2);
  a.label("nco_done");

  // CIC2 integrating part -- the paper's accounting folds the mixing
  // multiply into this stage (Table 3 has no separate mixer row).  The
  // integrator state lives in memory, as the paper's explicitly
  // *unoptimised* per-function C code would have it.
  a.region("CIC2-integrating");
  a.mul(rX, rX, rT1);
  a.mov(rX, Operand2::r(rX, Shift::kAsr, 11));  // wide16 mixer shift
  a.ldr(rT2, rZero, kS1);
  a.add(rT2, rT2, rr(rX));
  a.str(rT2, rZero, kS1);
  a.ldr(rT3, rZero, kS2);
  a.add(rT3, rT3, rr(rT2));
  a.str(rT3, rZero, kS2);

  a.region("loop-control");
  a.add(rCnt16, rCnt16, imm(1));
  a.cmp(rCnt16, imm(config.cic2_decimation));
  a.b("main_loop", Cond::kLt);
  a.mov_imm(rCnt16, 0);
  a.bl("stage2");
  a.b("main_loop");
  a.label("done");
  a.halt();

  // ------------------------------------------- stage2: 4.032 MHz rate work
  a.region("CIC2-cascading");
  a.label("stage2");
  a.ldr(rX, rZero, kS2);  // integrator-2 value is the comb input
  a.ldr(rT0, rZero, kD1);
  a.sub(rT1, rX, rr(rT0));
  a.str(rX, rZero, kD1);
  a.ldr(rT0, rZero, kD2);
  a.sub(rX, rT1, rr(rT0));
  a.str(rT1, rZero, kD2);
  a.mov(rX, Operand2::r(rX, Shift::kAsr, g2));  // normalise CIC2 gain

  a.region("CIC5-integrating");
  // 64-bit value in {rT0 (lo), rT1 (hi)} starts as sign-extended rX.
  a.mov(rT0, rr(rX));
  a.mov(rT1, Operand2::r(rX, Shift::kAsr, 31));
  for (int s = 0; s < config.cic5_stages; ++s) {
    const std::int32_t lo = kCic5Int + 8 * s;
    a.ldr(rT2, rZero, lo);
    a.ldr(rT3, rZero, lo + 4);
    a.adds(rT0, rT2, rr(rT0));
    a.adc(rT1, rT3, rr(rT1));
    a.str(rT0, rZero, lo);
    a.str(rT1, rZero, lo + 4);
  }
  a.ldr(rT2, rZero, kCnt21);
  a.add(rT2, rT2, imm(1));
  a.str(rT2, rZero, kCnt21);
  a.cmp(rT2, imm(config.cic5_decimation));
  a.b("stage2_done", Cond::kLt);
  a.mov_imm(rT2, 0);
  a.str(rT2, rZero, kCnt21);
  a.str(kLinkReg, rZero, kSaveLr);
  a.bl("stage3");
  a.ldr(kLinkReg, rZero, kSaveLr);
  a.label("stage2_done");
  a.ret();

  // -------------------------------------------- stage3: 192 kHz rate work
  a.region("CIC5-cascading");
  a.label("stage3");
  // Five 64-bit comb sections on the value in {rT0, rT1}.
  for (int s = 0; s < config.cic5_stages; ++s) {
    const std::int32_t lo = kCic5Dly + 8 * s;
    a.ldr(rT2, rZero, lo);
    a.ldr(rT3, rZero, lo + 4);
    a.str(rT0, rZero, lo);
    a.str(rT1, rZero, lo + 4);
    a.subs(rT0, rT0, rr(rT2));
    a.sbc(rT1, rT1, rr(rT3));
  }
  // Normalise CIC5 gain: value >>= g5 (the 32-bit result is known to fit).
  a.mov(rX, Operand2::r(rT0, Shift::kLsr, g5));
  a.orr(rX, rX, Operand2::r(rT1, Shift::kLsl, 32 - g5));

  a.region("FIR125-poly-phase");
  a.ldr(rT2, rZero, kRidx);
  a.mov_imm(rT3, static_cast<std::int32_t>(kRing));
  a.str_idx(rX, rT3, rT2, 2);
  a.add(rT2, rT2, imm(1));
  a.and_(rT2, rT2, imm(127));
  a.str(rT2, rZero, kRidx);
  a.ldr(rT2, rZero, kCnt8);
  a.add(rT2, rT2, imm(1));
  a.str(rT2, rZero, kCnt8);
  a.cmp(rT2, imm(config.fir_decimation));
  a.b("stage3_done", Cond::kLt);
  a.mov_imm(rT2, 0);
  a.str(rT2, rZero, kCnt8);

  a.region("FIR125-summation");
  // Spill the live counter register the MAC loop reuses (as a compiler's
  // prologue would).
  a.str(rCnt16, rZero, kSave6);
  a.mov_imm(rS1, static_cast<std::int32_t>(kRing));   // ring base
  a.mov_imm(rS2, static_cast<std::int32_t>(kCoeff));  // coefficient base
  a.ldr(rT1, rZero, kRidx);
  a.sub(rT1, rT1, imm(1));  // newest sample index
  a.mov_imm(rCnt16, 0);     // k
  a.mov_imm(rX, 0);         // acc lo
  a.mov_imm(rT0, 0);        // acc hi
  a.label("fir_loop");
  a.sub(rT2, rT1, rr(rCnt16));
  a.and_(rT2, rT2, imm(127));
  a.ldr_idx(rT2, rS1, rT2, 2);      // sample
  a.ldr_idx(rT3, rS2, rCnt16, 2);   // coefficient
  a.smlal(rX, rT0, rT2, rT3);
  a.add(rCnt16, rCnt16, imm(1));
  a.cmp(rCnt16, imm(config.fir_taps));
  a.b("fir_loop", Cond::kLt);
  // Requantise: value >>= 15 (Q1.15 coefficients), result fits 16 bits.
  a.mov(rT2, Operand2::r(rX, Shift::kLsr, 15));
  a.orr(rT2, rT2, Operand2::r(rT0, Shift::kLsl, 17));
  a.ldr(rT3, rZero, kOutPtr);
  a.str(rT2, rT3, 0);
  a.add(rT3, rT3, imm(4));
  a.str(rT3, rZero, kOutPtr);
  a.ldr(rCnt16, rZero, kSave6);
  a.label("stage3_done");
  a.ret();

  program_ = a.assemble();
}

DdcRunResult DdcProgram::run(const std::vector<std::int64_t>& input,
                             const CycleModel& cycles) const {
  std::vector<std::int32_t> in32;
  widen_checked(input, in32, "DdcProgram");

  // The input length is only known now: patch the end-pointer immediate in
  // a copy of the program (the moral equivalent of linking in a constant).
  Assembler::Program prog = program_;
  for (auto& instr : prog.code) {
    if (instr.op == Op::kMovImm && instr.rd == rEnd)
      instr.op2 = Operand2::immediate(static_cast<std::int32_t>(kInput + 4 * in32.size()));
  }

  Cpu::Config cc;
  cc.memory_bytes = kInput + 4 * (in32.size() + 16);
  cc.cycles = cycles;
  Cpu cpu(prog, cc);
  cpu.write_words(kCosTable, cos_table_);
  cpu.write_words(kCoeff, fir_coeffs_);
  cpu.write_words(kInput, in32);

  DdcRunResult result;
  result.stats = cpu.run("entry");
  const std::size_t n_out =
      input.size() / static_cast<std::size_t>(config_.total_decimation());
  result.outputs = cpu.read_words(kOutput, n_out);
  return result;
}

// ----------------------------------------------------------------- stream

DdcStream::DdcStream(const DdcProgram& program) : program_(&program) {
  // The input window is re-filled per entry; its size is bounded by the
  // fixed output region between kOutput and kInput (one output word per
  // total_decimation inputs, with slack for counter phase).
  const auto decim =
      static_cast<std::size_t>(program_->config_.total_decimation());
  const std::size_t out_capacity = (kInput - kOutput) / 4 - 8;
  chunk_samples_ = std::min<std::size_t>(32768, out_capacity * decim);
  boot();
}

void DdcStream::boot() {
  Cpu::Config cc;
  cc.memory_bytes = kInput + 4 * (chunk_samples_ + 16);
  cpu_.emplace(program_->program_, cc);
  cpu_->write_words(kCosTable, program_->cos_table_);
  cpu_->write_words(kCoeff, program_->fir_coeffs_);
  // The unpatched entry has rEnd = kInput, so this run initialises the
  // register file (phase, counters, zero register) and the output pointer,
  // then halts before consuming a sample.  Streaming re-enters at
  // "main_loop" with the live registers from the previous block.
  const RunStats stats = cpu_->run("entry");
  instructions_ += stats.instructions;
}

void DdcStream::process_block(std::span<const std::int64_t> in,
                              std::vector<std::int32_t>& out) {
  for (std::size_t off = 0; off < in.size(); off += chunk_samples_) {
    const std::span<const std::int64_t> part =
        in.subspan(off, std::min(chunk_samples_, in.size() - off));
    widen_checked(part, window_, "DdcStream");
    cpu_->write_words(kInput, window_);
    cpu_->set_reg(rIn, static_cast<std::int32_t>(kInput));
    cpu_->set_reg(rEnd, static_cast<std::int32_t>(kInput + 4 * window_.size()));
    cpu_->write_word(static_cast<std::uint32_t>(kOutPtr),
                     static_cast<std::int32_t>(kOutput));
    const RunStats stats = cpu_->run("main_loop");
    instructions_ += stats.instructions;
    // The program advanced the output pointer once per produced sample;
    // everything between kOutput and it is this window's yield.
    const auto out_ptr = static_cast<std::uint32_t>(
        cpu_->read_word(static_cast<std::uint32_t>(kOutPtr)));
    const auto words = cpu_->read_words(kOutput, (out_ptr - kOutput) / 4);
    out.insert(out.end(), words.begin(), words.end());
  }
}

void DdcStream::reset() {
  instructions_ = 0;
  boot();
}

}  // namespace twiddc::gpp
