#include "src/montium/tile.hpp"

#include <algorithm>
#include <string>

#include "src/common/error.hpp"

namespace twiddc::montium {

Alu::Alu(int index, int word_bits)
    : index_(index), word_bits_(word_bits), regs_(4, 0) {
  if (word_bits < 8 || word_bits > 63)
    throw ConfigError("Alu: word_bits must be in [8,63]");
}

void Alu::begin_cycle() {
  current_ = kNoPart;
  used_mults_ = 0;
  used_addsubs_ = 0;
  used_logicals_ = 0;
  ++total_cycles_;
}

void Alu::issue(std::string_view part, int mults, int addsubs, int logicals) {
  if (current_ != kNoPart && parts_[static_cast<std::size_t>(current_)] != part)
    throw SimulationError("Alu " + std::to_string(index_) +
                          ": two algorithm parts in one cycle ('" + current_part() +
                          "' and '" + std::string(part) + "')");
  used_mults_ += mults;
  used_addsubs_ += addsubs;
  used_logicals_ += logicals;
  if (used_mults_ > limits_.multiplies || used_addsubs_ > limits_.addsubs ||
      used_logicals_ > limits_.logicals)
    throw SimulationError("Alu " + std::to_string(index_) + ": cycle over-subscribed by '" +
                          std::string(part) + "' (" + std::to_string(used_mults_) +
                          " mult, " + std::to_string(used_addsubs_) + " addsub, " +
                          std::to_string(used_logicals_) + " logic)");
  if (current_ == kNoPart) {
    const auto known = std::find(parts_.begin(), parts_.end(), part);
    current_ = static_cast<int>(known - parts_.begin());
    if (known == parts_.end()) {
      parts_.emplace_back(part);
      busy_.push_back(0);
    }
    ++busy_[static_cast<std::size_t>(current_)];
  }
}

const std::string& Alu::current_part() const {
  static const std::string kIdle;
  return current_ == kNoPart ? kIdle : parts_[static_cast<std::size_t>(current_)];
}

std::map<std::string, std::uint64_t> Alu::busy_cycles() const {
  std::map<std::string, std::uint64_t> cycles;
  for (std::size_t id = 0; id < parts_.size(); ++id) cycles.emplace(parts_[id], busy_[id]);
  return cycles;
}

std::int64_t Alu::reg(int slot) const {
  if (slot < 0 || slot >= static_cast<int>(regs_.size()))
    throw SimulationError("Alu: register slot out of range");
  return regs_[static_cast<std::size_t>(slot)];
}

void Alu::set_reg(int slot, std::int64_t v) {
  if (slot < 0 || slot >= static_cast<int>(regs_.size()))
    throw SimulationError("Alu: register slot out of range");
  regs_[static_cast<std::size_t>(slot)] = wrap(v);
}

Memory::Memory(std::string name, int word_bits)
    : name_(std::move(name)), word_bits_(word_bits), words_(kWords, 0) {}

std::int64_t Memory::read(int address) const {
  if (address < 0 || address >= kWords)
    throw SimulationError("Memory " + name_ + ": read address " +
                          std::to_string(address) + " out of range");
  ++reads_;
  return words_[static_cast<std::size_t>(address)];
}

void Memory::write(int address, std::int64_t value) {
  if (address < 0 || address >= kWords)
    throw SimulationError("Memory " + name_ + ": write address " +
                          std::to_string(address) + " out of range");
  ++writes_;
  words_[static_cast<std::size_t>(address)] = fixed::wrap(value, word_bits_);
}

Tile::Tile(int word_bits) {
  for (int a = 0; a < kNumAlus; ++a) {
    alus_.emplace_back(a, word_bits);
    for (int m = 0; m < kMemoriesPerAlu; ++m)
      memories_.emplace_back(
          "MEM " + std::to_string(a + 1) + "." + std::to_string(m + 1), word_bits);
  }
}

Memory& Tile::memory(int alu_idx, int which) {
  if (alu_idx < 0 || alu_idx >= kNumAlus || which < 0 || which >= kMemoriesPerAlu)
    throw SimulationError("Tile: memory index out of range");
  return memories_[static_cast<std::size_t>(alu_idx * kMemoriesPerAlu + which)];
}

void Tile::begin_cycle() {
  for (auto& alu : alus_) alu.begin_cycle();
}

void Tile::end_cycle() {
  if (gantt_.size() < trace_depth_) {
    GanttRow row;
    row.cycle = cycle_;
    for (const auto& alu : alus_) row.alu_part.push_back(alu.current_part());
    gantt_.push_back(std::move(row));
  }
  ++cycle_;
}

std::vector<UtilizationRow> Tile::utilization() const {
  // Collect per-part: which ALUs participated, and their busy share.
  std::map<std::string, std::pair<int, double>> agg;  // part -> {alus, sum share}
  for (const auto& alu : alus_) {
    for (const auto& [part, cycles] : alu.busy_cycles()) {
      auto& entry = agg[part];
      ++entry.first;
      entry.second += alu.total_cycles() == 0
                          ? 0.0
                          : static_cast<double>(cycles) /
                                static_cast<double>(alu.total_cycles());
    }
  }
  std::vector<UtilizationRow> rows;
  for (const auto& [part, entry] : agg) {
    UtilizationRow r;
    r.part = part;
    r.alus = entry.first;
    r.busy_percent = 100.0 * entry.second / entry.first;
    rows.push_back(r);
  }
  return rows;
}

}  // namespace twiddc::montium
