// Shared scaffolding for the experiment harnesses (see DESIGN.md §5 and
// EXPERIMENTS.md).  Each bench binary prints one experiment's table.
#pragma once

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/json.h"
#include "workload/metacomputer.h"

namespace legion::bench {

// True when the caller asked for the reduced CI preset
// (LEGION_BENCH_PRESET=smoke): fewer trials and sweep cells, same code
// paths, so the smoke job finishes fast but still exercises everything.
inline bool SmokePreset() {
  const char* preset = std::getenv("LEGION_BENCH_PRESET");
  return preset != nullptr && std::string_view(preset) == "smoke";
}

inline NetworkParams QuietNet() {
  NetworkParams params;
  params.jitter_fraction = 0.05;
  params.seed = 99;
  return params;
}

// A fresh deterministic world for one experiment cell.
struct World {
  std::unique_ptr<SimKernel> kernel;
  std::unique_ptr<Metacomputer> metacomputer;

  Metacomputer* operator->() const { return metacomputer.get(); }
};

inline World MakeWorld(MetacomputerConfig config,
                       NetworkParams net = QuietNet()) {
  World world;
  world.kernel = std::make_unique<SimKernel>(net);
  world.metacomputer =
      std::make_unique<Metacomputer>(world.kernel.get(), config);
  world.metacomputer->PopulateCollection();
  return world;
}

// Reads the registry counter `name{labels}`.  A cell that does not exist
// exits the bench, so a misspelt name cannot read as 0.
inline std::uint64_t Count(const SimKernel& kernel, std::string_view name,
                           const obs::Labels& labels) {
  const obs::MetricsSnapshot snapshot = kernel.metrics().Snapshot();
  const std::string key = obs::MetricsRegistry::CellKey(name, labels);
  const auto it = snapshot.counters.find(key);
  if (it == snapshot.counters.end()) {
    std::fprintf(stderr, "no counter %s\n", key.c_str());
    std::exit(1);
  }
  return it->second;
}

// Reads the registry counter `name{component=<component>}`.
inline std::uint64_t Count(const SimKernel& kernel, std::string_view name,
                           const std::string& component) {
  return Count(kernel, name, obs::Labels{{"component", component}});
}

// One value in a machine-readable table row: a number or a label.
struct Cell {
  template <typename T, std::enable_if_t<std::is_arithmetic_v<T>, int> = 0>
  Cell(T value) : is_number(true), num(static_cast<double>(value)) {}
  Cell(const char* value) : text(value) {}
  Cell(const std::string& value) : text(value) {}

  bool is_number = false;
  double num = 0.0;
  std::string text;
};

// Applies one printf-style format to a cell list: each conversion spec
// consumes the next cell.  Length modifiers in the spec are replaced so
// the caller can keep the exact format string of the printed table
// (e.g. "%7zu" works against a numeric cell).
inline std::string FormatCells(const char* fmt,
                               const std::vector<Cell>& cells) {
  std::string out;
  std::size_t next = 0;
  for (const char* p = fmt; *p != '\0'; ++p) {
    if (*p != '%') {
      out.push_back(*p);
      continue;
    }
    if (p[1] == '%') {
      out.push_back('%');
      ++p;
      continue;
    }
    // %[flags][width][.precision][length]conversion
    std::string spec = "%";
    ++p;
    while (*p != '\0' && std::strchr("-+ #0", *p) != nullptr) spec += *p++;
    while (*p != '\0' && std::isdigit(static_cast<unsigned char>(*p)))
      spec += *p++;
    if (*p == '.') {
      spec += *p++;
      while (*p != '\0' && std::isdigit(static_cast<unsigned char>(*p)))
        spec += *p++;
    }
    while (*p != '\0' && std::strchr("hljzt", *p) != nullptr) ++p;  // drop
    const char conv = *p;
    if (conv == '\0' || next >= cells.size()) break;
    const Cell& cell = cells[next++];
    char buf[256];
    switch (conv) {
      case 'd':
      case 'i':
        spec += "lld";
        std::snprintf(buf, sizeof buf, spec.c_str(),
                      static_cast<long long>(cell.num));
        break;
      case 'u':
      case 'o':
      case 'x':
      case 'X':
        spec += "ll";
        spec += conv;
        std::snprintf(buf, sizeof buf, spec.c_str(),
                      static_cast<unsigned long long>(cell.num));
        break;
      case 's':
        spec += 's';
        std::snprintf(buf, sizeof buf, spec.c_str(), cell.text.c_str());
        break;
      default:  // e E f F g G
        spec += conv;
        std::snprintf(buf, sizeof buf, spec.c_str(), cell.num);
        break;
    }
    out += buf;
  }
  return out;
}

// Minimal table printer: header once, then printf-style rows.  A table
// may additionally mirror its rows into BENCH_<experiment>.json (written
// on destruction) so results are machine-readable alongside the printed
// text -- see EnableJson().
class Table {
 public:
  Table(std::string title, std::string header)
      : title_(std::move(title)), header_(std::move(header)) {}

  ~Table() { WriteJson(); }

  // Opt this table into the JSON mirror.  `columns` names the cells that
  // each cell-based Row() call will supply, in order.
  void EnableJson(std::string experiment, std::vector<std::string> columns) {
    experiment_ = std::move(experiment);
    columns_ = std::move(columns);
  }

  void Begin() const {
    std::printf("\n=== %s ===\n%s\n", title_.c_str(), header_.c_str());
    for (std::size_t i = 0; i < header_.size(); ++i) std::putchar('-');
    std::putchar('\n');
  }

  __attribute__((format(printf, 2, 3))) void Row(const char* fmt, ...) const {
    va_list args;
    va_start(args, fmt);
    std::vprintf(fmt, args);
    va_end(args);
    std::putchar('\n');
  }

  // Cell-based row: prints through the same format string as the text
  // table and records the raw values for the JSON mirror.
  void Row(const char* fmt, std::vector<Cell> cells) {
    std::printf("%s\n", FormatCells(fmt, cells).c_str());
    rows_.push_back(std::move(cells));
  }

  // Records cells into the JSON mirror without printing.  For tables
  // whose printed lines mix deterministic values with wall-clock
  // measurements: print the full line with the printf-only Row(), then
  // record just the deterministic subset here, so every BENCH_*.json
  // stays byte-identical across same-seed runs (scripts/chaos_sweep.sh
  // double-run check).
  void RecordRow(std::vector<Cell> cells) { rows_.push_back(std::move(cells)); }

 private:
  void WriteJson() const {
    if (experiment_.empty()) return;
    std::string json = "{\"experiment\":" + obs::JsonString(experiment_) +
                       ",\"title\":" + obs::JsonString(title_) +
                       ",\"columns\":[";
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (i != 0) json += ',';
      json += obs::JsonString(columns_[i]);
    }
    json += "],\"rows\":[";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      if (r != 0) json += ',';
      json += '[';
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        if (c != 0) json += ',';
        const Cell& cell = rows_[r][c];
        json += cell.is_number ? obs::JsonNumber(cell.num)
                               : obs::JsonString(cell.text);
      }
      json += ']';
    }
    json += "]}\n";
    const std::string path = "BENCH_" + experiment_ + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("[wrote %s]\n", path.c_str());
    }
  }

  std::string title_;
  std::string header_;
  std::string experiment_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace legion::bench
