#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace gfi {

void Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  row.resize(header_.size());  // pad or truncate to header arity
  rows_.push_back(std::move(row));
}

std::string Table::fmt(f64 value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string Table::pct(f64 fraction, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", precision, fraction * 100.0);
  return buffer;
}

std::string Table::to_ascii() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto render_row = [&](const std::vector<std::string>& row) {
    std::ostringstream out;
    out << "|";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << " " << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << "\n";
    return out.str();
  };

  std::ostringstream out;
  std::size_t total = 1;
  for (auto w : widths) total += w + 3;
  const std::string rule(total, '-');

  if (!title_.empty()) out << title_ << "\n";
  out << rule << "\n" << render_row(header_) << rule << "\n";
  for (const auto& row : rows_) out << render_row(row);
  out << rule << "\n";
  return out.str();
}

std::string Table::to_csv() const {
  auto escape = [](const std::string& field) {
    if (field.find_first_of(",\"\n") == std::string::npos) return field;
    std::string quoted = "\"";
    for (char ch : field) {
      if (ch == '"') quoted += '"';
      quoted += ch;
    }
    quoted += '"';
    return quoted;
  };
  std::ostringstream out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << ",";
      out << escape(row[c]);
    }
    out << "\n";
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out.str();
}

void Table::print() const { std::fputs(to_ascii().c_str(), stdout); }

Status Table::write_csv(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return Status::internal("cannot open " + path + " for writing");
  file << to_csv();
  return Status::ok();
}

}  // namespace gfi
