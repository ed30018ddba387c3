#include "common/stats.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace pmnet {

void
ThroughputMeter::start(Tick now)
{
    startTick_ = now;
    stopTick_ = now;
    completed_ = 0;
}

void
ThroughputMeter::stop(Tick now)
{
    stopTick_ = now;
}

double
ThroughputMeter::opsPerSecond() const
{
    TickDelta window = stopTick_ - startTick_;
    if (window <= 0)
        panic("ThroughputMeter: empty or unclosed window");
    return static_cast<double>(completed_) / toSeconds(window);
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TablePrinter::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        panic("TablePrinter: row has %zu cells, expected %zu",
              cells.size(), headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TablePrinter::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

void
TablePrinter::print() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); c++)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); c++)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); c++)
            std::printf("%-*s%s", static_cast<int>(widths[c]),
                        cells[c].c_str(),
                        c + 1 == cells.size() ? "\n" : "  ");
    };

    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    for (std::size_t i = 0; i + 2 < total; i++)
        std::printf("-");
    std::printf("\n");
    for (const auto &row : rows_)
        print_row(row);
}

} // namespace pmnet
