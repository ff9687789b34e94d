#include "core/param_grid.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/error.h"

namespace acstab::core {

namespace {

    [[nodiscard]] std::string format_value(real v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.6g", v);
        return buf;
    }

} // namespace

std::string grid_point::label() const
{
    std::string out;
    if (temp_celsius) {
        out += "T=";
        out += format_value(*temp_celsius);
    }
    if (!corner.empty()) {
        if (!out.empty())
            out += ' ';
        out += "corner=";
        out += corner;
    }
    // The override map is unordered; sort the names so the label is
    // stable across runs and processes.
    std::vector<std::string> names;
    names.reserve(overrides.size());
    for (const auto& [name, v] : overrides)
        names.push_back(name);
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) {
        if (!out.empty())
            out += ' ';
        out += name;
        out += '=';
        out += format_value(overrides.at(name));
    }
    return out.empty() ? "nominal" : out;
}

spice::parse_options grid_point::parse_options() const
{
    spice::parse_options popt;
    popt.param_overrides = overrides;
    popt.temp_celsius = temp_celsius;
    return popt;
}

std::size_t param_grid::size() const
{
    std::unordered_set<std::string> seen;
    for (const corner_def& c : corners) {
        if (c.name.empty())
            throw analysis_error("param grid: corner with an empty name");
        if (!seen.insert(c.name).second)
            throw analysis_error("param grid: duplicate corner '" + c.name + "'");
    }
    seen.clear();
    std::size_t total = std::max<std::size_t>(1, temps.size())
        * std::max<std::size_t>(1, corners.size());
    for (const param_axis& axis : axes) {
        if (axis.name.empty())
            throw analysis_error("param grid: axis with an empty name");
        if (axis.values.empty())
            throw analysis_error("param grid: axis '" + axis.name + "' has no values");
        if (!seen.insert(axis.name).second)
            throw analysis_error("param grid: duplicate axis '" + axis.name + "'");
        total *= axis.values.size();
    }
    return total;
}

grid_point param_grid::point(std::size_t index) const
{
    const std::size_t total = size(); // also validates the axes
    if (index >= total)
        throw analysis_error("param grid: point index " + std::to_string(index)
                             + " out of range (grid has " + std::to_string(total)
                             + " points)");

    grid_point pt;
    pt.index = index;

    // Row-major decode, last axis fastest: peel the param axes from the
    // back, then the corner digit, then TEMP.
    std::size_t rest = index;
    std::vector<std::size_t> axis_digit(axes.size(), 0);
    for (std::size_t a = axes.size(); a-- > 0;) {
        axis_digit[a] = rest % axes[a].values.size();
        rest /= axes[a].values.size();
    }
    const std::size_t ncorner = std::max<std::size_t>(1, corners.size());
    const std::size_t corner_digit = rest % ncorner;
    rest /= ncorner;

    if (!temps.empty())
        pt.temp_celsius = temps[rest];
    if (!corners.empty()) {
        pt.corner = corners[corner_digit].name;
        pt.overrides = corners[corner_digit].overrides;
    }
    // Axis values override a same-named corner parameter (finer knob).
    for (std::size_t a = 0; a < axes.size(); ++a)
        pt.overrides[axes[a].name] = axes[a].values[axis_digit[a]];
    return pt;
}

circuit_template circuit_template::from_file(const std::string& path)
{
    circuit_template tmpl{path, ""};
    std::ifstream in(path);
    if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        tmpl.text = buffer.str();
    }
    return tmpl;
}

spice::parsed_netlist circuit_template::build(const grid_point& pt) const
{
    const spice::parse_options popt = pt.parse_options();
    if (!text.empty())
        return spice::parse_netlist(text, popt);
    if (path.empty())
        throw analysis_error("circuit template: neither netlist path nor text set");
    return spice::parse_netlist_file(path, popt);
}

param_grid grid_from_netlist_cards(const spice::parsed_netlist& net)
{
    param_grid grid;
    grid.temps = net.temp_values;
    for (const spice::corner_card& c : net.corners)
        grid.corners.push_back({c.name, c.overrides});
    return grid;
}

lease_ledger::lease_ledger(std::size_t total)
    : state_(total, point_state::pending), attempts_(total, 0), pending_(total)
{
}

void lease_ledger::check_index(std::size_t index) const
{
    if (index >= state_.size())
        throw analysis_error("lease ledger: point index " + std::to_string(index)
                             + " out of range (grid has " + std::to_string(state_.size())
                             + " points)");
}

std::size_t& lease_ledger::bucket(point_state s)
{
    switch (s) {
    case point_state::pending: return pending_;
    case point_state::leased: return leased_;
    case point_state::cooling: return cooling_;
    case point_state::done: return done_;
    case point_state::quarantined: return quarantined_;
    }
    return pending_; // unreachable
}

void lease_ledger::move(std::size_t index, point_state to)
{
    --bucket(state_[index]);
    state_[index] = to;
    ++bucket(to);
}

std::optional<point_lease> lease_ledger::grant(std::size_t limit)
{
    if (pending_ == 0 || limit == 0)
        return std::nullopt;
    while (cursor_ < state_.size() && state_[cursor_] != point_state::pending)
        ++cursor_;
    std::size_t begin = cursor_;
    if (begin == state_.size()) {
        // A released (retry) point sits below the cursor; scan for it.
        begin = 0;
        while (state_[begin] != point_state::pending)
            ++begin;
    }
    std::size_t end = begin;
    while (end < state_.size() && end - begin < limit
           && state_[end] == point_state::pending) {
        move(end, point_state::leased);
        ++end;
    }
    if (begin == cursor_)
        cursor_ = end;
    return point_lease{begin, end};
}

void lease_ledger::complete(std::size_t index)
{
    check_index(index);
    if (state_[index] == point_state::done)
        return;
    if (state_[index] == point_state::quarantined)
        throw analysis_error("lease ledger: point " + std::to_string(index)
                             + " completed after quarantine");
    move(index, point_state::done);
}

std::size_t lease_ledger::fail(std::size_t index)
{
    check_index(index);
    if (state_[index] != point_state::leased)
        throw analysis_error("lease ledger: failure reported for unleased point "
                             + std::to_string(index));
    move(index, point_state::cooling);
    return ++attempts_[index];
}

void lease_ledger::release(std::size_t index)
{
    check_index(index);
    if (state_[index] != point_state::cooling)
        throw analysis_error("lease ledger: release of a point that is not cooling: "
                             + std::to_string(index));
    move(index, point_state::pending);
    cursor_ = std::min(cursor_, index);
}

void lease_ledger::requeue(std::size_t index)
{
    check_index(index);
    if (state_[index] != point_state::leased)
        throw analysis_error("lease ledger: requeue of a point that is not leased: "
                             + std::to_string(index));
    move(index, point_state::pending);
    cursor_ = std::min(cursor_, index);
}

void lease_ledger::quarantine(std::size_t index)
{
    check_index(index);
    if (state_[index] == point_state::done)
        throw analysis_error("lease ledger: quarantine of a completed point "
                             + std::to_string(index));
    if (state_[index] == point_state::quarantined)
        return;
    move(index, point_state::quarantined);
}

void lease_ledger::reset_quarantined()
{
    for (std::size_t i = 0; i < state_.size(); ++i) {
        if (state_[i] != point_state::quarantined)
            continue;
        attempts_[i] = 0;
        move(i, point_state::pending);
        cursor_ = std::min(cursor_, i);
    }
}

std::size_t lease_ledger::attempts(std::size_t index) const
{
    check_index(index);
    return attempts_[index];
}

bool lease_ledger::is_done(std::size_t index) const
{
    check_index(index);
    return state_[index] == point_state::done;
}

bool lease_ledger::is_quarantined(std::size_t index) const
{
    check_index(index);
    return state_[index] == point_state::quarantined;
}

} // namespace acstab::core
