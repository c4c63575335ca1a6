#include "util/cli.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <iostream>
#include <stdexcept>

namespace udring {
namespace {

std::uint64_t parse_unsigned(const std::string& name,
                             const std::string& value) {
  std::uint64_t parsed = 0;
  const auto [end, error] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (value.empty() || error != std::errc{} ||
      end != value.data() + value.size()) {
    throw std::invalid_argument("--" + name +
                                ": expected an unsigned decimal, got '" +
                                value + "'");
  }
  return parsed;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "udring";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      // Only the unambiguous forms: --name=value, or bare --name (boolean).
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      } else {
        values_[arg.substr(2)] = "true";  // boolean flag
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

void Cli::register_flag(const std::string& name, const std::string& help,
                        const std::string& fallback) const {
  for (const auto& entry : registered_) {
    if (entry[0] == name) return;
  }
  registered_.push_back({name, help, fallback});
}

std::optional<std::string> Cli::get(const std::string& name, const std::string& help,
                                    const std::string& fallback) {
  register_flag(name, help, fallback);
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback.empty() ? std::nullopt : std::optional<std::string>(fallback);
  }
  return it->second;
}

std::size_t Cli::get_size(const std::string& name, std::size_t fallback,
                          const std::string& help) {
  register_flag(name, help, std::to_string(fallback));
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return static_cast<std::size_t>(parse_unsigned(name, it->second));
}

std::uint64_t Cli::get_u64(const std::string& name, std::uint64_t fallback,
                           const std::string& help) {
  register_flag(name, help, std::to_string(fallback));
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_unsigned(name, it->second);
}

bool Cli::get_flag(const std::string& name, const std::string& help) {
  register_flag(name, help, "false");
  const auto it = values_.find(name);
  return it != values_.end() && it->second != "false" && it->second != "0";
}

void Cli::reject_unknown_flags() const {
  std::string unknown;
  for (const auto& [name, value] : values_) {
    const bool known = std::any_of(
        registered_.begin(), registered_.end(),
        [&name](const auto& entry) { return entry[0] == name; });
    if (!known) unknown += (unknown.empty() ? "--" : ", --") + name;
  }
  if (!unknown.empty()) {
    throw std::invalid_argument("unknown flag(s): " + unknown +
                                " (see --help)");
  }
}

void Cli::print_help(const std::string& program_description) const {
  std::cout << program_ << " — " << program_description << "\n\nFlags:\n";
  for (const auto& [name, help, fallback] : registered_) {
    std::cout << "  --" << name;
    if (!fallback.empty()) std::cout << " (default: " << fallback << ")";
    std::cout << "\n      " << help << "\n";
  }
  std::cout << "  --help\n      Show this message.\n";
}

}  // namespace udring
