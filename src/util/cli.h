// udring/util/cli.h
//
// A tiny command-line flag parser for the example binaries. Supports the
// unambiguous forms `--name=value`, boolean `--name`, and `--help`; anything
// else is positional. Examples stay dependency-free while still being
// configurable (ring size, agent count, scheduler, seed).

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace udring {

/// Parsed command line. Construct from main()'s argc/argv, then query flags.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// Registers a flag for --help output and returns its value if present.
  [[nodiscard]] std::optional<std::string> get(const std::string& name,
                                               const std::string& help,
                                               const std::string& fallback = "");

  /// Typed accessors with defaults. A value that is not a whole unsigned
  /// decimal (empty, a sign, trailing junk, overflow) throws
  /// std::invalid_argument naming the flag.
  [[nodiscard]] std::size_t get_size(const std::string& name, std::size_t fallback,
                                     const std::string& help);
  [[nodiscard]] std::uint64_t get_u64(const std::string& name, std::uint64_t fallback,
                                      const std::string& help);
  [[nodiscard]] bool get_flag(const std::string& name, const std::string& help);

  /// Throws std::invalid_argument listing every --flag on the command line
  /// that no get* call registered. Call it after the last get*.
  void reject_unknown_flags() const;

  /// True if --help was passed; callers should print_help() and exit.
  [[nodiscard]] bool wants_help() const noexcept { return help_requested_; }

  /// Prints a usage block listing every flag registered via get* calls.
  void print_help(const std::string& program_description) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  // name -> (help text, default shown in --help)
  mutable std::vector<std::array<std::string, 3>> registered_;
  bool help_requested_ = false;

  void register_flag(const std::string& name, const std::string& help,
                     const std::string& fallback) const;
};

}  // namespace udring
