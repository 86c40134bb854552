#include "common/input.hpp"

namespace hybridnoc {

Flags::Flags(int argc, char** argv, int first, const std::vector<Decl>& known) {
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      throw InputError("unexpected argument '" + std::string(arg) + "'");
    }
    const auto named = [&](const Decl& d) { return arg.substr(2) == d.name; };
    const auto decl = std::find_if(known.begin(), known.end(), named);
    if (decl == known.end()) {
      throw InputError("unknown flag '" + std::string(arg) + "'");
    }
    Use use{decl->name, {}};
    for (int n = 0; n < decl->arity; ++n) {
      if (i + 1 >= argc || std::string_view(argv[i + 1]).starts_with("--")) {
        const int arity = decl->arity;
        throw InputError(std::string(arg) + " needs " +
                         (arity == 1 ? std::string("a value")
                                     : std::to_string(arity) + " values"));
      }
      use.values.emplace_back(argv[++i]);
    }
    uses_.push_back(std::move(use));
  }
}

std::vector<const Flags::Use*> Flags::all(std::string_view name) const {
  std::vector<const Use*> out;
  for (const Use& u : uses_) {
    if (u.name == name) out.push_back(&u);
  }
  return out;
}

const Flags::Use* Flags::last(std::string_view name) const {
  const auto it = std::find_if(uses_.rbegin(), uses_.rend(),
                               [&](const Use& u) { return u.name == name; });
  return it == uses_.rend() ? nullptr : &*it;
}

}  // namespace hybridnoc
