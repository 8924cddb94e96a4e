#include "util/fault_injection.hpp"

#include <charconv>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace mrhs::util {

namespace {

[[nodiscard]] Status bad_spec(std::string_view item, const char* why) {
  return Status::invalid_argument("fault spec '" + std::string(item) +
                                  "': " + why);
}

/// Parse one `<site>@<when>[:sticky|:xN]` item.
Status parse_one(std::string_view item, std::uint64_t seed, FaultSpec& out) {
  const std::size_t at = item.find('@');
  if (at == std::string_view::npos || at == 0) {
    return bad_spec(item, "expected <site>@<hit|p=prob>");
  }
  out.site = std::string(item.substr(0, at));
  if (!is_known_fault_site(out.site)) {
    return bad_spec(item, "unknown site (see util::kFaultSites)");
  }
  std::string_view when = item.substr(at + 1);

  // Optional fire-count suffix.
  if (const std::size_t colon = when.rfind(':');
      colon != std::string_view::npos) {
    const std::string_view suffix = when.substr(colon + 1);
    when = when.substr(0, colon);
    if (suffix == "sticky") {
      out.max_fires = -1;
    } else if (suffix.size() > 1 && suffix[0] == 'x') {
      long count = 0;
      const auto [p, ec] = std::from_chars(
          suffix.data() + 1, suffix.data() + suffix.size(), count);
      if (ec != std::errc{} || p != suffix.data() + suffix.size() ||
          count <= 0) {
        return bad_spec(item, "bad fire-count suffix (want :sticky or :xN)");
      }
      out.max_fires = count;
    } else {
      return bad_spec(item, "bad suffix (want :sticky or :xN)");
    }
  }

  if (when.empty()) return bad_spec(item, "empty schedule");
  if (when.size() > 2 && when[0] == 'p' && when[1] == '=') {
    const std::string prob(when.substr(2));
    char* end = nullptr;
    const double p = std::strtod(prob.c_str(), &end);
    if (end != prob.c_str() + prob.size() || !(p >= 0.0) || !(p <= 1.0)) {
      return bad_spec(item, "probability must be in [0, 1]");
    }
    out.probability = p;
  } else {
    std::uint64_t hit = 0;
    const auto [p, ec] =
        std::from_chars(when.data(), when.data() + when.size(), hit);
    if (ec != std::errc{} || p != when.data() + when.size()) {
      return bad_spec(item, "hit index must be a non-negative integer");
    }
    out.at_hit = hit;
  }
  out.seed = seed;
  return Status::ok();
}

}  // namespace

Status parse_fault_specs(std::string_view text, std::uint64_t seed,
                         std::vector<FaultSpec>& out) {
  std::vector<FaultSpec> specs;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view item = text.substr(pos, comma - pos);
    if (item.empty()) {
      return Status::invalid_argument("empty item in fault spec list");
    }
    FaultSpec spec;
    if (Status s = parse_one(item, seed, spec); !s.is_ok()) return s;
    specs.push_back(std::move(spec));
    pos = comma + 1;
    if (comma == text.size()) break;
  }
  if (specs.empty()) {
    return Status::invalid_argument("empty fault spec list");
  }
  out = std::move(specs);
  return Status::ok();
}

#if MRHS_FAULTS

struct FaultRegistry::Impl {
  struct Site {
    std::vector<FaultSpec> specs;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    /// Fires already spent per spec (parallel to `specs`).
    std::vector<long> spent;
  };
  mutable std::mutex mu;
  std::unordered_map<std::string, Site> sites;
};

FaultRegistry::FaultRegistry() : impl_(new Impl) {}
FaultRegistry::~FaultRegistry() { delete impl_; }

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry registry;
  return registry;
}

Status FaultRegistry::arm(const FaultSpec& spec) {
  if (!is_known_fault_site(spec.site)) {
    return Status::invalid_argument("unknown fault site: " + spec.site);
  }
  if (spec.probability > 1.0) {
    return Status::invalid_argument("fault probability > 1");
  }
  if (spec.max_fires == 0) {
    return Status::invalid_argument("max_fires must be nonzero (-1 = sticky)");
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  Impl::Site& site = impl_->sites[spec.site];
  site.specs.push_back(spec);
  site.spent.push_back(0);
  armed_.store(1, std::memory_order_relaxed);
  return Status::ok();
}

void FaultRegistry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->sites.clear();
  armed_.store(0, std::memory_order_relaxed);
}

bool FaultRegistry::fire(std::string_view site) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->sites.find(std::string(site));
  if (it == impl_->sites.end()) return false;
  Impl::Site& s = it->second;
  const std::uint64_t hit = s.hits++;
  bool fired = false;
  for (std::size_t i = 0; i < s.specs.size(); ++i) {
    const FaultSpec& spec = s.specs[i];
    if (spec.max_fires >= 0 && s.spent[i] >= spec.max_fires) continue;
    bool match;
    if (spec.probability >= 0.0) {
      // Counter-keyed decision: the draw for hit k of this site depends
      // only on (seed, k), never on how many faults already fired.
      StreamRng rng(spec.seed, hit);
      match = rng.uniform() < spec.probability;
    } else {
      // From the scheduled hit on, until the fire budget is spent:
      // once by default, N times with `:xN`, every hit when sticky.
      match = hit >= spec.at_hit;
    }
    if (match) {
      ++s.spent[i];
      fired = true;
    }
  }
  if (fired) {
    ++s.fires;
    OBS_COUNTER_ADD("faults.fired", 1);
  }
  return fired;
}

bool FaultRegistry::corrupt_nan(std::string_view site, double* data,
                                std::size_t n) {
  if (!fire(site)) return false;
  if (data == nullptr || n == 0) return true;
  // The poisoned index is keyed by (seed, fire count) so a rerun with
  // the same schedule corrupts the same element.
  std::uint64_t seed = 0x5eedULL;
  std::uint64_t fire_index = 0;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    const auto it = impl_->sites.find(std::string(site));
    if (it != impl_->sites.end()) {
      fire_index = it->second.fires;
      if (!it->second.specs.empty()) seed = it->second.specs.front().seed;
    }
  }
  StreamRng rng(seed ^ 0x9e3779b97f4a7c15ULL, fire_index);
  const std::size_t idx = static_cast<std::size_t>(
      rng.uniform() * static_cast<double>(n));
  data[idx < n ? idx : n - 1] = std::numeric_limits<double>::quiet_NaN();
  return true;
}

std::uint64_t FaultRegistry::hits(std::string_view site) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->sites.find(std::string(site));
  return it == impl_->sites.end() ? 0 : it->second.hits;
}

std::uint64_t FaultRegistry::fires(std::string_view site) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->sites.find(std::string(site));
  return it == impl_->sites.end() ? 0 : it->second.fires;
}

#endif  // MRHS_FAULTS

void FaultCli::add_to(ArgParser& args) {
  args.add("faults", faults_,
           "chaos schedule: <site>@<hit|p=prob>[:sticky|:xN],... "
           "(needs a build with MRHS_FAULTS)");
  args.add("fault-seed", seed_,
           "seed for probabilistic fault schedules and poison targets");
}

Status FaultCli::apply() const {
  if (faults_.empty()) return Status::ok();
#if MRHS_FAULTS
  std::vector<FaultSpec> specs;
  if (Status s = parse_fault_specs(faults_, static_cast<std::uint64_t>(seed_),
                                   specs);
      !s.is_ok()) {
    return s;
  }
  for (const FaultSpec& spec : specs) {
    if (Status s = FaultRegistry::instance().arm(spec); !s.is_ok()) return s;
  }
  return Status::ok();
#else
  return Status::invalid_argument(
      "--faults requires a build with fault injection compiled in "
      "(Debug, a sanitizer preset, or -DMRHS_FAULTS=ON)");
#endif
}

}  // namespace mrhs::util
