#include "dse/search.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "check/fuzz.h"
#include "common/config_error.h"
#include "core/run_result.h"
#include "dse/sweep.h"
#include "obs/json_io.h"
#include "workloads/registry.h"

namespace ara::dse {

namespace {

template <typename T>
std::vector<T> dedup(const std::vector<T>& in) {
  std::vector<T> out;
  for (const T& v : in) {
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

double metric(const SearchCandidate& c, Objective o) {
  switch (o) {
    case Objective::kPerf: return c.performance;
    case Objective::kPerfPerEnergy: return c.perf_per_energy;
    case Objective::kPerfPerArea: return c.perf_per_area;
  }
  return c.performance;
}

/// true iff `b` Pareto-dominates `a` (>= on every axis, > on one).
bool dominates(const SearchCandidate& b, const SearchCandidate& a) {
  const bool ge = b.performance >= a.performance &&
                  b.perf_per_energy >= a.perf_per_energy &&
                  b.perf_per_area >= a.perf_per_area;
  const bool gt = b.performance > a.performance ||
                  b.perf_per_energy > a.perf_per_energy ||
                  b.perf_per_area > a.perf_per_area;
  return ge && gt;
}

/// Objective-major ordering with the canonical label as tie-break, so
/// every ranking step is a total order independent of evaluation order.
struct ObjectiveOrder {
  Objective objective;
  bool operator()(const SearchCandidate& a, const SearchCandidate& b) const {
    const double ma = metric(a, objective);
    const double mb = metric(b, objective);
    if (ma != mb) return ma > mb;
    return a.spec.label() < b.spec.label();
  }
};

/// Runs evaluation rounds through dse::run and owns the warmth telemetry.
/// The trace is charged per optimizer round by the caller; inner runs are
/// untraced (outcome counts are reconstructed from the per-point flags).
class Evaluator {
 public:
  explicit Evaluator(const SearchRequest& request) : req_(request) {}

  /// Evaluate every spec at `scale_mult` x the problem's full-fidelity
  /// scale; results land in input order.
  std::vector<SearchCandidate> evaluate(const std::vector<PointSpec>& specs,
                                        double scale_mult,
                                        obs::Phase phase) {
    obs::ScopedSpan span(req_.trace, phase);
    const workloads::Workload wl = workloads::make_benchmark(
        req_.spec.workload, req_.spec.scale * scale_mult);
    SweepRequest rq;
    rq.jobs = req_.jobs;
    rq.cache = req_.cache;
    rq.coalescer = req_.coalescer;
    for (const PointSpec& s : specs) rq.add(s.to_config(), wl);
    const std::vector<SweepResult> results = run(rq);

    std::vector<SearchCandidate> out;
    out.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const SweepResult& r = results[i];
      evaluated_ += 1;
      wall_seconds_ += r.wall_seconds;
      if (r.from_cache) {
        cache_hits_ += 1;
        if (req_.trace != nullptr) req_.trace->hits += 1;
      } else if (r.coalesced) {
        coalesced_ += 1;
        if (req_.trace != nullptr) req_.trace->followers += 1;
      } else {
        simulated_ += 1;
        if (req_.trace != nullptr) req_.trace->misses += 1;
      }
      SearchCandidate c;
      c.spec = specs[i];
      c.makespan = static_cast<std::uint64_t>(r.result.makespan);
      c.performance = r.result.performance();
      c.perf_per_energy = r.result.perf_per_energy();
      c.perf_per_area = r.result.perf_per_island_area();
      c.energy_j = r.result.energy.total();
      c.area_mm2 = r.result.area.total();
      out.push_back(std::move(c));
    }
    return out;
  }

  std::uint64_t evaluated() const { return evaluated_; }
  std::uint64_t simulated() const { return simulated_; }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t coalesced() const { return coalesced_; }
  double wall_seconds() const { return wall_seconds_; }

 private:
  const SearchRequest& req_;
  std::uint64_t evaluated_ = 0;
  std::uint64_t simulated_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t coalesced_ = 0;
  double wall_seconds_ = 0;
};

/// Enumerate the whole (normalized) space in lexicographic knob order.
std::vector<PointSpec> enumerate_space(const SearchSpace& sp) {
  std::vector<PointSpec> out;
  for (const auto islands : sp.islands)
    for (const auto& net : sp.nets)
      for (const auto rings : sp.rings)
        for (const auto width : sp.widths)
          for (const auto ports : sp.ports)
            for (const bool sharing : sp.sharing)
              for (const bool mono : sp.mono)
                for (const auto& policy : sp.policies) {
                  PointSpec s;
                  s.islands = islands;
                  s.net = net;
                  s.rings = rings;
                  s.link_bytes = width;
                  s.ports = ports;
                  s.sharing = sharing;
                  s.mono = mono;
                  s.policy = policy;
                  out.push_back(std::move(s));
                }
  return out;
}

/// One sampled candidate: one pick per knob, in declaration order, off
/// the shared check::PointSampler stream.
PointSpec draw(check::PointSampler& sampler, const SearchSpace& sp) {
  PointSpec s;
  s.islands = sp.islands[sampler.pick(sp.islands.size())];
  s.net = sp.nets[sampler.pick(sp.nets.size())];
  s.rings = sp.rings[sampler.pick(sp.rings.size())];
  s.link_bytes = sp.widths[sampler.pick(sp.widths.size())];
  s.ports = sp.ports[sampler.pick(sp.ports.size())];
  s.sharing = sp.sharing[sampler.pick(sp.sharing.size())];
  s.mono = sp.mono[sampler.pick(sp.mono.size())];
  s.policy = sp.policies[sampler.pick(sp.policies.size())];
  return s;
}

/// `want` distinct candidates: rejection-sample the seeded stream, then
/// (if the stream keeps colliding) top up from lexicographic enumeration.
/// Pure function of (seed, space, want).
std::vector<PointSpec> sample_candidates(const SearchSpace& sp,
                                         std::uint64_t seed,
                                         std::uint64_t want) {
  check::PointSampler sampler(seed);
  std::set<std::string> seen;
  std::vector<PointSpec> out;
  const std::uint64_t max_attempts = 64 * want + 64;
  for (std::uint64_t attempts = 0; out.size() < want && attempts < max_attempts;
       ++attempts) {
    PointSpec s = draw(sampler, sp);
    if (seen.insert(s.label()).second) out.push_back(std::move(s));
  }
  // Top-up enumeration only for spaces small enough to materialize; in a
  // space this large the rejection stream cannot realistically stall, and
  // a (deterministic) shortfall only shrinks rung 0.
  if (out.size() < want && sp.size() <= (1u << 16)) {
    for (PointSpec& s : enumerate_space(sp)) {
      if (out.size() >= want) break;
      if (seen.insert(s.label()).second) out.push_back(std::move(s));
    }
  }
  return out;
}

/// Find `value`'s index in `values`; the space is normalized so it is
/// present exactly once.
template <typename T>
std::size_t index_of(const std::vector<T>& values, const T& value) {
  return static_cast<std::size_t>(
      std::find(values.begin(), values.end(), value) - values.begin());
}

/// Dimension-adjacent neighbours of `base`: for each knob, the previous
/// and next value in its (normalized) list, in declaration order.
std::vector<PointSpec> neighbours(const PointSpec& base,
                                  const SearchSpace& sp) {
  std::vector<PointSpec> out;
  auto step = [&out, &base](const auto& field_of, const auto& values,
                            const auto current) {
    const std::size_t idx = index_of(values, current);
    for (const int delta : {-1, +1}) {
      if (delta < 0 ? idx == 0 : idx + 1 >= values.size()) continue;
      PointSpec s = base;
      field_of(s) = values[delta < 0 ? idx - 1 : idx + 1];
      out.push_back(std::move(s));
    }
  };
  step([](PointSpec& s) -> auto& { return s.islands; }, sp.islands,
       base.islands);
  step([](PointSpec& s) -> auto& { return s.net; }, sp.nets, base.net);
  step([](PointSpec& s) -> auto& { return s.rings; }, sp.rings, base.rings);
  step([](PointSpec& s) -> auto& { return s.link_bytes; }, sp.widths,
       base.link_bytes);
  step([](PointSpec& s) -> auto& { return s.ports; }, sp.ports, base.ports);
  // vector<bool> has proxy references; handle the two bool knobs directly.
  {
    const std::size_t idx = index_of(sp.sharing, base.sharing);
    for (const int delta : {-1, +1}) {
      if (delta < 0 ? idx == 0 : idx + 1 >= sp.sharing.size()) continue;
      PointSpec s = base;
      s.sharing = sp.sharing[delta < 0 ? idx - 1 : idx + 1];
      out.push_back(std::move(s));
    }
  }
  {
    const std::size_t idx = index_of(sp.mono, base.mono);
    for (const int delta : {-1, +1}) {
      if (delta < 0 ? idx == 0 : idx + 1 >= sp.mono.size()) continue;
      PointSpec s = base;
      s.mono = sp.mono[delta < 0 ? idx - 1 : idx + 1];
      out.push_back(std::move(s));
    }
  }
  step([](PointSpec& s) -> auto& { return s.policy; }, sp.policies,
       base.policy);
  return out;
}

void candidate_json(std::ostringstream& os, const SearchCandidate& c) {
  os << "{\"spec\":{\"islands\":" << c.spec.islands << ",\"net\":\"";
  obs::json_escape(os, c.spec.net);
  os << "\",\"rings\":" << c.spec.rings << ",\"width\":" << c.spec.link_bytes
     << ",\"ports\":" << c.spec.ports
     << ",\"sharing\":" << (c.spec.sharing ? "true" : "false")
     << ",\"mono\":" << (c.spec.mono ? "true" : "false") << ",\"policy\":\"";
  obs::json_escape(os, c.spec.policy);
  os << "\"},\"makespan\":" << c.makespan << ",\"performance\":";
  obs::json_number(os, c.performance, 17);
  os << ",\"perf_per_energy\":";
  obs::json_number(os, c.perf_per_energy, 17);
  os << ",\"perf_per_area\":";
  obs::json_number(os, c.perf_per_area, 17);
  os << ",\"energy_j\":";
  obs::json_number(os, c.energy_j, 17);
  os << ",\"area_mm2\":";
  obs::json_number(os, c.area_mm2, 17);
  os << "}";
}

}  // namespace

SearchSpace SearchSpace::normalized() const {
  SearchSpace sp = *this;
  sp.islands = dedup(sp.islands);
  sp.nets = dedup(sp.nets);
  sp.rings = dedup(sp.rings);
  sp.widths = dedup(sp.widths);
  sp.ports = dedup(sp.ports);
  sp.sharing = dedup(sp.sharing);
  sp.mono = dedup(sp.mono);
  sp.policies = dedup(sp.policies);
  return sp;
}

std::uint64_t SearchSpace::size() const {
  const SearchSpace sp = normalized();
  std::uint64_t n = 1;
  n *= sp.islands.size();
  n *= sp.nets.size();
  n *= sp.rings.size();
  n *= sp.widths.size();
  n *= sp.ports.size();
  n *= sp.sharing.size();
  n *= sp.mono.size();
  n *= sp.policies.size();
  return n;
}

const char* objective_name(Objective o) {
  switch (o) {
    case Objective::kPerf: return "perf";
    case Objective::kPerfPerEnergy: return "perf_per_energy";
    case Objective::kPerfPerArea: return "perf_per_area";
  }
  return "perf";
}

bool objective_from_name(const std::string& name, Objective* out) {
  if (name == "perf") {
    *out = Objective::kPerf;
  } else if (name == "perf_per_energy") {
    *out = Objective::kPerfPerEnergy;
  } else if (name == "perf_per_area") {
    *out = Objective::kPerfPerArea;
  } else {
    return false;
  }
  return true;
}

void SearchSpec::validate() const {
  config_check(!workload.empty(), "search needs a workload name");
  config_check(scale > 0, "search scale must be positive");
  config_check(budget > 0, "search budget must be at least 1");
  const SearchSpace sp = space.normalized();
  config_check(!sp.islands.empty(), "search space: \"islands\" is empty");
  config_check(!sp.nets.empty(), "search space: \"nets\" is empty");
  config_check(!sp.rings.empty(), "search space: \"rings\" is empty");
  config_check(!sp.widths.empty(), "search space: \"widths\" is empty");
  config_check(!sp.ports.empty(), "search space: \"ports\" is empty");
  config_check(!sp.sharing.empty(), "search space: \"sharing\" is empty");
  config_check(!sp.mono.empty(), "search space: \"mono\" is empty");
  config_check(!sp.policies.empty(), "search space: \"policies\" is empty");
  // Per-dimension value check: knob validity never depends on the other
  // knobs, so defaults elsewhere suffice and this stays O(sum of lists)
  // instead of O(space size).
  auto probe = [](PointSpec s) { s.to_config().validate(); };
  for (const auto v : sp.islands) {
    PointSpec s;
    s.islands = v;
    probe(s);
  }
  for (const auto& v : sp.nets) {
    PointSpec s;
    s.net = v;
    probe(s);
  }
  for (const auto v : sp.rings) {
    PointSpec s;
    s.rings = v;
    probe(s);
  }
  for (const auto v : sp.widths) {
    PointSpec s;
    s.link_bytes = v;
    probe(s);
  }
  for (const auto v : sp.ports) {
    PointSpec s;
    s.ports = v;
    probe(s);
  }
  for (const auto& v : sp.policies) {
    PointSpec s;
    s.policy = v;
    probe(s);
  }
}

SearchResult search(const SearchRequest& request) {
  const SearchSpec& spec = request.spec;
  spec.validate();
  const SearchSpace sp = spec.space.normalized();

  SearchResult out;
  out.workload = spec.workload;
  out.scale = spec.scale;
  out.objective = spec.objective;
  out.budget = spec.budget;
  out.seed = spec.seed;
  out.space_size = sp.size();

  Evaluator eval(request);
  const ObjectiveOrder order{spec.objective};
  // Every full-fidelity evaluation, keyed by canonical label (ordered map
  // => deterministic frontier assembly).
  std::map<std::string, SearchCandidate> full;
  auto record_full = [&full](const std::vector<SearchCandidate>& cands) {
    for (const SearchCandidate& c : cands) full.emplace(c.spec.label(), c);
  };

  if (spec.budget >= out.space_size) {
    // Grid mode: the budget covers the whole space, so the "search" is an
    // exhaustive full-fidelity sweep and the frontier is exact.
    const std::vector<PointSpec> specs = enumerate_space(sp);
    record_full(eval.evaluate(specs, 1.0, obs::Phase::kSample));
    out.stages.push_back(
        {"exhaustive", 1.0, static_cast<std::uint64_t>(specs.size()),
         static_cast<std::uint64_t>(specs.size())});
  } else {
    // Successive halving: reserve ~1/4 of the budget for refinement, size
    // rung 0 so the halving schedule fits the rest.
    const std::uint64_t refine_budget = spec.budget / 4;
    const std::uint64_t halve_budget = spec.budget - refine_budget;
    std::vector<double> mults;
    if (halve_budget >= 7) {
      mults = {0.25, 0.5, 1.0};
    } else if (halve_budget >= 3) {
      mults = {0.5, 1.0};
    } else {
      mults = {1.0};
    }
    auto schedule_cost = [&mults](std::uint64_t n0) {
      std::uint64_t cost = 0;
      std::uint64_t n = n0;
      for (std::size_t i = 0; i < mults.size(); ++i) {
        cost += n;
        n = (n + 1) / 2;
      }
      return cost;
    };
    std::uint64_t n0 = 1;
    while (n0 < out.space_size && schedule_cost(n0 + 1) <= halve_budget) {
      ++n0;
    }

    std::vector<PointSpec> rung = sample_candidates(sp, spec.seed, n0);
    for (std::size_t i = 0; i < mults.size(); ++i) {
      const bool last = i + 1 == mults.size();
      const obs::Phase phase =
          i == 0 ? obs::Phase::kSample : obs::Phase::kHalve;
      std::vector<SearchCandidate> cands = eval.evaluate(rung, mults[i], phase);
      std::sort(cands.begin(), cands.end(), order);
      const std::uint64_t keep =
          last ? cands.size() : (cands.size() + 1) / 2;
      out.stages.push_back({i == 0 ? "sample" : "halve", mults[i],
                            static_cast<std::uint64_t>(cands.size()), keep});
      if (last) {
        record_full(cands);
      } else {
        rung.clear();
        for (std::uint64_t k = 0; k < keep; ++k) {
          rung.push_back(cands[k].spec);
        }
      }
    }

    // Local refinement: hill-climb dimension-adjacent neighbours of the
    // incumbent at full fidelity with whatever budget remains.
    auto incumbent = [&full, &order]() {
      const SearchCandidate* best = nullptr;
      for (const auto& [label, cand] : full) {
        if (best == nullptr || order(cand, *best)) best = &cand;
      }
      return *best;
    };
    std::uint64_t refine_evaluated = 0;
    SearchCandidate inc = incumbent();
    while (eval.evaluated() < spec.budget) {
      std::vector<PointSpec> batch;
      for (PointSpec& n : neighbours(inc.spec, sp)) {
        if (eval.evaluated() + batch.size() >= spec.budget) break;
        if (full.count(n.label()) != 0) continue;
        batch.push_back(std::move(n));
      }
      if (batch.empty()) break;
      record_full(eval.evaluate(batch, 1.0, obs::Phase::kRefine));
      refine_evaluated += batch.size();
      SearchCandidate next = incumbent();
      if (next.spec.label() == inc.spec.label()) break;
      inc = next;
    }
    out.stages.push_back({"refine", 1.0, refine_evaluated, 1});
  }

  // Pareto frontier over every full-fidelity evaluation.
  std::vector<SearchCandidate> all;
  all.reserve(full.size());
  for (const auto& [label, cand] : full) all.push_back(cand);
  for (const SearchCandidate& c : all) {
    bool dominated = false;
    for (const SearchCandidate& other : all) {
      if (dominates(other, c)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.frontier.push_back(c);
  }
  std::sort(out.frontier.begin(), out.frontier.end(), order);
  out.best = out.frontier.front();

  out.evaluated = eval.evaluated();
  out.simulated = eval.simulated();
  out.cache_hits = eval.cache_hits();
  out.coalesced = eval.coalesced();
  out.wall_seconds = eval.wall_seconds();
  return out;
}

std::string search_result_json(const SearchResult& r) {
  std::ostringstream os;
  os << "{\"workload\":\"";
  obs::json_escape(os, r.workload);
  os << "\",\"scale\":";
  obs::json_number(os, r.scale, 17);
  os << ",\"objective\":\"" << objective_name(r.objective)
     << "\",\"budget\":" << r.budget << ",\"seed\":" << r.seed
     << ",\"space_size\":" << r.space_size << ",\"evaluated\":" << r.evaluated
     << ",\"stages\":[";
  for (std::size_t i = 0; i < r.stages.size(); ++i) {
    const SearchStage& st = r.stages[i];
    if (i > 0) os << ",";
    os << "{\"name\":\"";
    obs::json_escape(os, st.name);
    os << "\",\"scale_mult\":";
    obs::json_number(os, st.scale_mult, 17);
    os << ",\"evaluated\":" << st.evaluated << ",\"kept\":" << st.kept << "}";
  }
  os << "],\"best\":";
  candidate_json(os, r.best);
  os << ",\"frontier\":[";
  for (std::size_t i = 0; i < r.frontier.size(); ++i) {
    if (i > 0) os << ",";
    candidate_json(os, r.frontier[i]);
  }
  os << "]}";
  return os.str();
}

}  // namespace ara::dse
