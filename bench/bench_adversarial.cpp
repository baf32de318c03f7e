// Adversarial robustness: evasion attack vs the stochastic ensemble
// defense (Kuruvila et al., arXiv:2005.03644), on the thesis's detectors.
//
// One seeded evasion campaign (workload/evasion.hpp) perturbs every
// malware family's generative parameters toward the benign footprint,
// scored against a frozen surrogate detector; the clean and adversarial
// datasets are then built from the SAME composition and seeds, so the
// benign rows are byte-identical and only the malware windows move. Every
// registry scheme is trained once on the clean training split and
// evaluated on both test splits — the classic transfer study: the
// white-box victim is the surrogate, everyone else sees a transferred
// attack.
//
// For each ATTACKED scheme (adversarial accuracy drop > 2 points) the
// bench then serves that scheme as the primary of a five-member ensemble
// (four frozen diverse members from a fixed preference list) and scores
// the test windows through the real serve::ScoringPolicy — majority vote
// and seeded stochastic selection — measuring how much of the attacked
// scheme's accuracy drop each policy recovers:
//
//   recovery = (policy_adv_acc - scheme_adv_acc) / (clean - adv drop)
//
// The headline criterion (mirrored into the JSON summary): the stochastic
// policy recovers >= 50% of the drop for a majority of attacked schemes.
//
// Emits BENCH_adversarial.json and mirrors every row as a [bench] stderr
// line for CI greps.
//
// Scale knobs (environment):
//   HMD_ADV_SCALE_PCT  database scale vs Table 1, percent (default 5)
//   HMD_ADV_WINDOWS    windows per sample          (default 6)
//   HMD_ADV_OPS        simulated ops per window    (default 2000)
//   HMD_ADV_ITERS      evasion iterations/family   (default 128)
//   HMD_ADV_SURROGATE  surrogate scheme            (default MLR)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/dataset_builder.hpp"
#include "ml/evaluation.hpp"
#include "ml/registry.hpp"
#include "serve/ensemble_policy.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/app_class.hpp"
#include "workload/evasion.hpp"

namespace {

using namespace hmd;

std::string env_or_str(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : fallback;
}

/// Accuracy drop below which a scheme counts as unaffected by the attack.
constexpr double kAttackedDrop = 0.02;
constexpr std::uint64_t kSplitSeed = 7;
constexpr std::uint64_t kPolicySeed = 0xd5;

struct FamilyRow {
  std::string family;
  double clean_score = 0.0;   ///< surrogate P(malware), unperturbed
  double evaded_score = 0.0;  ///< surrogate P(malware), perturbed
  std::uint64_t fingerprint = 0;
};

struct SchemeRow {
  std::string scheme;
  double clean_acc = 0.0;
  double adv_acc = 0.0;
  double majority_clean = 0.0;
  double majority_adv = 0.0;
  double stochastic_clean = 0.0;
  double stochastic_adv = 0.0;
  double best_single_adv = 0.0;  ///< best member model alone, under attack
  bool attacked = false;
  double recovery = 0.0;  ///< stochastic, fraction of the drop recovered
  bool recovered = false;
};

/// Window-level accuracy of a ScoringPolicy over a binary test set, with
/// each row treated as one window of one stream (ordinal = row index) —
/// the same keying the engine derives from per-stream scored-window
/// counts, so the stochastic selection here is the one serving would make.
double policy_accuracy(const serve::ScoringPolicy& policy,
                       const ml::Classifier& primary,
                       const ml::Dataset& test) {
  const std::size_t n = test.num_instances();
  const std::size_t width = test.num_features();
  std::vector<double> flat;
  flat.reserve(n * width);
  std::vector<serve::ScoringPolicy::WindowKey> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = test.features_of(i);
    flat.insert(flat.end(), row.begin(), row.end());
    keys[i] = {0, i};
  }
  std::vector<double> dist(n * 2);
  std::vector<std::uint64_t> versions(n);
  serve::ScoringPolicy::Scratch scratch;
  policy.score(primary, 1, flat, width, keys, dist, versions, scratch);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t predicted = dist[i * 2 + 1] > 0.5 ? 1 : 0;
    if (predicted == test.class_of(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

void write_json(const std::string& path, const core::PipelineConfig& cfg,
                double scale, std::size_t iters,
                const std::string& surrogate,
                const std::vector<FamilyRow>& families,
                const std::vector<SchemeRow>& schemes,
                std::size_t attacked, std::size_t recovered,
                bool criterion_met) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"metadata\": " << bench::metadata_json("  ").substr(2) << ",\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"windows\": " << cfg.collector.num_windows << ",\n"
      << "  \"ops_per_window\": " << cfg.collector.ops_per_window << ",\n"
      << "  \"evade_iterations\": " << iters << ",\n"
      << "  \"surrogate\": \"" << surrogate << "\",\n"
      << "  \"families\": [\n";
  for (std::size_t i = 0; i < families.size(); ++i) {
    const FamilyRow& f = families[i];
    out << "    {\"family\": \"" << f.family
        << "\", \"surrogate_clean_score\": " << f.clean_score
        << ", \"surrogate_evaded_score\": " << f.evaded_score
        << ", \"perturbation_fingerprint\": " << f.fingerprint << "}"
        << (i + 1 < families.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"schemes\": [\n";
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const SchemeRow& r = schemes[i];
    out << "    {\"scheme\": \"" << r.scheme
        << "\", \"clean_accuracy\": " << r.clean_acc
        << ", \"adversarial_accuracy\": " << r.adv_acc
        << ", \"drop\": " << r.clean_acc - r.adv_acc
        << ", \"majority_clean\": " << r.majority_clean
        << ", \"majority_adversarial\": " << r.majority_adv
        << ", \"stochastic_clean\": " << r.stochastic_clean
        << ", \"stochastic_adversarial\": " << r.stochastic_adv
        << ", \"best_single_adversarial\": " << r.best_single_adv
        << ", \"attacked\": " << (r.attacked ? "true" : "false")
        << ", \"stochastic_recovery\": " << r.recovery
        << ", \"recovered\": " << (r.recovered ? "true" : "false") << "}"
        << (i + 1 < schemes.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"summary\": {\"attacked_schemes\": " << attacked
      << ", \"recovered_schemes\": " << recovered
      << ", \"criterion\": \"stochastic recovers >= 50% of the drop for a "
         "majority of attacked schemes\""
      << ", \"criterion_met\": " << (criterion_met ? "true" : "false")
      << "}\n}\n";
}

}  // namespace

int main() {
  bench::init_observability();
  const double scale =
      static_cast<double>(bench::env_size("HMD_ADV_SCALE_PCT", 5)) / 100.0;
  core::PipelineConfig cfg;
  cfg.composition = workload::DatabaseComposition::scaled(scale);
  cfg.collector.num_windows = bench::env_size("HMD_ADV_WINDOWS", 6);
  cfg.collector.ops_per_window = bench::env_size("HMD_ADV_OPS", 2000);
  const std::size_t iters = bench::env_size("HMD_ADV_ITERS", 128);
  const std::string surrogate_scheme = env_or_str("HMD_ADV_SURROGATE", "MLR");

  std::fprintf(stderr,
               "[bench] adversarial: scale %.2f, %zu samples x %zu windows, "
               "%zu evasion iters, surrogate %s\n",
               scale, cfg.composition.total(), cfg.collector.num_windows,
               iters, surrogate_scheme.c_str());

  const auto build_binary = [&cfg](const char* what) {
    core::DatasetBuilder builder(cfg);
    std::fprintf(stderr, "[bench] building %s dataset...\n", what);
    return core::DatasetBuilder::to_binary(
        builder.build_multiclass_dataset({}, &bench::bench_pool()));
  };

  const ml::Dataset clean = build_binary("clean");
  Rng split_rng(kSplitSeed);
  const auto [clean_train, clean_test] =
      clean.stratified_split(0.7, split_rng);

  // Train every registry scheme once on the clean training split; frozen
  // shared models double as ensemble members below.
  const std::vector<std::string> schemes = ml::known_schemes();
  std::vector<std::shared_ptr<const ml::Classifier>> models;
  std::vector<SchemeRow> rows(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::shared_ptr<ml::Classifier> model =
        ml::make_classifier(schemes[s]);
    model->train(clean_train);
    rows[s].scheme = schemes[s];
    rows[s].clean_acc = ml::evaluate(*model, clean_test).accuracy();
    models.push_back(std::move(model));
  }

  const auto scheme_index = [&schemes](const std::string& name) {
    const auto it = std::find(schemes.begin(), schemes.end(), name);
    HMD_REQUIRE(it != schemes.end(),
                "bench_adversarial: unknown scheme " + name);
    return static_cast<std::size_t>(it - schemes.begin());
  };
  const std::size_t surrogate_idx = scheme_index(surrogate_scheme);

  // The seeded evasion campaign: one within-budget perturbation per
  // malware family, attacking the frozen surrogate.
  workload::EvasionConfig evasion;
  evasion.iterations = iters;
  // A strong but structure-preserving attacker: wider per-knob rescaling
  // and a heavier benign facade than the library defaults, still within
  // the budget the property tests pin (phases never removed/reordered).
  evasion.budget.max_rel_step = 0.45;
  evasion.budget.max_facade_weight = 0.50;
  evasion.step = 0.18;
  {
    // Probe windows keep the real per-window op count (counter magnitudes
    // must match the surrogate's training data) but the short probe shape.
    const std::size_t probe_windows = evasion.collector.num_windows;
    const std::size_t probe_warmup = evasion.collector.warmup_windows;
    evasion.collector = cfg.collector;
    evasion.collector.num_windows = probe_windows;
    evasion.collector.warmup_windows = probe_warmup;
  }
  const std::uint64_t base_seed = evasion.seed;
  workload::EvasionPlan plan;
  std::vector<FamilyRow> families;
  for (workload::AppClass family : workload::malware_classes()) {
    evasion.seed = base_seed + static_cast<std::uint64_t>(family);
    const workload::EvasionResult r = workload::evade_family(
        family, *models[surrogate_idx], evasion);
    FamilyRow row;
    row.family = std::string(workload::app_class_name(family));
    row.clean_score = r.clean_score;
    row.evaded_score = r.evaded_score;
    row.fingerprint = r.perturbation.fingerprint();
    families.push_back(row);
    std::fprintf(stderr,
                 "[bench] evade %-9s surrogate P(malware) %.3f -> %.3f "
                 "(%zu accepted steps)\n",
                 row.family.c_str(), row.clean_score, row.evaded_score,
                 r.accepted_steps);
    plan.set(family, r.perturbation);
  }
  cfg.evasion = plan;

  // Same composition + seeds, perturbed malware: the adversarial twin.
  // Identical row order and labels, so the same split RNG state yields
  // the row-for-row matching test partition.
  const ml::Dataset adv = build_binary("adversarial");
  Rng adv_split_rng(kSplitSeed);
  const auto [adv_train, adv_test] = adv.stratified_split(0.7, adv_split_rng);

  for (std::size_t s = 0; s < schemes.size(); ++s)
    rows[s].adv_acc = ml::evaluate(*models[s], adv_test).accuracy();

  // Ensemble members: the first four preference-list schemes that are
  // neither the primary nor the attack's white-box surrogate (odd total
  // of 5, as majority vote requires). Preference order is by resistance
  // to TRANSFERRED evasion: margin- (SVM), density- (KDE) and
  // single-feature (OneR/stump) decision surfaces barely move under an
  // attack tuned against a different model — that resistance is what the
  // ensemble spends while the attacked primary stays in the rotation.
  const std::vector<std::string> member_prefs = {
      "SVM", "KdeAnomaly", "OneR", "DecisionStump", "JRip"};
  std::size_t attacked = 0, recovered = 0;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    SchemeRow& r = rows[s];
    serve::EnsembleConfig ens;
    ens.seed = kPolicySeed;
    r.best_single_adv = r.adv_acc;
    for (const std::string& pref : member_prefs) {
      if (pref == r.scheme || pref == surrogate_scheme ||
          ens.members.size() == 4)
        continue;
      const std::size_t m = scheme_index(pref);
      ens.members.push_back({pref, models[m], 1001 + ens.members.size()});
      r.best_single_adv = std::max(r.best_single_adv, rows[m].adv_acc);
    }

    ens.kind = serve::EnsembleConfig::Kind::kMajority;
    {
      const serve::ScoringPolicy majority(ens);
      r.majority_clean = policy_accuracy(majority, *models[s], clean_test);
      r.majority_adv = policy_accuracy(majority, *models[s], adv_test);
    }
    ens.kind = serve::EnsembleConfig::Kind::kStochastic;
    {
      const serve::ScoringPolicy stochastic(ens);
      r.stochastic_clean =
          policy_accuracy(stochastic, *models[s], clean_test);
      r.stochastic_adv = policy_accuracy(stochastic, *models[s], adv_test);
    }

    const double drop = r.clean_acc - r.adv_acc;
    r.attacked = drop > kAttackedDrop;
    r.recovery = drop > 0.0 ? (r.stochastic_adv - r.adv_acc) / drop : 0.0;
    r.recovered = r.attacked && r.recovery >= 0.5;
    attacked += r.attacked ? 1 : 0;
    recovered += r.recovered ? 1 : 0;
    std::fprintf(stderr,
                 "[bench] %-20s clean %.3f adv %.3f | majority %.3f | "
                 "stochastic %.3f (recovery %5.1f%%)%s\n",
                 r.scheme.c_str(), r.clean_acc, r.adv_acc, r.majority_adv,
                 r.stochastic_adv, 100.0 * r.recovery,
                 r.attacked ? (r.recovered ? "  ATTACKED+RECOVERED"
                                           : "  ATTACKED") : "");
  }

  const bool criterion_met = attacked > 0 && 2 * recovered > attacked;
  std::fprintf(stderr,
               "[bench] adversarial summary: %zu/%zu attacked schemes "
               "recovered >= 50%% by the stochastic ensemble -> criterion "
               "%s\n",
               recovered, attacked, criterion_met ? "MET" : "NOT MET");

  const std::string path = "BENCH_adversarial.json";
  write_json(path, cfg, scale, iters, surrogate_scheme, families, rows,
             attacked, recovered, criterion_met);
  std::fprintf(stderr, "[bench] adversarial results written to %s\n",
               path.c_str());
  return 0;
}
