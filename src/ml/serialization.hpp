// Trained-model persistence.
//
// A deployed detector is trained once and shipped; this module saves and
// loads trained classifiers in a line-oriented text format:
//
//   hmd-model v1
//   scheme <name>
//   classes <k>
//   ...scheme-specific sections...
//   end
//
// Every registry scheme (ml::known_schemes()) is supported: ZeroR, OneR,
// DecisionStump, J48, JRip, NaiveBayes, MLR (Logistic), SVM, MLP, IBk,
// AdaBoostM1, Bagging, and the one-class family (OneClassSvm, KdeAnomaly,
// MahalanobisThreshold — the drift retrain loop round-trips these through
// deployment bundles). serialization.cpp keeps one save/load row per
// scheme, keyed by the scheme name the header carries.
// Round-trip is exact: a loaded model produces bit-identical predictions
// (all parameters serialize via hex-encoded doubles). The file is read by
// util/token_reader.hpp under the grammar it shares with bundles and
// snapshots; the loader also rejects shapes a model could not score:
// weight rows that do not match the standardizer width, and class indices
// outside `classes`.
#pragma once

#include <iosfwd>
#include <memory>

#include "ml/classifier.hpp"
#include "util/result.hpp"
#include "util/token_reader.hpp"

namespace hmd::ml {

/// Serialize a trained classifier. Throws hmd::PreconditionError for
/// unsupported or untrained models, and for a classifier whose name()
/// is a scheme its type does not implement.
void save_model(std::ostream& out, const Classifier& clf);

/// Reconstruct a classifier saved by save_model. Malformed input yields an
/// ErrorInfo (ErrCode::kParse) with a "loading model" context frame — the
/// primary load API; the resilience layer branches on it without unwinding.
Result<std::unique_ptr<Classifier>> try_load_model(std::istream& in);

/// Read one model from `reader` (throws ParseError). The bundle loader
/// passes its own, so errors name the bundle's line numbers.
std::unique_ptr<Classifier> read_model(TokenReader& reader);

/// Thin throwing wrapper over try_load_model: raises hmd::ParseError on
/// malformed input. Kept so pre-Result call sites compile unchanged.
std::unique_ptr<Classifier> load_model(std::istream& in);

}  // namespace hmd::ml
