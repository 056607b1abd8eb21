// Normalization: descriptions -> canonical normal forms.
//
// The Normalizer resolves names against a Vocabulary (undefined concepts,
// undeclared roles, unknown individuals and unregistered tests are
// errors), folds AND-compositions into a single constraint record, and
// runs NormalForm::Tighten to apply the derived-constraint rules of the
// paper's Section 2.2.
//
// An incoherent result is NOT an error: it is the bottom concept (e.g.
// `(AND (AT-LEAST 1 r) (AT-MOST 0 r))` normalizes to an incoherent form).
// Whether incoherence is acceptable is the caller's decision — a schema
// may define an unsatisfiable concept, while asserting one of an
// individual is an integrity violation.

#pragma once

#include <memory>
#include <vector>

#include "desc/description.h"
#include "desc/nf_store.h"
#include "desc/normal_form.h"
#include "desc/vocabulary.h"
#include "util/result.h"
#include "util/status.h"

namespace classic {

/// \brief Converts descriptions to normal forms against a Vocabulary.
class Normalizer {
 public:
  struct Options {
    /// Share structurally equal forms through a pool.
    bool intern_forms = true;
  };

  explicit Normalizer(Vocabulary* vocab) : vocab_(vocab) {}
  Normalizer(Vocabulary* vocab, Options options)
      : vocab_(vocab), options_(options) {}

  Normalizer(const Normalizer&) = delete;
  Normalizer& operator=(const Normalizer&) = delete;

  /// \brief Normalizes a concept expression (CLOSE is rejected).
  Result<NormalFormPtr> NormalizeConcept(const DescPtr& desc);

  /// \brief Normalizes an individual expression (CLOSE allowed).
  Result<NormalFormPtr> NormalizeIndividualExpr(const DescPtr& desc);

  /// \brief Conjunction of two already-normalized forms.
  NormalFormPtr Meet(const NormalForm& a, const NormalForm& b);

  /// \brief Freezes a mutable form (tightens, then interns if enabled).
  NormalFormPtr Freeze(NormalForm nf);

  const NormalFormStore& store() const { return store_; }
  Vocabulary* vocab() { return vocab_; }

 private:
  Result<NormalFormPtr> NormalizeImpl(const DescPtr& desc, bool allow_close);

  /// Adds the constraints of `d` to `nf` (recursing through AND and
  /// resolving all names).
  Status Apply(const Description& d, bool allow_close, NormalForm* nf);

  Result<IndId> ResolveInd(const IndRef& ref);

  Vocabulary* vocab_;
  Options options_;
  NormalFormStore store_;
};

}  // namespace classic
