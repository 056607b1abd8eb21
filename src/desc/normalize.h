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

  // Forms come in two kinds (nf_store.h): interned forms are shared
  // through the store and carry an NfId; owned forms are built for one
  // individual, so only their value restrictions are interned. Each
  // entry point below fixes the kind it returns.

  /// \brief Normalizes a concept expression (CLOSE is rejected); interned.
  Result<NormalFormPtr> NormalizeConcept(const DescPtr& desc);

  /// \brief Normalizes an individual expression (CLOSE allowed); owned.
  Result<NormalFormPtr> NormalizeIndividualExpr(const DescPtr& desc);

  /// \brief Conjunction of two already-normalized forms; interned.
  NormalFormPtr Meet(const NormalForm& a, const NormalForm& b);

  /// \brief Conjunction of an individual's form `a` with `b`; owned.
  /// Returns `a` itself when `b` adds nothing to it.
  NormalFormPtr MeetOwned(const NormalFormPtr& a, const NormalForm& b);

  /// \brief Freezes a mutable form: tightens, then interns if enabled.
  NormalFormPtr Freeze(NormalForm nf);

  /// \brief Freezes a mutable form built for one individual; owned.
  NormalFormPtr FreezeOwned(NormalForm nf);

  const NormalFormStore& store() const { return store_; }
  Vocabulary* vocab() { return vocab_; }

 private:
  /// Normalizes `desc` into the mutable `nf` (not yet tightened).
  Status Build(const DescPtr& desc, bool allow_close, NormalForm* nf);

  /// Wraps a tightened form as owned.
  NormalFormPtr Own(NormalForm nf);

  /// Adds the constraints of `d` to `nf` (recursing through AND and
  /// resolving all names).
  Status Apply(const Description& d, bool allow_close, NormalForm* nf);

  Result<IndId> ResolveInd(const IndRef& ref);

  Vocabulary* vocab_;
  Options options_;
  NormalFormStore store_;
};

}  // namespace classic
