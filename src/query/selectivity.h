// Static selectivity estimation shared by the schema profile (PR 9,
// classic_lint --profile) and the query planner (query/planner.h).
//
// The estimate is purely structural — no extension is consulted — so it
// is a *prior*: the planner blends it with live observations (actual
// postings lengths, instance-set sizes) to estimate residual
// cardinalities in (explain ...) plans — never to choose an access
// path — and the profile reports it per concept so a reviewer
// can read the planner's prior without running queries.

#pragma once

#include "desc/normal_form.h"
#include "desc/vocabulary.h"

namespace classic {

/// \brief Static instance-selectivity estimate of a normal form: the
/// modeled fraction of a generic individual population recognized as an
/// instance. Every primitive atom halves the estimate (quarters it for
/// disjoint-group atoms, which partition their siblings), an enumeration
/// caps it at |enum| / 1024, required roles halve, bounded roles take
/// 3/4, a value restriction averages in its own selectivity, and each
/// TEST or co-reference halves. Incoherent forms have selectivity 0.
/// The exact constants are arbitrary; what matters is the deterministic
/// relative order (more constrained => smaller).
double StaticSelectivity(const NormalForm& nf, const Vocabulary& vocab);

}  // namespace classic
