#include "desc/normalize.h"

#include "obs/metrics.h"
#include "util/string_util.h"

namespace classic {

NormalFormPtr Normalizer::Freeze(NormalForm nf) {
  nf.Tighten(*vocab_);
  if (options_.intern_forms) return store_.Intern(std::move(nf));
  return std::make_shared<const NormalForm>(std::move(nf));
}

NormalFormPtr Normalizer::FreezeOwned(NormalForm nf) {
  nf.Tighten(*vocab_);
  return Own(std::move(nf));
}

NormalFormPtr Normalizer::Own(NormalForm nf) {
  if (options_.intern_forms) return store_.Own(std::move(nf));
  return std::make_shared<const NormalForm>(std::move(nf));
}

Result<NormalFormPtr> Normalizer::NormalizeConcept(const DescPtr& desc) {
  NormalForm nf;
  CLASSIC_RETURN_NOT_OK(Build(desc, /*allow_close=*/false, &nf));
  return Freeze(std::move(nf));
}

Result<NormalFormPtr> Normalizer::NormalizeIndividualExpr(
    const DescPtr& desc) {
  NormalForm nf;
  CLASSIC_RETURN_NOT_OK(Build(desc, /*allow_close=*/true, &nf));
  return FreezeOwned(std::move(nf));
}

NormalFormPtr Normalizer::Meet(const NormalForm& a, const NormalForm& b) {
  // Pointer fast paths: interning makes "same object" a common case, and
  // meeting with THING is the identity.
  if (&a == &b && a.interned_id() != kNoNfId) {
    return store_.form(a.interned_id());
  }
  NormalForm met = MeetNormalFormsValue(a, b, *vocab_);
  if (options_.intern_forms) return store_.Intern(std::move(met));
  return std::make_shared<const NormalForm>(std::move(met));
}

NormalFormPtr Normalizer::MeetOwned(const NormalFormPtr& a,
                                    const NormalForm& b) {
  NormalForm met = MeetNormalFormsValue(*a, b, *vocab_);
  if (met.Equals(*a)) return a;
  return Own(std::move(met));
}

Status Normalizer::Build(const DescPtr& desc, bool allow_close,
                         NormalForm* nf) {
  if (desc == nullptr) {
    return Status::InvalidArgument("null description");
  }
  CLASSIC_OBS_COUNT(kNormalizations);
  return Apply(*desc, allow_close, nf);
}

Result<IndId> Normalizer::ResolveInd(const IndRef& ref) {
  if (ref.is_named()) return vocab_->FindIndividual(ref.name());
  return vocab_->InternHostValue(ref.host());
}

Status Normalizer::Apply(const Description& d, bool allow_close,
                         NormalForm* nf) {
  switch (d.kind()) {
    case DescKind::kThing:
      return Status::OK();

    case DescKind::kNothing:
      nf->MarkIncoherent(IncoherenceKind::kNothing,
                         "the NOTHING concept is unsatisfiable");
      return Status::OK();

    case DescKind::kClassicThing:
      nf->AddAtom(vocab_->classic_thing_atom(), *vocab_);
      return Status::OK();

    case DescKind::kHostThing:
      nf->AddAtom(vocab_->host_thing_atom(), *vocab_);
      return Status::OK();

    case DescKind::kBuiltin:
      nf->AddAtom(vocab_->builtin_atom(d.builtin()), *vocab_);
      return Status::OK();

    case DescKind::kConceptName: {
      CLASSIC_ASSIGN_OR_RETURN(ConceptId cid, vocab_->FindConcept(d.name()));
      MergeNormalFormInto(nf, *vocab_->concept_info(cid).normal_form, *vocab_);
      return Status::OK();
    }

    case DescKind::kPrimitive: {
      CLASSIC_RETURN_NOT_OK(Apply(*d.child(), allow_close, nf));
      nf->AddAtom(vocab_->PrimitiveAtom(d.name()), *vocab_);
      return Status::OK();
    }

    case DescKind::kDisjointPrimitive: {
      CLASSIC_RETURN_NOT_OK(Apply(*d.child(), allow_close, nf));
      CLASSIC_ASSIGN_OR_RETURN(
          AtomId atom, vocab_->DisjointPrimitiveAtom(d.group(), d.name()));
      nf->AddAtom(atom, *vocab_);
      return Status::OK();
    }

    case DescKind::kOneOf: {
      IdSet<IndId> members;
      for (const IndRef& ref : d.members()) {
        CLASSIC_ASSIGN_OR_RETURN(IndId id, ResolveInd(ref));
        members.insert(id);
      }
      nf->IntersectEnumeration(members);
      return Status::OK();
    }

    case DescKind::kAll: {
      CLASSIC_ASSIGN_OR_RETURN(RoleId role, vocab_->FindRole(d.role()));
      CLASSIC_ASSIGN_OR_RETURN(NormalFormPtr vr, NormalizeConcept(d.child()));
      RoleRestriction* rr = nf->MutableRole(role, *vocab_);
      rr->value_restriction =
          rr->value_restriction
              ? Meet(*rr->value_restriction, *vr)
              : vr;
      return Status::OK();
    }

    case DescKind::kAtLeast: {
      CLASSIC_ASSIGN_OR_RETURN(RoleId role, vocab_->FindRole(d.role()));
      RoleRestriction* rr = nf->MutableRole(role, *vocab_);
      rr->at_least = std::max(rr->at_least, d.bound());
      return Status::OK();
    }

    case DescKind::kAtMost: {
      CLASSIC_ASSIGN_OR_RETURN(RoleId role, vocab_->FindRole(d.role()));
      RoleRestriction* rr = nf->MutableRole(role, *vocab_);
      rr->at_most = std::min(rr->at_most, d.bound());
      return Status::OK();
    }

    case DescKind::kSameAs: {
      // Co-reference is only meaningful over single-valued chains (the
      // paper's restriction). The FIRST step of a path may be any role —
      // SAME-AS then derives an AT-MOST 1 on it (DOMESTIC-CRIME constrains
      // its multi-valued perpetrator this way) — but deeper steps apply to
      // other objects, where only a declared attribute guarantees
      // single-valuedness.
      auto resolve_path = [&](const std::vector<Symbol>& names)
          -> Result<RolePath> {
        if (names.empty()) {
          return Status::InvalidArgument("SAME-AS path must be non-empty");
        }
        RolePath path;
        for (size_t i = 0; i < names.size(); ++i) {
          CLASSIC_ASSIGN_OR_RETURN(RoleId role, vocab_->FindRole(names[i]));
          if (i > 0 && !vocab_->role(role).attribute) {
            return Status::InvalidArgument(StrCat(
                "SAME-AS chains require attributes beyond the first step; ",
                vocab_->symbols().Name(names[i]), " is multi-valued"));
          }
          path.push_back(role);
        }
        return path;
      };
      CLASSIC_ASSIGN_OR_RETURN(RolePath p1, resolve_path(d.path1()));
      CLASSIC_ASSIGN_OR_RETURN(RolePath p2, resolve_path(d.path2()));
      nf->mutable_coref()->Equate(p1, p2);
      // Attribute records along the first step exist so Tighten can merge
      // them (deeper steps are handled by the KB's propagation engine).
      nf->MutableRole(p1[0], *vocab_);
      nf->MutableRole(p2[0], *vocab_);
      return Status::OK();
    }

    case DescKind::kFills: {
      CLASSIC_ASSIGN_OR_RETURN(RoleId role, vocab_->FindRole(d.role()));
      RoleRestriction* rr = nf->MutableRole(role, *vocab_);
      for (const IndRef& ref : d.members()) {
        CLASSIC_ASSIGN_OR_RETURN(IndId id, ResolveInd(ref));
        rr->fillers.insert(id);
      }
      return Status::OK();
    }

    case DescKind::kClose: {
      if (!allow_close) {
        return Status::InvalidArgument(
            "CLOSE is only allowed when describing individuals");
      }
      CLASSIC_ASSIGN_OR_RETURN(RoleId role, vocab_->FindRole(d.role()));
      nf->MutableRole(role, *vocab_)->closed = true;
      return Status::OK();
    }

    case DescKind::kAnd: {
      for (const DescPtr& c : d.conjuncts()) {
        CLASSIC_RETURN_NOT_OK(Apply(*c, allow_close, nf));
      }
      return Status::OK();
    }

    case DescKind::kTest: {
      if (!vocab_->HasTest(d.name())) {
        return Status::NotFound(StrCat("unregistered test function: ",
                                       vocab_->symbols().Name(d.name())));
      }
      nf->AddTest(d.name());
      return Status::OK();
    }
  }
  return Status::Internal("unhandled description kind");
}

}  // namespace classic
