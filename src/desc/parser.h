// Parsing s-expressions into description ASTs.
//
// This is a purely syntactic translation: names are interned but not
// resolved (the Normalizer resolves them against the Vocabulary). The
// parser also implements the macro facility the paper announces as future
// work ("It is our intention to add a macro-definition facility ... such
// as EXACTLY-ONE"): EXACTLY and EXACTLY-ONE expand to AT-LEAST/AT-MOST
// conjunctions.

#pragma once

#include "desc/description.h"
#include "sexpr/sexpr.h"
#include "util/intern.h"
#include "util/result.h"

namespace classic {

/// \brief Parses a concept or individual expression.
///
/// Accepts the Appendix A grammar: THING | CLASSIC-THING | HOST-THING |
/// built-in host concepts | concept names | (PRIMITIVE ...) |
/// (DISJOINT-PRIMITIVE ...) | (ONE-OF ...) | (ALL ...) | (AT-LEAST ...) |
/// (AT-MOST ...) | (SAME-AS ...) | (FILLS ...) | (CLOSE ...) | (AND ...) |
/// (TEST ...) plus the EXACTLY / EXACTLY-ONE macros. Whether CLOSE is
/// legal in the context is decided later by the Normalizer.
Result<DescPtr> ParseDescription(const sexpr::Value& v, SymbolTable* symbols);

/// \brief Parses an individual reference: a bare symbol (named
/// individual), an integer/real/string literal, or #t/#f (host booleans).
Result<IndRef> ParseIndRef(const sexpr::Value& v, SymbolTable* symbols);

/// \brief Convenience: parse a description from source text.
Result<DescPtr> ParseDescriptionString(const std::string& text,
                                       SymbolTable* symbols);

}  // namespace classic
