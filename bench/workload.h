// Synthetic workload generators for the benchmark harness.
//
// The paper's applications (an AT&T configuration task, the LaSSIE-style
// software KB with "several hundred concepts and several thousand
// individuals") are proprietary; these generators reproduce their *shape*:
// layered primitive taxonomies, defined concepts with role restrictions
// over them, role-structured individuals, and heuristic rule chains. All
// generation is deterministic in the seed.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "classic/database.h"
#include "desc/description.h"
#include "util/rng.h"

namespace classic::bench {

/// \brief Builds a concept expression of approximately `size` constructor
/// applications: a conjunction of primitives, bounds and nested ALL
/// restrictions, deterministic in `seed`. Used by E1/E6 to measure cost vs
/// expression size. All names it uses are pre-declared by
/// PrepareExpressionVocabulary.
DescPtr MakeConceptOfSize(Database* db, size_t size, uint64_t seed);

/// \brief Declares the roles/primitives MakeConceptOfSize draws from.
void PrepareExpressionVocabulary(Database* db);

/// \brief Parameters for the synthetic schema generator.
struct SchemaSpec {
  /// Number of primitive concepts, arranged in layers.
  size_t num_primitives = 50;
  /// Number of *defined* concepts with role restrictions.
  size_t num_defined = 50;
  /// Primitive taxonomy branching factor.
  size_t branching = 4;
  /// Number of roles to declare.
  size_t num_roles = 12;
  uint64_t seed = 42;
};

/// \brief Names created by BuildSchema, for later reference.
struct SchemaHandles {
  std::vector<std::string> primitive_names;
  std::vector<std::string> defined_names;
  std::vector<std::string> role_names;
};

/// \brief Populates `db` with a layered schema: a tree of primitives
/// (PRIM-0 the root layer) and defined concepts that conjoin a primitive
/// with AT-LEAST / AT-MOST / ALL restrictions over other concepts.
SchemaHandles BuildSchema(Database* db, const SchemaSpec& spec);

/// \brief Parameters for the ABox generator.
struct AboxSpec {
  size_t num_individuals = 500;
  /// Average role assertions per individual.
  size_t fills_per_individual = 3;
  /// Probability an individual gets a direct primitive assertion.
  double primitive_assert_prob = 0.9;
  uint64_t seed = 7;
};

/// \brief Creates individuals named Ind-<i> and asserts primitive
/// memberships, fillers and occasional bounds. Returns the names.
std::vector<std::string> PopulateIndividuals(Database* db,
                                             const SchemaHandles& schema,
                                             const AboxSpec& spec);

/// \brief Parameters for the bulk (batch) ABox generator.
struct BulkSpec {
  size_t num_individuals = 1024;
  size_t fills_per_individual = 3;
  double primitive_assert_prob = 0.9;
  /// Role-graph topology knob: when nonzero, fillers only target
  /// individuals inside the same block of `island` consecutive
  /// individuals, yielding num_individuals/island disconnected islands.
  /// 0 targets any earlier individual — one giant weakly-connected
  /// component.
  size_t island = 0;
  uint64_t seed = 7;
};

/// \brief Same assertion mix as PopulateIndividuals, but applied through
/// Database::BulkAssert as one atomic batch (one propagation
/// wavefront). Returns the names.
std::vector<std::string> BulkPopulateIndividuals(Database* db,
                                                 const SchemaHandles& schema,
                                                 const BulkSpec& spec);

/// \brief A ready-made mid-size database (schema + individuals) for
/// query / rule benches.
struct StandardWorkload {
  SchemaHandles schema;
  std::vector<std::string> individuals;
};

StandardWorkload BuildStandardWorkload(Database* db, size_t num_concepts,
                                       size_t num_individuals,
                                       uint64_t seed = 42);

}  // namespace classic::bench
