// Tests for the operator-language interpreter (the uniform interface).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "classic/interpreter.h"

namespace classic {
namespace {

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest() : interp_(&db_) {}

  std::string Exec(const std::string& text) {
    auto r = interp_.ExecuteString(text);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
    return r.ok() ? *r : "";
  }

  Database db_;
  Interpreter interp_;
};

TEST_F(InterpreterTest, SchemaAndDataOps) {
  EXPECT_EQ(Exec("(define-role enrolled-at)"), "ok");
  EXPECT_EQ(Exec("(define-concept PERSON "
                 "(PRIMITIVE CLASSIC-THING person))"),
            "ok");
  EXPECT_EQ(Exec("(define-concept STUDENT "
                 "(AND PERSON (AT-LEAST 1 enrolled-at)))"),
            "ok");
  EXPECT_EQ(Exec("(create-ind Rutgers)"), "ok");
  EXPECT_EQ(Exec("(create-ind Rocky PERSON)"), "ok");
  EXPECT_EQ(Exec("(assert-ind Rocky (FILLS enrolled-at Rutgers))"), "ok");
  EXPECT_EQ(Exec("(ask STUDENT)"), "(Rocky)");
  EXPECT_EQ(Exec("(msc Rocky)"), "(STUDENT)");
  EXPECT_EQ(Exec("(instances PERSON)"), "(Rocky)");
  EXPECT_EQ(Exec("(fillers Rocky enrolled-at)"), "(Rutgers)");
  EXPECT_EQ(Exec("(closed? Rocky enrolled-at)"), "no");
}

TEST_F(InterpreterTest, QueriesAndIntrospection) {
  Exec("(define-role r)");
  Exec("(define-concept A (PRIMITIVE CLASSIC-THING a))");
  Exec("(define-concept B (AND A (AT-LEAST 1 r)))");
  EXPECT_EQ(Exec("(subsumes A B)"), "yes");
  EXPECT_EQ(Exec("(subsumes B A)"), "no");
  EXPECT_EQ(Exec("(equivalent (AND A A) A)"), "yes");
  EXPECT_EQ(Exec("(coherent (AND (AT-LEAST 1 r) (AT-MOST 0 r)))"), "no");
  EXPECT_EQ(Exec("(parents B)"), "(A)");
  EXPECT_EQ(Exec("(children A)"), "(B)");
  EXPECT_EQ(Exec("(concept-aspect B AT-LEAST r)"), "1");
  EXPECT_EQ(Exec("(concept-aspect B AT-MOST r)"), "unbounded");
  EXPECT_EQ(Exec("(concept-aspect B ALL)"), "()");
}

TEST_F(InterpreterTest, ConceptAspectOneOf) {
  Exec("(create-ind GM)");
  Exec("(create-ind Ford)");
  Exec("(define-concept MAKER (ONE-OF GM Ford))");
  // Members are listed in individual-id (creation) order.
  EXPECT_EQ(Exec("(concept-aspect MAKER ONE-OF)"), "(GM Ford)");
}

TEST_F(InterpreterTest, RulesAndDescriptions) {
  Exec("(define-role eat)");
  Exec("(define-concept STUDENT (PRIMITIVE CLASSIC-THING student))");
  Exec("(define-concept JUNK (PRIMITIVE CLASSIC-THING junk))");
  Exec("(assert-rule STUDENT (ALL eat JUNK))");
  std::string d = Exec("(ask-description (AND STUDENT (ALL eat ?:THING)))");
  EXPECT_NE(d.find("junk"), std::string::npos) << d;
}

TEST_F(InterpreterTest, IndAspect) {
  Exec("(define-role r)");
  Exec("(create-ind A)");
  Exec("(create-ind B)");
  Exec("(assert-ind A (FILLS r B))");
  EXPECT_EQ(Exec("(ind-aspect A FILLS r)"), "(B)");
  EXPECT_EQ(Exec("(ind-aspect A CLOSE r)"), "no");
  Exec("(assert-ind A (CLOSE r))");
  EXPECT_EQ(Exec("(ind-aspect A CLOSE r)"), "yes");
}

TEST_F(InterpreterTest, RetractionOp) {
  Exec("(define-role r)");
  Exec("(create-ind A)");
  Exec("(assert-ind A (AT-LEAST 2 r))");
  Exec("(retract-ind A (AT-LEAST 2 r))");
  EXPECT_EQ(Exec("(describe A)"), "CLASSIC-THING");
}

TEST_F(InterpreterTest, StatsOp) {
  Exec("(define-role r)");
  Exec("(define-concept A (PRIMITIVE CLASSIC-THING a))");
  Exec("(create-ind X A)");
  std::string stats = Exec("(stats)");
  EXPECT_NE(stats.find("individuals=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("concepts=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("propagation-steps="), std::string::npos);
}

TEST_F(InterpreterTest, SummarizeOp) {
  Exec("(define-role r)");
  Exec("(define-concept A (PRIMITIVE CLASSIC-THING aa))");
  Exec("(create-ind X A)");
  Exec("(create-ind Y A)");
  Exec("(assert-ind X (AT-LEAST 2 r))");
  Exec("(assert-ind Y (AT-LEAST 3 r))");
  // Everything in A's extension has at least 2 r-fillers.
  std::string sum = Exec("(summarize A)");
  EXPECT_NE(sum.find("aa"), std::string::npos) << sum;
  EXPECT_NE(sum.find("(AT-LEAST 2 r)"), std::string::npos) << sum;
  EXPECT_EQ(sum.find("(AT-LEAST 3 r)"), std::string::npos) << sum;
}

TEST_F(InterpreterTest, FacadeWhyMethods) {
  Exec("(define-role r)");
  Exec("(define-concept A (PRIMITIVE CLASSIC-THING a))");
  Exec("(create-ind X)");
  auto why = db_.WhyInstance("X", "A");
  ASSERT_TRUE(why.ok());
  EXPECT_NE(why->find("[NO]"), std::string::npos);
  auto ws = db_.WhySubsumes("THING", "A");
  ASSERT_TRUE(ws.ok());
  EXPECT_NE(ws->find("[ok]"), std::string::npos);
}

TEST_F(InterpreterTest, ErrorsAreReported) {
  EXPECT_FALSE(interp_.ExecuteString("(frobnicate X)").ok());
  EXPECT_FALSE(interp_.ExecuteString("(define-concept)").ok());
  EXPECT_FALSE(interp_.ExecuteString("(assert-ind Ghost THING)").ok());
  EXPECT_FALSE(interp_.ExecuteString("not-an-op").ok());
  EXPECT_FALSE(interp_.ExecuteString("(ask (BAD").ok());
}

TEST_F(InterpreterTest, ProgramExecution) {
  auto r = interp_.ExecuteProgram(R"(
    ; a small program
    (define-role wheel)
    (define-concept TRICYCLE (AND (AT-LEAST 3 wheel) (AT-MOST 3 wheel)))
    (create-ind Trike)
    (assert-ind Trike (AT-LEAST 3 wheel))
    (assert-ind Trike (AT-MOST 3 wheel))
    (ask TRICYCLE)
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 6u);
  EXPECT_EQ(r->back(), "(Trike)");
}

TEST_F(InterpreterTest, ProgramStopsAtFirstError) {
  auto r = interp_.ExecuteProgram(
      "(define-role r)\n(bogus)\n(define-role s)");
  EXPECT_FALSE(r.ok());
  // The third op never ran.
  EXPECT_TRUE(db_.kb().vocab().FindRole(
      db_.kb().vocab().symbols().Lookup("r")).ok());
  EXPECT_EQ(db_.kb().vocab().symbols().Lookup("s"), kNoSymbol);
}

// Every read form has one path — Session::RequestFromForm, then
// KbEngine::ServeQuery — so a form served from the live database and the
// same form served as-of the epoch just published print the same bytes,
// explained or not.
TEST(InterpreterReadPathTest, LiveAndAsOfReadsPrintTheSameBytes) {
  std::ifstream in(std::string(CLASSIC_EXAMPLES_DIR) + "/university.classic");
  ASSERT_TRUE(in.good()) << "university.classic not found";
  std::stringstream program;
  program << in.rdbuf();

  Database db;
  Interpreter interp(&db);
  auto loaded = interp.ExecuteProgram(program.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto run = [&interp](const std::string& form) {
    auto r = interp.ExecuteString(form);
    EXPECT_TRUE(r.ok()) << form << ": " << r.status().ToString();
    return r.ok() ? *r : std::string();
  };
  ASSERT_EQ(run("(publish)"), "epoch 1");

  for (const std::string form : {
           "(ask PERSON)",
           "(ask-possible PERSON)",
           "(ask-description STUDENT)",
           "(select (?x ?y) (?x PERSON) (?x enrolled-at ?y))",
           "(instances UNIVERSITY)",
           "(msc Alice)",
           "(describe Alice)",
       }) {
    const std::string live = run(form);
    EXPECT_FALSE(live.empty()) << form;
    EXPECT_EQ(run("(as-of 1 " + form + ")"), live) << form;
    const std::string explained = run("(explain " + form + ")");
    EXPECT_EQ(explained.rfind("(plan ", 0), 0u) << explained;
    EXPECT_EQ(run("(as-of 1 (explain " + form + "))"), explained) << form;
  }

  // ask-description prints the description, then the most specific
  // named concepts, one per line.
  const std::string description = run("(ask-description STUDENT)");
  EXPECT_EQ(description.substr(description.rfind('\n') + 1), "STUDENT")
      << description;

  // A request naming an epoch that was never published is NotFound,
  // explained or not — it is never answered from the live database.
  for (const char* form : {"(request ask \"STUDENT\" 7)",
                           "(explain (request ask \"STUDENT\" 7))"}) {
    auto r = interp.ExecuteString(form);
    ASSERT_FALSE(r.ok()) << form << " answered " << *r;
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
        << form << ": " << r.status().ToString();
  }
}

}  // namespace
}  // namespace classic
