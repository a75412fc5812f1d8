#include "testing/scenario.h"

#include <set>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "datagen/sp2b.h"
#include "rdf/vocab.h"

namespace rdfref {
namespace testing {

namespace {
namespace vocab = rdf::vocab;
using query::Atom;
using query::Cq;
using query::QTerm;
using query::VarId;
}  // namespace

namespace {

/// Builds a Scenario out of a generated sp2b graph: triples partition into
/// schema/data by predicate (SortedTriples keeps it deterministic), pools
/// by term role so GenerateQuery draws sp2b vocabulary.
Scenario GenerateSp2bScenario(uint64_t seed, const ScenarioOptions& options) {
  Scenario sc;
  Rng rng(seed);
  datagen::Sp2bConfig config;
  config.documents = static_cast<int>(
      rng.Between(options.sp2b_min_documents, options.sp2b_extra_documents));
  config.seed = rng.Next();
  datagen::Sp2b::Generate(config, &sc.graph);

  std::set<rdf::TermId> classes, properties, subjects, literals;
  const std::vector<rdf::Triple> sorted = sc.graph.SortedTriples();
  for (const rdf::Triple& t : sorted) {
    if (vocab::IsSchemaProperty(t.p)) {
      sc.schema_triples.push_back(t);
      if (t.p == vocab::kSubClassOfId) {
        classes.insert(t.s);
        classes.insert(t.o);
      } else if (t.p == vocab::kSubPropertyOfId) {
        properties.insert(t.s);
        properties.insert(t.o);
      } else {
        properties.insert(t.s);  // domain/range constrain a property...
        classes.insert(t.o);     // ...to a class
      }
    } else {
      sc.data_triples.push_back(t);
      if (t.p == vocab::kTypeId) {
        subjects.insert(t.s);
        classes.insert(t.o);
      } else {
        subjects.insert(t.s);
        properties.insert(t.p);
        if (sc.graph.dict().Lookup(t.o).is_literal()) {
          literals.insert(t.o);
        } else {
          subjects.insert(t.o);
        }
      }
    }
  }
  sc.classes.assign(classes.begin(), classes.end());
  sc.properties.assign(properties.begin(), properties.end());
  sc.subjects.assign(subjects.begin(), subjects.end());
  sc.literals.assign(literals.begin(), literals.end());
  return sc;
}

}  // namespace

Scenario GenerateScenario(uint64_t seed, const ScenarioOptions& options) {
  if (options.source == ScenarioSource::kSp2b) {
    return GenerateSp2bScenario(seed, options);
  }
  Scenario sc;
  Rng rng(seed);
  rdf::Dictionary& dict = sc.graph.dict();

  const int num_classes = static_cast<int>(
      rng.Between(options.min_classes, options.extra_classes));
  const int num_props = static_cast<int>(
      rng.Between(options.min_properties, options.extra_properties));
  const int num_subjects = static_cast<int>(
      rng.Between(options.min_subjects, options.extra_subjects));
  for (int i = 0; i < num_classes; ++i) {
    sc.classes.push_back(dict.InternUri("http://t/C" + std::to_string(i)));
  }
  for (int i = 0; i < num_props; ++i) {
    sc.properties.push_back(dict.InternUri("http://t/p" + std::to_string(i)));
  }
  for (int i = 0; i < num_subjects; ++i) {
    sc.subjects.push_back(dict.InternUri("http://t/s" + std::to_string(i)));
  }
  for (int i = 0; i < options.num_literals; ++i) {
    sc.literals.push_back(dict.InternLiteral("lit" + std::to_string(i)));
  }

  auto random_class = [&]() {
    return sc.classes[rng.Uniform(sc.classes.size())];
  };
  auto random_prop = [&]() {
    return sc.properties[rng.Uniform(sc.properties.size())];
  };
  auto add_schema = [&](rdf::TermId s, rdf::TermId p, rdf::TermId o) {
    if (sc.graph.Add(s, p, o)) sc.schema_triples.push_back(rdf::Triple(s, p, o));
  };

  // Random schema (never constraining the RDFS built-ins, per the DB
  // fragment convention — see DESIGN.md). Locals pin the draw order; the
  // old in-test generator left it to argument evaluation order.
  const int num_sc = static_cast<int>(
      rng.Between(options.min_subclass, options.extra_subclass));
  for (int i = 0; i < num_sc; ++i) {
    rdf::TermId sub = random_class(), super = random_class();
    add_schema(sub, vocab::kSubClassOfId, super);
  }
  const int num_sp = static_cast<int>(
      rng.Between(options.min_subproperty, options.extra_subproperty));
  for (int i = 0; i < num_sp; ++i) {
    rdf::TermId sub = random_prop(), super = random_prop();
    add_schema(sub, vocab::kSubPropertyOfId, super);
  }
  const int num_dom = static_cast<int>(
      rng.Between(options.min_domain, options.extra_domain));
  for (int i = 0; i < num_dom; ++i) {
    rdf::TermId p = random_prop(), c = random_class();
    add_schema(p, vocab::kDomainId, c);
  }
  const int num_rng = static_cast<int>(
      rng.Between(options.min_range, options.extra_range));
  for (int i = 0; i < num_rng; ++i) {
    rdf::TermId p = random_prop(), c = random_class();
    add_schema(p, vocab::kRangeId, c);
  }

  // Random instance triples: property assertions (some literal-valued) and
  // class assertions.
  const int num_triples = static_cast<int>(
      rng.Between(options.min_triples, options.extra_triples));
  for (int i = 0; i < num_triples; ++i) {
    rdf::TermId s = sc.subjects[rng.Uniform(sc.subjects.size())];
    rdf::Triple t;
    if (rng.Chance(options.type_assertion_rate)) {
      t = rdf::Triple(s, vocab::kTypeId, random_class());
    } else {
      rdf::TermId o =
          (!sc.literals.empty() && rng.Chance(options.literal_object_rate))
              ? sc.literals[rng.Uniform(sc.literals.size())]
              : sc.subjects[rng.Uniform(sc.subjects.size())];
      rdf::TermId p = random_prop();
      t = rdf::Triple(s, p, o);
    }
    if (sc.graph.Add(t)) sc.data_triples.push_back(t);
  }
  return sc;
}

Scenario RestrictScenario(const Scenario& base,
                          const std::vector<rdf::Triple>& schema,
                          const std::vector<rdf::Triple>& data) {
  Scenario out;
  // An id-identical dictionary but none of the triples (dense 0..size-1
  // enumeration, valid under any permutation).
  // rdfref-check: allow(termid-arith)
  for (rdf::TermId id = vocab::kNumBuiltins; id < base.graph.dict().size();
       ++id) {
    out.graph.dict().Intern(base.graph.dict().Lookup(id));
  }
  out.classes = base.classes;
  out.properties = base.properties;
  out.subjects = base.subjects;
  out.literals = base.literals;
  for (const rdf::Triple& t : schema) {
    if (out.graph.Add(t)) out.schema_triples.push_back(t);
  }
  for (const rdf::Triple& t : data) {
    if (out.graph.Add(t)) out.data_triples.push_back(t);
  }
  return out;
}

query::Cq GenerateQuery(const Scenario& sc, Rng* rng,
                        const QueryOptions& options) {
  Cq q;
  std::vector<VarId> pool;
  for (int i = 0; i < options.var_pool; ++i) {
    pool.push_back(q.AddVar(Numbered("v", i)));
  }
  auto var = [&]() { return QTerm::Var(pool[rng->Uniform(pool.size())]); };
  const int atoms = static_cast<int>(
      rng->Between(options.min_atoms, options.extra_atoms));
  for (int i = 0; i < atoms; ++i) {
    // Subject: variable or a subject constant.
    QTerm s = rng->Chance(options.subject_var_rate)
                  ? var()
                  : QTerm::Const(sc.subjects[rng->Uniform(sc.subjects.size())]);
    double kind = rng->UniformDouble();
    if (kind < options.type_atom_rate) {
      // Type atom; class constant or variable.
      QTerm o = rng->Chance(options.class_const_rate)
                    ? QTerm::Const(sc.classes[rng->Uniform(sc.classes.size())])
                    : var();
      q.AddAtom(Atom(s, QTerm::Const(vocab::kTypeId), o));
    } else if (kind < options.type_atom_rate + options.property_atom_rate) {
      // Property atom with a constant property.
      QTerm o = rng->Chance(options.object_var_rate)
                    ? var()
                    : QTerm::Const(
                          sc.subjects[rng->Uniform(sc.subjects.size())]);
      q.AddAtom(Atom(
          s, QTerm::Const(sc.properties[rng->Uniform(sc.properties.size())]),
          o));
    } else {
      // Variable property.
      q.AddAtom(Atom(s, var(), var()));
    }
  }
  // Head: the body variables (complete bindings make mismatches visible).
  for (VarId v : q.BodyVars()) q.AddHead(QTerm::Var(v));
  if (q.head().empty()) {
    // Fully constant query: give it a variable-free guard by making the
    // first atom's subject a variable instead.
    Cq fallback;
    VarId x = fallback.AddVar("x");
    Atom a = q.body()[0];
    a.s = QTerm::Var(x);
    fallback.AddAtom(a);
    fallback.AddHead(QTerm::Var(x));
    return fallback;
  }
  return q;
}

query::Ucq GenerateUcq(const Scenario& sc, Rng* rng, int max_extra_members,
                       const QueryOptions& options) {
  query::Ucq ucq;
  Cq first = GenerateQuery(sc, rng, options);
  const size_t arity = first.head().size();
  ucq.Add(std::move(first));
  const int extra =
      max_extra_members <= 0
          ? 0
          : static_cast<int>(rng->Uniform(max_extra_members + 1));
  for (int i = 0; i < extra; ++i) {
    // AnswerUnion requires equal head arity across members; rejection
    // sampling converges fast at these sizes (bounded for determinism).
    for (int tries = 0; tries < 16; ++tries) {
      Cq member = GenerateQuery(sc, rng, options);
      if (member.head().size() == arity) {
        ucq.Add(std::move(member));
        break;
      }
    }
  }
  return ucq;
}

}  // namespace testing
}  // namespace rdfref
