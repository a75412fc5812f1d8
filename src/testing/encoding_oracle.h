#ifndef RDFREF_TESTING_ENCODING_ORACLE_H_
#define RDFREF_TESTING_ENCODING_ORACLE_H_

#include <cstdint>

#include "query/cq.h"
#include "testing/oracle.h"
#include "testing/scenario.h"

namespace rdfref {
namespace testing {

/// \brief The hierarchy-encoding differential oracle: over one scenario and
/// query, the encoded reformulation (interval atoms over the id-range
/// dictionary) must produce exactly the answer set of the classic UCQ
/// reformulation (use_encoding = false) — and both must match saturation
/// ground truth. Covers the Ref-UCQ and Ref-SCQ paths plus a post-update
/// re-check, since intervals must stay *sound* while newly inserted schema
/// edges fall back to classic members.
///
/// The classic side enumerates every hierarchy member, so it can exceed the
/// reformulation budget (kResourceExhausted) where the interval side fits.
/// That is the budget working, not a divergence: the classic comparison is
/// skipped (counted into `*budget_skips` when given) while the interval
/// side must still equal saturation. An interval-side budget hit stays a
/// divergence.
Divergence CheckEncodedEquivalence(const Scenario& sc,
                                   const query::Cq& scenario_q,
                                   uint64_t* budget_skips = nullptr);

}  // namespace testing
}  // namespace rdfref

#endif  // RDFREF_TESTING_ENCODING_ORACLE_H_
