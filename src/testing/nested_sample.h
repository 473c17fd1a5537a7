// The paper's Section 5 sample schema: EMPLOYEEs with a set-valued
// ChildName field, DEPARTMENTs with entity-valued Manager / Secretary /
// Audit fields, and REPORTs.

#ifndef FRO_TESTING_NESTED_SAMPLE_H_
#define FRO_TESTING_NESTED_SAMPLE_H_

#include <string>
#include <vector>

#include "lang/model.h"

namespace fro {

/// Builds the company database used by the paper's Section 5 examples:
///
///   EMPLOYEE(D#, Rank, ChildName*)            4 employees; one childless;
///                                             one in no department
///   DEPARTMENT(D#, Location, ->Manager, ->Secretary, ->Audit)
///                                             3 departments (Zurich x2,
///                                             Queretaro x1); one with no
///                                             audit report and no
///                                             secretary
///   REPORT(Title, Cost)                       2 reports
NestedDb MakeCompanyNestedDb();

/// The company database scaled up for load tests: `scale` copies of the
/// base population (scale*4 employees across scale*3 departments and
/// scale*2 reports, department numbers disjoint per copy, ranks drawn
/// from a small domain so self-joins on Rank fan out quadratically —
/// the long-running query the deadline and CANCEL paths need).
NestedDb MakeScaledCompanyNestedDb(int scale);

/// The 14 Section-5 queries of the planning and serving workloads over
/// the company database: six cheap ones, then five- and seven-way
/// self-joins, with one fixed choice of their constants.
std::vector<std::string> Section5SampleQueries();

}  // namespace fro

#endif  // FRO_TESTING_NESTED_SAMPLE_H_
