#include "testing/nested_sample.h"

#include "common/check.h"

namespace fro {

NestedDb MakeCompanyNestedDb() {
  NestedDb db;
  FRO_CHECK(db.DefineType("REPORT",
                          {{"Title", FieldDef::Kind::kScalar, ""},
                           {"Cost", FieldDef::Kind::kScalar, ""}})
                .ok());
  FRO_CHECK(db.DefineType("EMPLOYEE",
                          {{"D#", FieldDef::Kind::kScalar, ""},
                           {"Rank", FieldDef::Kind::kScalar, ""},
                           {"ChildName", FieldDef::Kind::kSetValued, ""}})
                .ok());
  FRO_CHECK(db.DefineType(
                  "DEPARTMENT",
                  {{"D#", FieldDef::Kind::kScalar, ""},
                   {"Location", FieldDef::Kind::kScalar, ""},
                   {"Manager", FieldDef::Kind::kEntityRef, "EMPLOYEE"},
                   {"Secretary", FieldDef::Kind::kEntityRef, "EMPLOYEE"},
                   {"Audit", FieldDef::Kind::kEntityRef, "REPORT"}})
                .ok());

  int64_t audit1 = *db.AddEntity(
      "REPORT", {FieldValue::Scalar(Value::String("FY89 Audit")),
                 FieldValue::Scalar(Value::Int(120))});
  int64_t audit2 = *db.AddEntity(
      "REPORT", {FieldValue::Scalar(Value::String("Fraud Inquiry")),
                 FieldValue::Scalar(Value::Int(900))});

  int64_t ana = *db.AddEntity(
      "EMPLOYEE",
      {FieldValue::Scalar(Value::Int(1)), FieldValue::Scalar(Value::Int(12)),
       FieldValue::Set({Value::String("Mia"), Value::String("Ben")})});
  int64_t bo = *db.AddEntity(
      "EMPLOYEE",
      {FieldValue::Scalar(Value::Int(1)), FieldValue::Scalar(Value::Int(7)),
       FieldValue::Set({})});  // childless
  int64_t cy = *db.AddEntity(
      "EMPLOYEE",
      {FieldValue::Scalar(Value::Int(2)), FieldValue::Scalar(Value::Int(11)),
       FieldValue::Set({Value::String("Lea")})});
  int64_t dee = *db.AddEntity(
      "EMPLOYEE",
      {FieldValue::Scalar(Value::Null()),  // in no department
       FieldValue::Scalar(Value::Int(13)),
       FieldValue::Set({Value::String("Rex")})});
  (void)dee;

  // Department 1 (Zurich): manager Ana, secretary Bo, audited.
  FRO_CHECK(db.AddEntity("DEPARTMENT",
                         {FieldValue::Scalar(Value::Int(1)),
                          FieldValue::Scalar(Value::String("Zurich")),
                          FieldValue::Ref(ana), FieldValue::Ref(bo),
                          FieldValue::Ref(audit1)})
                .ok());
  // Department 2 (Queretaro): manager Cy, no secretary, audited.
  FRO_CHECK(db.AddEntity("DEPARTMENT",
                         {FieldValue::Scalar(Value::Int(2)),
                          FieldValue::Scalar(Value::String("Queretaro")),
                          FieldValue::Ref(cy), FieldValue::NullRef(),
                          FieldValue::Ref(audit2)})
                .ok());
  // Department 3 (Zurich): manager Bo, no secretary, never audited.
  FRO_CHECK(db.AddEntity("DEPARTMENT",
                         {FieldValue::Scalar(Value::Int(3)),
                          FieldValue::Scalar(Value::String("Zurich")),
                          FieldValue::Ref(bo), FieldValue::NullRef(),
                          FieldValue::NullRef()})
                .ok());
  return db;
}

NestedDb MakeScaledCompanyNestedDb(int scale) {
  NestedDb db;
  FRO_CHECK(db.DefineType("REPORT",
                          {{"Title", FieldDef::Kind::kScalar, ""},
                           {"Cost", FieldDef::Kind::kScalar, ""}})
                .ok());
  FRO_CHECK(db.DefineType("EMPLOYEE",
                          {{"D#", FieldDef::Kind::kScalar, ""},
                           {"Rank", FieldDef::Kind::kScalar, ""},
                           {"ChildName", FieldDef::Kind::kSetValued, ""}})
                .ok());
  FRO_CHECK(db.DefineType(
                  "DEPARTMENT",
                  {{"D#", FieldDef::Kind::kScalar, ""},
                   {"Location", FieldDef::Kind::kScalar, ""},
                   {"Manager", FieldDef::Kind::kEntityRef, "EMPLOYEE"},
                   {"Secretary", FieldDef::Kind::kEntityRef, "EMPLOYEE"},
                   {"Audit", FieldDef::Kind::kEntityRef, "REPORT"}})
                .ok());
  const char* locations[] = {"Zurich", "Queretaro", "Lisbon", "Osaka"};
  for (int copy = 0; copy < scale; ++copy) {
    const int64_t d1 = copy * 3 + 1;
    const int64_t d2 = copy * 3 + 2;
    const int64_t d3 = copy * 3 + 3;
    int64_t audit1 = *db.AddEntity(
        "REPORT",
        {FieldValue::Scalar(Value::String("Audit#" + std::to_string(copy))),
         FieldValue::Scalar(Value::Int(100 + copy))});
    int64_t audit2 = *db.AddEntity(
        "REPORT",
        {FieldValue::Scalar(Value::String("Inquiry#" + std::to_string(copy))),
         FieldValue::Scalar(Value::Int(900 + copy))});
    // Ranks cycle through a domain of 4 so EMPLOYEE-by-Rank self-joins
    // produce ~(4*scale)^2/4 matches.
    int64_t e1 = *db.AddEntity(
        "EMPLOYEE", {FieldValue::Scalar(Value::Int(d1)),
                     FieldValue::Scalar(Value::Int(copy % 4)),
                     FieldValue::Set({Value::String("Mia"),
                                      Value::String("Ben")})});
    int64_t e2 = *db.AddEntity(
        "EMPLOYEE", {FieldValue::Scalar(Value::Int(d1)),
                     FieldValue::Scalar(Value::Int((copy + 1) % 4)),
                     FieldValue::Set({})});
    int64_t e3 = *db.AddEntity(
        "EMPLOYEE", {FieldValue::Scalar(Value::Int(d2)),
                     FieldValue::Scalar(Value::Int((copy + 2) % 4)),
                     FieldValue::Set({Value::String("Lea")})});
    FRO_CHECK(db.AddEntity("EMPLOYEE",
                           {FieldValue::Scalar(Value::Null()),
                            FieldValue::Scalar(Value::Int((copy + 3) % 4)),
                            FieldValue::Set({Value::String("Rex")})})
                  .ok());
    FRO_CHECK(
        db.AddEntity("DEPARTMENT",
                     {FieldValue::Scalar(Value::Int(d1)),
                      FieldValue::Scalar(Value::String(locations[copy % 4])),
                      FieldValue::Ref(e1), FieldValue::Ref(e2),
                      FieldValue::Ref(audit1)})
            .ok());
    FRO_CHECK(
        db.AddEntity("DEPARTMENT",
                     {FieldValue::Scalar(Value::Int(d2)),
                      FieldValue::Scalar(Value::String(
                          locations[(copy + 1) % 4])),
                      FieldValue::Ref(e3), FieldValue::NullRef(),
                      FieldValue::Ref(audit2)})
            .ok());
    FRO_CHECK(
        db.AddEntity("DEPARTMENT",
                     {FieldValue::Scalar(Value::Int(d3)),
                      FieldValue::Scalar(Value::String(locations[copy % 4])),
                      FieldValue::Ref(e2), FieldValue::NullRef(),
                      FieldValue::NullRef()})
            .ok());
  }
  return db;
}

std::vector<std::string> Section5SampleQueries() {
  const std::string five =
      "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
      "DEPARTMENT D2, EMPLOYEE E3 "
      "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
      "and E3.D# = D2.D#";
  const std::string seven =
      "Select All From EMPLOYEE E1, DEPARTMENT D1, EMPLOYEE E2, "
      "DEPARTMENT D2, EMPLOYEE E3, DEPARTMENT D3, EMPLOYEE E4 "
      "Where E1.D# = D1.D# and E2.D# = D1.D# and E2.Rank = E3.Rank "
      "and E3.D# = D2.D# and E4.D# = D2.D# and E4.Rank = E1.Rank "
      "and D3.D# = E3.D#";
  return {
      "Select All From EMPLOYEE*ChildName, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D#",
      "Select All From DEPARTMENT-->Manager-->Audit",
      "Select All From DEPARTMENT-->Manager*ChildName "
      "Where DEPARTMENT.Location = 'Zurich'",
      "Select All From EMPLOYEE Where EMPLOYEE.Rank = 12",
      "Select All From EMPLOYEE*ChildName, DEPARTMENT-->Secretary "
      "Where EMPLOYEE.D# = DEPARTMENT.D#",
      "Select EMPLOYEE.Rank, DEPARTMENT.Location From EMPLOYEE, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D#",
      five,
      five + " and D1.Location = 'Queretaro'",
      five + " and D1.Location = 'Lisbon'",
      seven,
      seven + " and D3.Location = 'Zurich'",
      seven + " and D3.Location = 'Osaka'",
      seven + " and D3.Location = 'Toronto'",
      seven + " and D3.Location = 'Paris'",
  };
}

}  // namespace fro
