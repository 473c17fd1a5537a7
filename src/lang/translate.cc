#include "lang/translate.h"

#include <set>
#include <unordered_map>

#include "common/check.h"
#include "enumerate/it_enum.h"

namespace fro {

namespace {

// A pending outerjoin edge, recorded before the graph exists.
struct PendingOjEdge {
  RelId preserved;
  RelId null_supplied;
  PredicatePtr pred;
};

// A pending join conjunct between two base relations.
struct PendingJoinEdge {
  RelId a;
  RelId b;
  PredicatePtr pred;
};

class Translator {
 public:
  Translator(const NestedDb& nested, const SelectQuery& ast)
      : nested_(nested), ast_(ast), db_(std::make_unique<Database>()) {}

  Result<TranslationResult> Run() {
    // The tuple variables: each item's alias if given, else its type
    // name. Reusing a type requires distinct aliases ("several copies of
    // the same relation with renamed attributes", Section 1.2). All are
    // reserved before any chain step picks a name.
    for (const FromItem& item : ast_.from) {
      const std::string& var =
          item.alias.empty() ? item.type_name : item.alias;
      if (!from_vars_.insert(var).second) {
        return InvalidArgument(
            "tuple variable used twice in the From list: " + var +
            " (give each use a distinct alias)");
      }
    }
    for (const FromItem& item : ast_.from) {
      FRO_RETURN_IF_ERROR(TranslateFromItem(item));
    }
    FRO_RETURN_IF_ERROR(TranslateWhere());
    return Assemble();
  }

 private:
  // Registers tuple variable `rel_name` as a renaming of `type`'s
  // flattened relation (its entity relation when `set_field` is
  // negative, else that set-valued field's ValueOfField), which the
  // NestedDb builds once per version and shares: no row is copied.
  Result<RelId> AddTupleVariable(const EntityType& type,
                                 const std::string& rel_name,
                                 int set_field = -1) {
    std::shared_ptr<const FlatRelation> flat =
        nested_.Flatten(type, set_field);
    return db_->AddRelation(rel_name, flat->columns, flat->snapshot);
  }

  // A name for a chain step's relation: neither registered nor a
  // From-list variable, so a later From item never collides with it.
  std::string FreshRelName(const std::string& base) {
    std::string name = base;
    int suffix = 2;
    while (db_->catalog().FindRelation(name).ok() ||
           from_vars_.count(name) > 0) {
      name = base + std::to_string(suffix++);
    }
    return name;
  }

  Status TranslateFromItem(const FromItem& item) {
    const EntityType* base_type = nested_.FindType(item.type_name);
    if (base_type == nullptr) {
      return NotFound("unknown entity type " + item.type_name);
    }
    const std::string& var =
        item.alias.empty() ? item.type_name : item.alias;
    FRO_ASSIGN_OR_RETURN(RelId base_rel, AddTupleVariable(*base_type, var));

    // The chain of entities introduced so far, newest last; UnNest steps
    // contribute no entity (their values are scalars).
    struct ChainEntity {
      RelId rel;
      const EntityType* type;
    };
    std::vector<ChainEntity> chain = {{base_rel, base_type}};

    for (const ChainStep& step : item.steps) {
      // Resolve the field against the most recent entity that has it.
      const FieldDef::Kind wanted = step.op == ChainStep::Op::kUnnest
                                        ? FieldDef::Kind::kSetValued
                                        : FieldDef::Kind::kEntityRef;
      int owner_index = -1;
      int field_index = -1;
      for (int i = static_cast<int>(chain.size()) - 1; i >= 0; --i) {
        int f = chain[static_cast<size_t>(i)].type->FieldIndex(step.field);
        if (f < 0) continue;
        if (chain[static_cast<size_t>(i)].type->fields()[static_cast<size_t>(
                f)].kind != wanted) {
          return InvalidArgument(
              "field " + step.field + " of " +
              chain[static_cast<size_t>(i)].type->name() +
              (step.op == ChainStep::Op::kUnnest
                   ? " is not set-valued (required by '*')"
                   : " is not entity-valued (required by '->')"));
        }
        owner_index = i;
        field_index = f;
        break;
      }
      if (owner_index < 0) {
        return NotFound("no entity in the chain has field " + step.field);
      }
      const ChainEntity& owner = chain[static_cast<size_t>(owner_index)];
      const std::string owner_name =
          db_->catalog().RelationName(owner.rel);

      if (step.op == ChainStep::Op::kUnnest) {
        std::string rel_name = FreshRelName(owner_name + "_" + step.field);
        FRO_ASSIGN_OR_RETURN(
            RelId value_rel,
            AddTupleVariable(*owner.type, rel_name, field_index));
        // NestedIn(@r, @value): R.@oid = V.@owner.
        PredicatePtr nested_in = EqCols(db_->Attr(owner_name, "@oid"),
                                        db_->Attr(rel_name, "@owner"));
        oj_edges_.push_back({owner.rel, value_rel, nested_in});
        // Scalars: nothing appended to the chain.
      } else {
        const FieldDef& field =
            owner.type->fields()[static_cast<size_t>(field_index)];
        const EntityType* target = nested_.FindType(field.target_type);
        if (target == nullptr) {
          return NotFound("entity type " + field.target_type +
                          " referenced by field " + field.name);
        }
        std::string rel_name = FreshRelName(owner_name + "_" + step.field);
        FRO_ASSIGN_OR_RETURN(RelId target_rel,
                             AddTupleVariable(*target, rel_name));
        // LinkedTo(@r, @value): R.Field@ref = D.@oid.
        PredicatePtr linked_to =
            EqCols(db_->Attr(owner_name, field.name + "@ref"),
                   db_->Attr(rel_name, "@oid"));
        oj_edges_.push_back({owner.rel, target_rel, linked_to});
        chain.push_back({target_rel, target});
      }
    }
    return Status::Ok();
  }

  Result<Operand> ResolveOperand(const WhereOperand& operand) {
    if (!operand.is_column) return Operand::Literal(operand.literal);
    if (from_vars_.count(operand.qualifier) == 0) {
      return InvalidArgument(
          "Where-list may only reference From-list base relations; "
          "attributes obtained from '*' or '->' are not allowed: " +
          operand.qualifier);
    }
    FRO_ASSIGN_OR_RETURN(AttrId attr, db_->catalog().FindAttr(
                                          operand.qualifier, operand.field));
    return Operand::Column(attr);
  }

  Status TranslateWhere() {
    for (const WhereComparison& cmp : ast_.where) {
      FRO_ASSIGN_OR_RETURN(Operand lhs, ResolveOperand(cmp.lhs));
      FRO_ASSIGN_OR_RETURN(Operand rhs, ResolveOperand(cmp.rhs));
      PredicatePtr pred = Predicate::Cmp(cmp.op, lhs, rhs);
      // A conjunct referencing two distinct relations is a join edge;
      // anything else is a restriction.
      if (lhs.is_column() && rhs.is_column()) {
        RelId r1 = db_->catalog().AttrRelation(lhs.attr());
        RelId r2 = db_->catalog().AttrRelation(rhs.attr());
        if (r1 != r2) {
          join_edges_.push_back({r1, r2, pred});
          continue;
        }
      }
      restrictions_.push_back(pred);
    }
    return Status::Ok();
  }

  Result<TranslationResult> Assemble() {
    TranslationResult result;
    QueryGraph& graph = result.graph;
    if (db_->num_relations() > static_cast<size_t>(QueryGraph::kMaxNodes)) {
      return InvalidArgument(
          "the query has " + std::to_string(db_->num_relations()) +
          " relations (From items plus '*' and '->' steps); at most " +
          std::to_string(QueryGraph::kMaxNodes) + " are supported");
    }
    for (RelId rel = 0; rel < db_->num_relations(); ++rel) {
      graph.AddNode(rel, db_->scheme(rel).ToAttrSet());
    }
    for (const PendingJoinEdge& edge : join_edges_) {
      FRO_RETURN_IF_ERROR(graph.AddJoinEdge(
          graph.NodeOf(edge.a), graph.NodeOf(edge.b), edge.pred));
    }
    for (const PendingOjEdge& edge : oj_edges_) {
      FRO_RETURN_IF_ERROR(graph.AddOuterJoinEdge(
          graph.NodeOf(edge.preserved), graph.NodeOf(edge.null_supplied),
          edge.pred));
    }
    if (!graph.IsConnected(graph.AllMask())) {
      return InvalidArgument(
          "the From-list items are not connected by Where predicates "
          "(Cartesian products are not supported)");
    }
    result.audit = CheckFreelyReorderable(graph);

    std::vector<ExprPtr> trees = EnumerateIts(graph, *db_, /*limit=*/1);
    FRO_CHECK(!trees.empty());
    ExprPtr query = trees[0];
    if (!restrictions_.empty()) {
      query = Expr::Restrict(query, Predicate::And(restrictions_));
    }
    // An explicit Select list becomes a bag projection on top. Unlike the
    // Where list, it may name chain-introduced relations (their values
    // are exactly what UnNest/Link produce).
    if (!ast_.select_columns.empty()) {
      std::vector<AttrId> cols;
      for (const WhereOperand& column : ast_.select_columns) {
        FRO_ASSIGN_OR_RETURN(
            AttrId attr,
            db_->catalog().FindAttr(column.qualifier, column.field));
        cols.push_back(attr);
      }
      query = Expr::Project(query, std::move(cols), /*dedup=*/false);
    }
    result.query = std::move(query);
    result.db = std::move(db_);
    return result;
  }

  const NestedDb& nested_;
  const SelectQuery& ast_;
  std::unique_ptr<Database> db_;
  // The From-list tuple variables, reserved before any chain name is
  // picked.
  std::set<std::string> from_vars_;
  std::vector<PendingOjEdge> oj_edges_;
  std::vector<PendingJoinEdge> join_edges_;
  std::vector<PredicatePtr> restrictions_;
};

}  // namespace

Result<TranslationResult> TranslateQuery(const NestedDb& nested,
                                         const SelectQuery& ast) {
  if (ast.from.empty()) {
    return InvalidArgument("empty From list");
  }
  Translator translator(nested, ast);
  return translator.Run();
}

}  // namespace fro
