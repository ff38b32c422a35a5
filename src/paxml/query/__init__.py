"""The positive query language of Section 3.1 and its snapshot semantics."""

from .matching import (
    MissingDocumentError,
    enumerate_assignments,
    evaluate_snapshot,
    match_pattern,
    spec_snapshot,
)
from .parser import parse_pattern, parse_queries, parse_query
from .plan import QueryPlan, compile_query, describe_plan, warm_system
from .pattern import (
    Assignment,
    PatternNode,
    RegexSpec,
    from_tree,
    instantiate,
    pattern_to_text,
)
from .rule import BodyAtom, Inequality, PositiveQuery, QueryValidationError
from .variables import FunVar, LabelVar, TreeVar, ValueVar, Variable

__all__ = [
    "Assignment",
    "BodyAtom",
    "FunVar",
    "Inequality",
    "LabelVar",
    "MissingDocumentError",
    "PatternNode",
    "PositiveQuery",
    "QueryPlan",
    "QueryValidationError",
    "RegexSpec",
    "TreeVar",
    "ValueVar",
    "Variable",
    "compile_query",
    "describe_plan",
    "enumerate_assignments",
    "evaluate_snapshot",
    "warm_system",
    "from_tree",
    "instantiate",
    "match_pattern",
    "parse_pattern",
    "parse_queries",
    "parse_query",
    "pattern_to_text",
    "spec_snapshot",
]
