"""Decision procedures for object-creating conjunctive queries.

A query here is a single rule whose head invents one value per binding of a
function term, e.g. ``Family(c,f(x,y)) <- Mother(c,x), Father(c,y)``. The
package decides whether two such queries are oid-equivalent (same results on
every input up to renaming the created identifiers) and whether one logically
entails the other when both are read as schema mappings, producing
machine-checkable witnesses or concrete counterexample instances either way.

The names below load their module on first use (PEP 562), so importing the
package, or one of its modules, loads no decider that is not asked for. Once
a module is loaded, the package binds its names, as an eager import would.
"""

import sys
from types import ModuleType

_EXPORTS = {
    "entail": (
        "EntailDecision", "EntailWitness", "LogicalEquivalence", "canonical_colored_instance",
        "check_jd_implication", "decide_entails", "decide_entails_semantic",
        "decide_logical_equiv",
    ),
    "errors": (
        "ArityClashError", "ArityMismatchError", "HeadMismatchError", "InvalidKeyIndexError",
        "OidcheckError", "ParseError", "RuleValidationError",
    ),
    "evaluation": ("MVQuery", "chase", "eval_cq", "eval_mv", "eval_ocq", "matchings", "oid_count"),
    "hom": ("HomConstraint", "cq_contained", "cq_equivalent", "find_homomorphism", "mv_homomorphism"),
    "model": (
        "Atom", "ConjunctiveQuery", "Constant", "ExtendedFact", "Fact", "FuncTerm",
        "SkolemQuery", "Variable", "flatten_query", "freeze_body", "validate_rule",
    ),
    "normalize": (
        "NormalizedPair", "NormalizeRefutation", "align_creation", "align_distinguished",
        "check_creation_profile", "dedupe_creation_vars", "normalize_pair",
    ),
    "oid_equiv": (
        "EquivDecision", "EquivWitness", "decide_oid_equiv", "equiv_via_mv", "equiv_via_permutation",
    ),
    "oracle": (
        "SatisfactionReport", "instance_enumerator", "oid_isomorphic", "satisfies_sotgd",
        "search_counterexample_entail", "search_counterexample_oid",
    ),
    "parser": (
        "parse_extended_instance", "parse_instance", "parse_rule", "parse_rules",
        "serialize_extended_instance", "serialize_instance",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


class _Package(ModuleType):
    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        # the import system binds each loaded submodule here, once it has run
        for export in _EXPORTS.get(name, ()):
            super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Package
