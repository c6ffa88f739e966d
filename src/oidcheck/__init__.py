"""Decision procedures for object-creating conjunctive queries.

A query here is a single rule whose head invents one value per binding of a
function term, e.g. ``Family(c,f(x,y)) <- Mother(c,x), Father(c,y)``. The
package decides whether two such queries are oid-equivalent (same results on
every input up to renaming the created identifiers) and whether one logically
entails the other when both are read as schema mappings, producing
machine-checkable witnesses or concrete counterexample instances either way.
"""

from .entail import (
    EntailDecision,
    EntailWitness,
    LogicalEquivalence,
    canonical_colored_instance,
    check_jd_implication,
    decide_entails,
    decide_entails_semantic,
    decide_logical_equiv,
)
from .errors import (
    ArityClashError,
    ArityMismatchError,
    HeadMismatchError,
    InvalidKeyIndexError,
    OidcheckError,
    ParseError,
    RuleValidationError,
)
from .evaluation import (
    MVQuery,
    chase,
    eval_cq,
    eval_mv,
    eval_ocq,
    matchings,
    oid_count,
)
from .hom import HomConstraint, cq_contained, cq_equivalent, find_homomorphism, mv_homomorphism
from .model import (
    Atom,
    ConjunctiveQuery,
    Constant,
    ExtendedFact,
    Fact,
    FuncTerm,
    SkolemQuery,
    Variable,
    flatten_query,
    freeze_body,
    validate_rule,
)
from .normalize import (
    NormalizedPair,
    NormalizeRefutation,
    align_creation,
    align_distinguished,
    check_creation_profile,
    dedupe_creation_vars,
    normalize_pair,
)
from .oid_equiv import (
    EquivDecision,
    EquivWitness,
    decide_oid_equiv,
    equiv_via_mv,
    equiv_via_permutation,
)
from .oracle import (
    SatisfactionReport,
    instance_enumerator,
    oid_isomorphic,
    satisfies_sotgd,
    search_counterexample_entail,
    search_counterexample_oid,
)
from .parser import (
    parse_extended_instance,
    parse_instance,
    parse_rule,
    parse_rules,
    serialize_extended_instance,
    serialize_instance,
)

__version__ = "0.1.0"
