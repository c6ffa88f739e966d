import pytest

from oidcheck.errors import InvalidKeyIndexError
from oidcheck.evaluation import eval_ocq
from oidcheck.fixtures import PrimitiveSpec, gen_primitive
from oidcheck.model import predicate_arities, validate_rule, RawRule
from oidcheck.oid_equiv import decide_oid_equiv
from oidcheck.oracle import oid_isomorphic, random_instances
from pairgen import gen_random_query, random_creation_rewrite, random_variable_bijection


def test_gav_base_all():
    q = gen_primitive(PrimitiveSpec("GAVBase", "all"))
    assert q.render() == "T(x,y,f(x,y,z,w)) <- B(x,y,z,w)."


def test_gav_base_key():
    q = gen_primitive(PrimitiveSpec("GAVBase", "key", key_indices=(1,)))
    assert q.render() == "T(x,y,f(x)) <- B(x,y,z,w)."


def test_gav_base_random_is_nonempty_subset():
    q = gen_primitive(PrimitiveSpec("GAVBase", "random", seed=3))
    assert 1 <= len(q.creation) <= 4
    assert set(q.creation) <= q.variables
    again = gen_primitive(PrimitiveSpec("GAVBase", "random", seed=3))
    assert q == again


def test_add_primitive():
    q = gen_primitive(PrimitiveSpec("ADD"))
    assert q.render() == "T(x,y,f(x,y)) <- B(x,y)."


def test_adl_primitive():
    q = gen_primitive(PrimitiveSpec("ADL", "key", key_indices=(1,)))
    assert q.render() == "T(x,f(x)) <- B(x,y)."


def test_ma_primitive_renames_body_occurrence():
    q = gen_primitive(PrimitiveSpec("MA"))
    assert q.render() == "T(x,y,z,f(x,y,z)) <- B(x,y), T_src(y,z)."
    assert "T" not in predicate_arities(q.body)


def test_key_index_out_of_bounds():
    with pytest.raises(InvalidKeyIndexError):
        gen_primitive(PrimitiveSpec("ADD", "key", key_indices=(3,)))
    with pytest.raises(InvalidKeyIndexError):
        gen_primitive(PrimitiveSpec("ADD", "key"))


def test_generated_queries_validate():
    for seed in range(40):
        q = gen_random_query(seed, num_atoms=3, num_vars=5, max_arity=3)
        revalidated = validate_rule(
            RawRule(q.head_predicate, q.head_args, tuple(q.body))
        )
        assert revalidated == q


def test_generator_deterministic():
    assert gen_random_query(11) == gen_random_query(11)
    assert gen_random_query(11) != gen_random_query(12)


def test_single_atom_family_shapes():
    qs = [gen_random_query(s, num_atoms=1, num_vars=3, max_arity=3) for s in range(30)]
    assert all(len(q.body) == 1 for q in qs)
    arities = {next(iter(q.body)).arity for q in qs}
    assert arities <= {1, 2, 3}


def test_renaming_closure_preserves_equivalence():
    for seed in range(8):
        q = gen_random_query(seed, num_atoms=2, num_vars=3, max_arity=2)
        renamed = random_variable_bijection(q, seed + 100)
        assert decide_oid_equiv(q, renamed, search_counterexamples=False).equivalent


def test_creation_rewrite_preserves_equivalence():
    for seed in range(8):
        q = gen_random_query(seed, num_atoms=2, num_vars=3, max_arity=2)
        rewritten = random_creation_rewrite(q, seed + 200)
        assert set(rewritten.creation) == set(q.creation)
        assert decide_oid_equiv(q, rewritten, search_counterexamples=False).equivalent
        schema = predicate_arities(q.body)
        for instance in random_instances(schema, 3, 4, count=5, seed=seed):
            assert (
                oid_isomorphic(eval_ocq(q, instance), eval_ocq(rewritten, instance))
                is not None
            )
