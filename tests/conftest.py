"""Shared fixtures: the worked examples used across the suite, tiny
brute-force oracles kept independent of the implementation under test, a
reference homomorphism search, a reference join for ``matchings``, a
reference oid count, a reference oid-isomorphism search, a reference fact
serializer, reference copies of the query result, the chase and mapping
satisfaction, reference copies of the derived queries of the oid-equivalence
routes and of the normalization rewrites, and the tableau and join-dependency
semantics that only the tests use."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import pytest

from oidcheck.errors import ArityMismatchError
from oidcheck.evaluation import (
    ChaseResult,
    JoinDependency,
    MVQuery,
    _components,
    _facts_by_predicate,
    _match_atom,
    _position_index,
    eval_ocq,
    matchings,
)
from oidcheck.hom import HomConstraint, cq_equivalent, find_homomorphism, mv_homomorphism
from oidcheck.model import (
    Atom,
    ConjunctiveQuery,
    Constant,
    ExtendedFact,
    Fact,
    FreshNames,
    FuncTerm,
    SkolemQuery,
    Variable,
    adom,
    body_variables,
    canonical_atoms,
    check_heads,
    freeze_body,
    fresh_name,
    instance_lines,
    names_in_use,
    oids,
    rename_atoms,
    render_term,
)
from oidcheck.normalize import DISTINGUISHED_PATTERN, NormalizeRefutation
from oidcheck.oid_equiv import EquivWitness
from oidcheck.oracle import SatisfactionReport
from oidcheck.parser import parse_extended_instance, parse_instance, parse_rule


# -- queries -------------------------------------------------------------------

# the worked examples, each a (q, q_prime) pair of rule texts
WORKED_EXAMPLES = {
    "family": (
        "Family(c,f(x,y)) <- Mother(c,x), Father(c,y).",
        "Family(c,g(x,y,x)) <- Mother(c,x), Father(c,y).",
    ),
    "abstract": ("T(x,f(y)) <- R(x,y,z).", "T(x,f(x,y)) <- R(x,y,z)."),
    "keyed": ("T(x,f(x)) <- R(x,y,z).", "T(x,f(x,y,z)) <- R(x,y,z)."),
    "merge": ("T(x,f(z1)) <- R(z1,x), R(z1,z2).", "T(x,g(z1,z2)) <- R(z1,x), R(z1,z2)."),
}


@pytest.fixture
def family_q():
    return parse_rule(WORKED_EXAMPLES["family"][0])


@pytest.fixture
def family_q_prime():
    return parse_rule(WORKED_EXAMPLES["family"][1])


@pytest.fixture
def abstract_q():
    return parse_rule(WORKED_EXAMPLES["abstract"][0])


@pytest.fixture
def abstract_q_prime():
    return parse_rule(WORKED_EXAMPLES["abstract"][1])


@pytest.fixture
def keyed_q():
    return parse_rule(WORKED_EXAMPLES["keyed"][0])


@pytest.fixture
def keyed_q_prime():
    return parse_rule(WORKED_EXAMPLES["keyed"][1])


@pytest.fixture
def merge_q():
    return parse_rule(WORKED_EXAMPLES["merge"][0])


@pytest.fixture
def merge_q_prime():
    return parse_rule(WORKED_EXAMPLES["merge"][1])


# -- instances -----------------------------------------------------------------


PARENTS = """
Mother(beth,anne). Mother(ben,anne). Mother(eric,claire).
Mother(emma,diana). Mother(dave,diana).
Father(beth,adam). Father(ben,adam). Father(eric,carl). Father(emma,carl).
"""

# Family targets: one name per family, one shared name, one name per child
FAMILY_NAMES = {
    "varied": "Family(beth,jones). Family(ben,jones). Family(eric,simpson). Family(emma,smith).",
    "constant": "Family(beth,jones). Family(ben,jones). Family(eric,jones). Family(emma,jones).",
    "split": "Family(beth,jones). Family(ben,murphy). Family(eric,simpson). Family(emma,smith).",
}


@pytest.fixture
def parents():
    return parse_instance(PARENTS)


@pytest.fixture
def family_result():
    return parse_extended_instance(
        """
        Family(beth,f(anne,adam)). Family(ben,f(anne,adam)).
        Family(eric,f(claire,carl)). Family(emma,f(diana,carl)).
        """
    )


@pytest.fixture
def family_result_g():
    return parse_extended_instance(
        """
        Family(beth,g(anne,adam,anne)). Family(ben,g(anne,adam,anne)).
        Family(eric,g(claire,carl,claire)). Family(emma,g(diana,carl,diana)).
        """
    )


@pytest.fixture
def four_rows():
    return parse_instance("R(a,b,c). R(a,b,d). R(c,b,d). R(d,c,a).")


@pytest.fixture
def shared_middle():
    # two rows agreeing on the middle column
    return parse_instance("R(a,b,c). R(d,b,e).")


@pytest.fixture
def shared_first():
    # two rows agreeing on the first column
    return parse_instance("R(a,b,c). R(a,d,e).")


@pytest.fixture
def family_names_varied():
    return parse_instance(FAMILY_NAMES["varied"])


@pytest.fixture
def family_names_constant():
    return parse_instance(FAMILY_NAMES["constant"])


@pytest.fixture
def family_names_split():
    return parse_instance(FAMILY_NAMES["split"])


# -- independent brute-force oracles --------------------------------------------


def brute_matchings(body, instance) -> list[dict]:
    """Every valuation of the body variables into the active domain that maps
    all atoms into the instance; plain exhaustive enumeration."""
    from oidcheck.model import Fact

    variables = sorted(body_variables(body))
    domain = sorted(adom(instance), key=lambda c: c.name)
    found = []
    for assignment in itertools.product(domain, repeat=len(variables)):
        val = dict(zip(variables, assignment))
        if all(
            Fact(a.predicate, tuple(val[v] for v in a.args)) in instance for a in body
        ):
            found.append(val)
    return found


def brute_oid_isomorphic(j1, j2) -> bool:
    """Exhaustive bijection search between created terms; identity on
    constants."""
    if {t for t in adom(j1) if isinstance(t, Constant)} != {
        t for t in adom(j2) if isinstance(t, Constant)
    }:
        return False
    left = sorted(oids(j1), key=str)
    right = sorted(oids(j2), key=str)
    if len(left) != len(right):
        return False
    for image in itertools.permutations(right):
        rho = dict(zip(left, image))
        mapped = {
            type(f)(f.predicate, tuple(rho.get(a, a) for a in f.args)) for f in j1
        }
        if mapped == set(j2):
            return True
    return False


def brute_contained(qa, qb, instances) -> bool:
    """Is qb's result inside qa's on every given instance?"""
    from oidcheck.evaluation import eval_cq

    return all(eval_cq(qb, i) <= eval_cq(qa, i) for i in instances)


# -- reference oid-isomorphism search --------------------------------------------


def _reference_apply(mapping, extended) -> frozenset:
    return frozenset(
        type(f)(f.predicate, tuple(mapping.get(a, a) for a in f.args)) for f in extended
    )


def _reference_oid_columns(extended) -> frozenset:
    return frozenset(
        (f.predicate, i)
        for f in extended
        for i, a in enumerate(f.args)
        if isinstance(a, FuncTerm)
    )


def _reference_signature(extended) -> dict:
    """Occurrence profile of each oid: counts per (predicate, position)."""
    sig: dict[FuncTerm, dict] = {}
    for f in extended:
        for i, a in enumerate(f.args):
            if isinstance(a, FuncTerm):
                slot = sig.setdefault(a, {})
                slot[(f.predicate, i)] = slot.get((f.predicate, i), 0) + 1
    return sig


def _reference_fast_path(j1, j2, column) -> dict | None:
    pred, pos = column

    def ground(j) -> frozenset:
        return frozenset(
            f for f in j if f.predicate != pred or not isinstance(f.args[pos], FuncTerm)
        )

    if ground(j1) != ground(j2):
        return None

    def companions(j) -> dict:
        out: dict[FuncTerm, set] = {}
        for f in j:
            if f.predicate == pred and isinstance(f.args[pos], FuncTerm):
                rest = tuple(a for i, a in enumerate(f.args) if i != pos)
                out.setdefault(f.args[pos], set()).add(rest)
        return {o: frozenset(s) for o, s in out.items()}

    comp1, comp2 = companions(j1), companions(j2)
    buckets: dict[frozenset, list] = {}
    for o in sorted(comp2, key=render_term):
        buckets.setdefault(comp2[o], []).append(o)
    mapping: dict[FuncTerm, FuncTerm] = {}
    for o in sorted(comp1, key=render_term):
        bucket = buckets.get(comp1[o])
        if not bucket:
            return None
        mapping[o] = bucket.pop(0)
    if any(bucket for bucket in buckets.values()):
        return None
    return mapping if _reference_apply(mapping, j1) == j2 else None


def _reference_general_path(j1, j2) -> dict | None:
    sig1, sig2 = _reference_signature(j1), _reference_signature(j2)
    source = sorted(sig1, key=render_term)
    targets = sorted(sig2, key=render_term)

    def search(i: int, mapping: dict, used: set) -> dict | None:
        if i == len(source):
            return dict(mapping) if _reference_apply(mapping, j1) == j2 else None
        o = source[i]
        for t in targets:
            if t in used or sig2[t] != sig1[o]:
                continue
            mapping[o] = t
            used.add(t)
            found = search(i + 1, mapping, used)
            if found is not None:
                return found
            used.discard(t)
            del mapping[o]
        return None

    return search(0, {}, set())


def consts(extended) -> frozenset:
    """The constants appearing in an extended instance."""
    return frozenset(t for t in adom(extended) if isinstance(t, Constant))


def reference_oid_isomorphic(j1, j2) -> dict | None:
    """``oracle.oid_isomorphic`` as it was when it forked by input shape: a
    companion-set matching when every created term sits in one column, and
    otherwise a recursive search that tests only complete mappings. On
    one-column pairs the oracle must return the same mapping."""
    if len(j1) != len(j2):
        return None
    if consts(j1) != consts(j2):
        return None
    oids1, oids2 = oids(j1), oids(j2)
    if len(oids1) != len(oids2):
        return None
    if not oids1:
        return {} if j1 == j2 else None
    columns = _reference_oid_columns(j1) | _reference_oid_columns(j2)
    if len(columns) == 1:
        return _reference_fast_path(j1, j2, next(iter(columns)))
    return _reference_general_path(j1, j2)


# -- reference fact serializer --------------------------------------------------


def reference_render_term(term) -> str:
    """``model.render_term`` as it was when it pushed every function term's
    arguments on its stack."""
    if term.__class__ is not FuncTerm:
        return term.name
    # On a stack, not recursively: a parsed head term may nest to any depth.
    parts, todo = [], [term]
    while todo:
        t = todo.pop()
        if isinstance(t, FuncTerm):
            items = [x for a in t.args for x in (",", a)][1:]
            todo += [")", *reversed(items), f"{t.symbol}("]
        else:
            parts.append(t if isinstance(t, str) else t.name)
    return "".join(parts)


def reference_render(fact) -> str:
    """``ExtendedFact.render``, over ``reference_render_term``."""
    return f"{fact.predicate}({','.join(reference_render_term(a) for a in fact.args)})"


def reference_sort_facts(facts) -> list:
    """``model.sort_facts``, which sorted the facts by their rendered
    arguments and left each caller to render them again."""
    return sorted(
        facts, key=lambda f: (f.predicate, tuple(reference_render_term(a) for a in f.args))
    )


# -- reference join for matchings ----------------------------------------------


def _reference_most_constrained(atoms, val, by_pred, index):
    """``evaluation._most_constrained`` as it was before its scan stopped at a
    one-candidate atom: it scores every atom, and returns None when any of
    them has no candidate."""
    best = best_facts = None
    for k, atom in enumerate(atoms):
        facts = None
        pred = atom.predicate
        for i, v in enumerate(atom.args):
            c = val.get(v)
            if c is not None:
                posting = index.get((pred, i, c))
                if posting is None:
                    return None
                if facts is None or len(posting) < len(facts):
                    facts = posting
        if facts is None:
            facts = by_pred.get(pred)
            if facts is None:
                return None
        if best is None or len(facts) < len(best_facts):
            best, best_facts = k, facts
    return atoms[best], best_facts, atoms[:best] + atoms[best + 1:]


def _reference_search(atoms, val, by_pred, index, keep=(), first=False):
    """``evaluation._search`` as it was before it pushed a lone child
    directly, on the reference scoring above."""
    keep_set = frozenset(keep)
    seen = set()
    found = []
    stack = [(val, atoms)]
    while stack:
        val, remaining = stack.pop()
        step = _reference_most_constrained(remaining, val, by_pred, index)
        if step is None:
            continue
        atom, facts, rest = step
        children = []
        for fact in facts:
            new = _match_atom(atom, fact, val)
            if new is not None:
                children.append(new)
        if keep and children and keep_set <= children[0].keys():
            for new in children:
                key = tuple([new[v] for v in keep])
                if key not in seen and (
                    not rest or _reference_search(rest, new, by_pred, index, first=True)
                ):
                    seen.add(key)
                    found.append(dict(zip(keep, key)))
        elif rest:
            stack.extend((new, rest) for new in reversed(children))
        elif children:
            if first:
                return children[:1]
            found.extend(children)
    return found


def reference_matchings(body, instance, out=None) -> list[dict]:
    """``evaluation.matchings`` on the reference join above: the same atom
    order, candidate order and component split. The engine must return the
    same dicts, with the same keys in the same order, in the same order."""
    atoms = canonical_atoms(set(body))
    keep = None
    if out is not None:
        keep = dict.fromkeys(out)
        variables = {v for a in atoms for v in a.args}
        if not variables.issuperset(keep):
            raise ValueError("projection variables must occur in the body")
        if len(keep) == len(variables):
            keep = None
    if not atoms:
        return [{}]
    by_pred = _facts_by_predicate(instance, {a.predicate for a in atoms})
    for atom in atoms:
        if atom.predicate not in by_pred:
            return []
    index = _position_index(by_pred)
    if keep is None:
        return _reference_search(atoms, {}, by_pred, index)
    rows = None
    for component in _components(atoms) if len(atoms) > 1 else [atoms]:
        component_vars = {v for a in component for v in a.args}
        component_keep = tuple(v for v in keep if v in component_vars)
        if not component_keep:
            facts = [f for p in dict.fromkeys(a.predicate for a in component) for f in by_pred[p]]
            found = find_homomorphism(component, facts) is not None
        elif len(component_keep) == len(component_vars):
            found = _reference_search(component, {}, by_pred, index)
        else:
            found = _reference_search(component, {}, by_pred, index, component_keep)
        if not found:
            return []
        if component_keep:
            rows = found if rows is None else [r | f for r in rows for f in found]
    return [{}] if rows is None else rows


def reference_oid_count(q, instance, values) -> int:
    """``evaluation.oid_count`` as it was when it built ``eval_ocq``'s whole
    result and kept the created terms of the facts whose distinguished
    arguments are ``values``."""
    found = set()
    for fact in eval_ocq(q, instance):
        args = list(fact.args)
        oid = args.pop(q.func_pos)
        if tuple(args) == tuple(values):
            found.add(oid)
    return len(found)


# -- reference grouping by created term ------------------------------------------


def reference_eval_ocq(q, instance) -> frozenset:
    """``evaluation.eval_ocq`` as it was when it built one ``FuncTerm`` per
    matching."""
    out = set()
    for m in matchings(q.body, instance, q.creation + q.distinguished):
        oid = FuncTerm(q.func_symbol, tuple(m[v] for v in q.creation))
        args = [m[v] for v in q.distinguished]
        args.insert(q.func_pos, oid)
        out.add(ExtendedFact(q.head_predicate, tuple(args)))
    return frozenset(out)


def reference_chase(q, instance) -> ChaseResult:
    """``evaluation.chase`` as it was when it collected the created terms from
    ``eval_ocq``'s facts and grounded those facts in a second pass."""
    extended = reference_eval_ocq(q, instance)
    terms = sorted(
        {t for f in extended for t in f.args if isinstance(t, FuncTerm)},
        key=render_term,
    )
    taken = {c.name for c in adom(instance)}
    table: dict[FuncTerm, Constant] = {}
    k = 1
    for term in terms:
        while f"@{k}" in taken:
            k += 1
        table[term] = Constant(f"@{k}")
        k += 1
    ground = frozenset(
        Fact(f.predicate, tuple(table[a] if isinstance(a, FuncTerm) else a for a in f.args))
        for f in extended
    )
    return ChaseResult(ground, table)


def reference_satisfies_sotgd(instance, target, q) -> SatisfactionReport:
    """``oracle.satisfies_sotgd`` as it was when it ran its own loop over the
    matchings and kept every group's requirements."""
    misfits = [f for f in target if f.predicate != q.head_predicate or f.arity != q.head_arity]
    if misfits:
        first = instance_lines(misfits)[0].removesuffix(".")
        raise ArityMismatchError(
            f"target fact {first} does not match head {q.head_predicate}/{q.head_arity}"
        )
    by_distinguished: dict[tuple, set] = {}
    for f in target:
        args = list(f.args)
        value = args.pop(q.func_pos)
        by_distinguished.setdefault(tuple(args), set()).add(value)

    groups: dict[tuple, set | None] = {}
    requirements: dict[tuple, dict] = {}
    for m in matchings(q.body, instance, q.creation + q.distinguished):
        key = tuple(m[v] for v in q.creation)
        dist = tuple(m[v] for v in q.distinguished)
        allowed = by_distinguished.get(dist, set())
        requirements.setdefault(key, {})[dist] = allowed
        current = groups.get(key)
        groups[key] = set(allowed) if current is None else current & allowed

    def render_key(key: tuple) -> tuple:
        return tuple(c.name for c in key)

    empty = [key for key, values in groups.items() if not values]
    if empty:
        key = min(empty, key=render_key)
        needed = tuple(
            (dist, tuple(sorted(values, key=lambda c: c.name)))
            for dist, values in sorted(requirements[key].items(), key=lambda kv: render_key(kv[0]))
        )
        return SatisfactionReport(False, violating_group=(key, needed))

    table = {key: min(values, key=lambda c: c.name) for key, values in groups.items()}
    return SatisfactionReport(True, witness_table=table)


def reference_multiplication_instance(body, multiplied, copies, diagonal, taken) -> frozenset:
    """``oracle.multiplication_instance`` as it was when it renamed the whole
    body once per assignment of copies to every multiplied variable (copies
    to the power of their number) and let the union drop repeated facts."""
    multiplied = sorted(multiplied)
    copy_names: dict[tuple[Variable, int], Variable] = {}
    used = set(taken)
    for v in multiplied:
        for i in range(1, copies + 1):
            name = fresh_name(f"{v.name}_{i}", used)
            used.add(name)
            copy_names[(v, i)] = Variable(name)
    facts: set = set()
    if diagonal:
        assignments = [{v: copy_names[(v, i)] for v in multiplied} for i in range(1, copies + 1)]
    else:
        assignments = [
            {v: copy_names[(v, choice[j])] for j, v in enumerate(multiplied)}
            for choice in itertools.product(range(1, copies + 1), repeat=len(multiplied))
        ]
    for assignment in assignments:
        facts |= freeze_body(rename_atoms(body, assignment))
    return frozenset(facts)


# -- reference derived queries and rewrites --------------------------------------
# As they were when ``oid_equiv`` built its own flattenings and multiset
# queries, and ``normalize`` and ``oracle`` each renamed q_prime apart and
# copied a ``SkolemQuery`` field by field.


def reference_rename_query(q, mapping, func_symbol=None) -> SkolemQuery:
    """``model.rename_query``, building the query field by field."""
    return SkolemQuery(
        head_predicate=q.head_predicate,
        distinguished=tuple(mapping.get(v, v) for v in q.distinguished),
        func_symbol=func_symbol if func_symbol is not None else q.func_symbol,
        creation=tuple(mapping.get(v, v) for v in q.creation),
        body=rename_atoms(q.body, mapping),
        func_pos=q.func_pos,
    )


def reference_dedupe_creation_vars(q) -> SkolemQuery:
    """``normalize.dedupe_creation_vars``."""
    seen: list[Variable] = []
    for v in q.creation:
        if v not in seen:
            seen.append(v)
    if len(seen) == len(q.creation):
        return q
    return SkolemQuery(
        head_predicate=q.head_predicate,
        distinguished=q.distinguished,
        func_symbol=q.func_symbol + "_d",
        creation=tuple(seen),
        body=q.body,
        func_pos=q.func_pos,
    )


def reference_align_distinguished(q, q_prime):
    """``normalize.align_distinguished``, with its own renaming apart."""
    check_heads(q.head_predicate, q.head_arity, q_prime.head_predicate, q_prime.head_arity)
    if q.func_pos != q_prime.func_pos:
        raise ValueError("function positions must be checked before alignment")
    sigma: dict[Variable, Variable] = {}
    for x, x_prime in zip(q.distinguished, q_prime.distinguished):
        if sigma.setdefault(x, x_prime) != x_prime:
            return NormalizeRefutation(
                DISTINGUISHED_PATTERN,
                None,
                f"{x.name} would map to both {sigma[x].name} and {x_prime.name}",
            )
    if len(set(sigma.values())) != len(sigma):
        return NormalizeRefutation(
            DISTINGUISHED_PATTERN,
            None,
            "positional distinguished-variable map is not injective",
        )
    namer = FreshNames(names_in_use(q, q_prime))
    inverse = {x_prime: x for x, x_prime in sigma.items()}
    mapping: dict[Variable, Variable] = {}
    for v in sorted(q_prime.variables):
        if v in inverse:
            mapping[v] = inverse[v]
        else:
            mapping[v] = namer.fresh_variable(v)
    return reference_rename_query(q_prime, mapping)


def reference_align_creation(q, q_prime) -> SkolemQuery:
    """``normalize.align_creation``, without its precondition checks."""
    x_set = q.x_set
    spare = [v for v in q_prime.creation if v not in x_set]
    rename: dict[Variable, Variable] = {}
    for z in q.creation:
        if z not in x_set:
            rename[spare.pop(0)] = z
    captured = set(rename.values()).intersection(q_prime.variables).difference(rename)
    if captured:
        namer = FreshNames(names_in_use(q, q_prime))
        rename.update({v: namer.fresh_variable(v) for v in sorted(captured)})
    aligned = reference_rename_query(q_prime, rename, func_symbol=q_prime.func_symbol + "_r")
    return SkolemQuery(
        head_predicate=aligned.head_predicate,
        distinguished=aligned.distinguished,
        func_symbol=aligned.func_symbol,
        creation=q.creation,
        body=aligned.body,
        func_pos=aligned.func_pos,
    )


def reference_disjoint_frozen_union(q, q_prime) -> frozenset:
    """``oracle.disjoint_frozen_union``, with its own renaming apart."""
    namer = FreshNames(names_in_use(q, q_prime))
    mapping = {v: namer.fresh_variable(v) for v in sorted(q_prime.variables)}
    return freeze_body(q.body) | freeze_body(rename_atoms(q_prime.body, mapping))


def reference_flattened(pair, pi=None) -> tuple:
    """``oid_equiv._flattened``: both flattenings over a shared fresh head
    predicate, the first with its creation tuple permuted by pi."""
    taken = {a.predicate for a in pair.q.body | pair.q_prime.body}
    name = fresh_name(pair.q.head_predicate + "_hat", taken)
    creation = tuple((pi or {}).get(z, z) for z in pair.q.creation)
    left = ConjunctiveQuery(Atom(name, pair.q.distinguished + creation), pair.q.body)
    right = ConjunctiveQuery(
        Atom(name, pair.q_prime.distinguished + pair.q_prime.creation), pair.q_prime.body
    )
    return left, right


def reference_mv_pair(pair) -> tuple:
    """``oid_equiv._mv_pair``: both queries under combined semantics over a
    shared fresh head predicate ``<T>_0``."""
    taken = {a.predicate for a in pair.q.body | pair.q_prime.body}
    name = fresh_name(pair.q.head_predicate + "_0", taken)
    multiset = frozenset(pair.z_set - pair.x_set)
    left = MVQuery(ConjunctiveQuery(Atom(name, pair.q.distinguished), pair.q.body), multiset)
    right = MVQuery(
        ConjunctiveQuery(Atom(name, pair.q_prime.distinguished), pair.q_prime.body), multiset
    )
    return left, right


def reference_equiv_via_permutation(pair):
    """``oid_equiv.equiv_via_permutation``, rebuilding both flattenings for
    every permutation."""
    base = sorted(pair.z_set - pair.x_set)
    for image in itertools.permutations(base):
        pi = dict(zip(base, image))
        homs = cq_equivalent(*reference_flattened(pair, pi))
        if homs is not None:
            return pi, homs[0], homs[1]
    return None


def reference_equiv_via_mv(pair):
    """``oid_equiv.equiv_via_mv``."""
    left, right = reference_mv_pair(pair)
    forward = mv_homomorphism(left, right)
    if forward is None:
        return None
    backward = mv_homomorphism(right, left)
    if backward is None:
        return None
    return forward, backward


def reference_witness_from_mv(pair, mv_forward, mv_backward) -> EquivWitness:
    """``oid_equiv._witness_from_mv``."""
    base = sorted(pair.z_set - pair.x_set)
    pi = {mv_forward[z]: z for z in base}
    homs = cq_equivalent(*reference_flattened(pair, pi))
    if homs is None:
        raise AssertionError("multiset witnesses exist but the permuted flattenings differ")
    return EquivWitness(pi, homs[0], homs[1], mv_forward, mv_backward)


# -- reference homomorphism search ----------------------------------------------


def reference_homomorphisms(src_body, dst_body, constraint=None) -> Iterator[dict]:
    """``hom.iter_homomorphisms`` as it was before atoms were tested as
    (predicate, args) tuples: the same static variable order and candidate
    order, testing each mapped atom by building an ``Atom``. The engine must
    yield the same homomorphisms in the same order."""
    constraint = constraint or HomConstraint()
    src_atoms = sorted(src_body, key=lambda a: (a.predicate, a.args))
    src_vars = sorted(body_variables(src_body))
    dst_vars = sorted(body_variables(dst_body))
    dst_atoms = frozenset(dst_body)

    for v, w in constraint.fixed.items():
        allowed = constraint.image_in.get(v)
        if allowed is not None and w not in allowed:
            return

    occurrences = {v: 0 for v in src_vars}
    for atom in src_atoms:
        for v in atom.args:
            occurrences[v] += 1

    def rank(v):
        constrained = 0 if v in constraint.fixed else (1 if v in constraint.image_in else 2)
        return (constrained, -occurrences[v], v.name)

    order = sorted(src_vars, key=rank)
    position = {v: i for i, v in enumerate(order)}

    atoms_ready = [[] for _ in order]
    for atom in src_atoms:
        last = max(position[v] for v in atom.args) if atom.args else -1
        if last >= 0:
            atoms_ready[last].append(atom)
    nullary = [a for a in src_atoms if not a.args]

    def candidates(v):
        cands = [constraint.fixed[v]] if v in constraint.fixed else dst_vars
        allowed = constraint.image_in.get(v)
        if allowed is not None:
            cands = [w for w in cands if w in allowed]
        return cands

    def atom_ok(atom, assignment):
        return Atom(atom.predicate, tuple(assignment[v] for v in atom.args)) in dst_atoms

    if any(Atom(a.predicate, ()) not in dst_atoms for a in nullary):
        return

    used_injective = set()

    def search(i, assignment):
        if i == len(order):
            yield dict(assignment)
            return
        v = order[i]
        inject = v in constraint.injective_on
        for w in candidates(v):
            if inject and w in used_injective:
                continue
            assignment[v] = w
            if all(atom_ok(a, assignment) for a in atoms_ready[i]):
                if inject:
                    used_injective.add(w)
                yield from search(i + 1, assignment)
                if inject:
                    used_injective.discard(w)
            del assignment[v]

    yield from search(0, {})


# -- tableau queries and join dependencies --------------------------------------


@dataclass(frozen=True)
class TableauQuery:
    body: frozenset[Atom]
    out_vars: frozenset[Variable]

    def __post_init__(self):
        if not self.out_vars <= body_variables(self.body):
            raise ValueError("projection variables must occur in the body")


def eval_tableau(q: TableauQuery, instance) -> frozenset:
    """Projection of the matching relation onto the output variables, as a
    set of rows, each a frozenset of (Variable, Constant) pairs."""
    return frozenset(frozenset(m.items()) for m in matchings(q.body, instance, q.out_vars))


def project(relation, variables: frozenset[Variable]) -> frozenset:
    return frozenset(
        frozenset((v, c) for v, c in row if v in variables) for row in relation
    )


def join(left, right) -> frozenset:
    """Natural join of two relations given as sets of rows."""
    out = set()
    for a in left:
        da = dict(a)
        for b in right:
            db = dict(b)
            if all(da[v] == c for v, c in db.items() if v in da):
                merged = dict(da)
                merged.update(db)
                out.add(frozenset(merged.items()))
    return frozenset(out)


def satisfies_jd(relation, jd: JoinDependency) -> bool:
    """Does the relation equal the join of its two projections?"""
    joined = join(project(relation, jd.left), project(relation, jd.right))
    return joined <= relation
