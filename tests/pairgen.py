"""Seeded generators of random queries and query pairs for the agreement,
metamorphic and property suites."""

from __future__ import annotations

import random

from oidcheck.model import (
    Atom,
    FuncTerm,
    RawRule,
    SkolemQuery,
    Variable,
    rename_atoms,
    rename_query,
    validate_rule,
)
from oidcheck.normalize import NormalizedPair


def gen_random_query(
    seed: int, num_atoms: int = 2, num_vars: int = 4, max_arity: int = 3
) -> SkolemQuery:
    """Seeded random query: every variable occurs in the body, distinguished
    and creation tuples are drawn from the body variables, function term last.
    Deterministic per seed."""
    if num_atoms < 1 or num_vars < 1 or max_arity < 1:
        raise ValueError("parameters must be positive")
    rng = random.Random(seed)
    variables = [Variable(f"v{i + 1}") for i in range(num_vars)]
    pred_arity = {
        f"P{i + 1}": rng.randint(1, max_arity) for i in range(rng.randint(1, num_atoms))
    }
    preds = sorted(pred_arity)
    chosen = [rng.choice(preds) for _ in range(num_atoms)]
    total_slots = sum(pred_arity[p] for p in chosen)
    # cover as many variables as the argument slots allow, then fill the rest
    pool = variables[: min(num_vars, total_slots)]
    fill = list(pool)
    while len(fill) < total_slots:
        fill.append(rng.choice(pool))
    rng.shuffle(fill)
    atoms: list[Atom] = []
    offset = 0
    for pred in chosen:
        arity = pred_arity[pred]
        atoms.append(Atom(pred, tuple(fill[offset : offset + arity])))
        offset += arity

    in_body = sorted(pool)
    distinguished = tuple(rng.choice(in_body) for _ in range(rng.randint(0, 2)))
    creation = tuple(rng.choice(in_body) for _ in range(rng.randint(0, 3)))
    raw = RawRule(
        head_predicate="T",
        head_args=tuple(distinguished) + (FuncTerm("f", creation),),
        body=tuple(atoms),
    )
    return validate_rule(raw)


def random_variable_bijection(q: SkolemQuery, seed: int) -> SkolemQuery:
    """Rename the query's variables by a random bijection onto themselves."""
    rng = random.Random(seed)
    source = sorted(q.variables)
    image = list(source)
    rng.shuffle(image)
    return rename_query(q, dict(zip(source, image)))


def random_creation_rewrite(q: SkolemQuery, seed: int) -> SkolemQuery:
    """Replace the creation tuple by a random tuple with exactly the same
    variables (shuffled, possibly with repetitions) and a fresh symbol; the
    result is oid-equivalent to the input by construction."""
    rng = random.Random(seed)
    base = sorted(set(q.creation))
    rng.shuffle(base)
    extra = [rng.choice(base) for _ in range(rng.randint(0, 2))] if base else []
    creation = base + extra
    rng.shuffle(creation)
    return SkolemQuery(
        head_predicate=q.head_predicate,
        distinguished=q.distinguished,
        func_symbol=q.func_symbol + "_w",
        creation=tuple(creation),
        body=q.body,
        func_pos=q.func_pos,
    )


def _random_body(rng, pred_arity, pool, max_atoms):
    preds = sorted(pred_arity)
    chosen = [rng.choice(preds) for _ in range(rng.randint(1, max_atoms))]
    total = sum(pred_arity[p] for p in chosen)
    covered = pool[: min(len(pool), total)]
    fill = list(covered)
    while len(fill) < total:
        fill.append(rng.choice(covered))
    rng.shuffle(fill)
    atoms, offset = [], 0
    for pred in chosen:
        arity = pred_arity[pred]
        atoms.append(Atom(pred, tuple(fill[offset : offset + arity])))
        offset += arity
    return frozenset(atoms), set(covered)


def random_normalized_pair(seed: int) -> NormalizedPair:
    """Two queries already in the aligned normal form: same head, identical
    distinguished and creation tuples (creation duplicate-free), at most
    three body atoms and five variables each."""
    rng = random.Random(seed)
    pool = [Variable(f"v{i + 1}") for i in range(rng.randint(1, 5))]
    pred_arity = {f"P{i + 1}": rng.randint(1, 3) for i in range(rng.randint(1, 2))}
    body1, covered1 = _random_body(rng, pred_arity, pool, 3)

    style = rng.random()
    if style < 0.35:
        # rename the non-head variables by a bijection: equivalent pair
        body2, covered2 = body1, set(covered1)
    elif style < 0.6:
        extra, covered_extra = _random_body(rng, pred_arity, pool, 1)
        body2, covered2 = body1 | extra, covered1 | covered_extra
    else:
        body2, covered2 = _random_body(rng, pred_arity, pool, 3)

    common = sorted(covered1 & covered2)
    if common:
        distinguished = tuple(rng.choice(common) for _ in range(rng.randint(0, 2)))
        creation_pool = [v for v in common]
        rng.shuffle(creation_pool)
        creation = tuple(creation_pool[: rng.randint(0, min(3, len(creation_pool)))])
    else:
        distinguished, creation = (), ()

    if style < 0.35:
        # permute variables outside the head tuples, keeping the normal form
        head_vars = set(distinguished) | set(creation)
        movable = sorted(set(covered1) - head_vars)
        image = list(movable)
        rng.shuffle(image)
        body2 = rename_atoms(body1, dict(zip(movable, image)))

    def build(symbol, body):
        return SkolemQuery(
            head_predicate="T",
            distinguished=distinguished,
            func_symbol=symbol,
            creation=creation,
            body=body,
            func_pos=len(distinguished),
        )

    return NormalizedPair(
        q=build("f", body1),
        q_prime=build("g", body2),
        x_set=frozenset(distinguished),
        z_set=frozenset(creation),
    )


def random_entail_pair(seed: int) -> tuple[SkolemQuery, SkolemQuery]:
    """Two independent queries with a common head shape (predicate, arity,
    function position) suitable for entailment checks."""
    rng = random.Random(seed)
    pred_arity = {f"P{i + 1}": rng.randint(1, 3) for i in range(rng.randint(1, 2))}
    k = rng.randint(0, 2)

    def build(symbol):
        pool = [Variable(f"v{i + 1}") for i in range(rng.randint(max(1, k), 4))]
        body, covered = _random_body(rng, pred_arity, pool, 3)
        in_body = sorted(covered)
        distinguished = tuple(rng.choice(in_body) for _ in range(k))
        creation = tuple(rng.choice(in_body) for _ in range(rng.randint(0, 3)))
        return SkolemQuery(
            head_predicate="T",
            distinguished=distinguished,
            func_symbol=symbol,
            creation=creation,
            body=body,
            func_pos=k,
        )

    return build("f"), build("g")


def random_equivalent_pair(seed: int, max_arity: int = 3) -> tuple[SkolemQuery, SkolemQuery]:
    """A query and an oid-equivalent rewrite of it (variable bijection plus a
    creation-tuple rewrite with a fresh symbol)."""
    q = gen_random_query(seed, num_atoms=2, num_vars=4, max_arity=max_arity)
    q_prime = random_creation_rewrite(random_variable_bijection(q, seed + 1), seed + 2)
    return q, q_prime
