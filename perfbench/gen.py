"""Seeded inputs for the benchmark, as rule and fact text with known answers.

Nothing here imports ``oidcheck``: the inputs, and the answers they are
checked against, must not change when the package changes. Every generator
is an endless stream indexed from 0; item ``i`` of a stream depends only on
the workload, the seed and ``i``, so a run that stops early sees a prefix of
the same inputs as a run that goes on.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


# -- rules as data --------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """``head(distinguished..., func(creation...)) <- body`` with the function
    term at ``func_pos`` among the head arguments."""

    head: str
    distinguished: tuple[str, ...]
    func: str
    creation: tuple[str, ...]
    func_pos: int
    body: tuple[tuple[str, tuple[str, ...]], ...]

    def text(self) -> str:
        args = list(self.distinguished)
        args.insert(self.func_pos, f"{self.func}({','.join(self.creation)})")
        atoms = ", ".join(f"{p}({','.join(a)})" for p, a in self.body)
        return f"{self.head}({','.join(args)}) <- {atoms}.\n"


def _rename(rule: Rule, mapping: dict, func: str, creation=None) -> Rule:
    return Rule(
        head=rule.head,
        distinguished=tuple(mapping[v] for v in rule.distinguished),
        func=func,
        creation=tuple(mapping[v] for v in (creation or rule.creation)),
        func_pos=rule.func_pos,
        body=tuple((p, tuple(mapping[v] for v in a)) for p, a in rule.body),
    )


# -- decide-mix: mapping-sized pairs ------------------------------------------------

DECIDE_PREDICATES = {"R": 2, "S": 2, "U": 3, "V": 1}
REWRITE_SHARE = 0.4


@dataclass(frozen=True)
class DecidePair:
    rewrite: bool  # constructed oid-equivalent rewrite of ``left``
    left: str
    right: str
    same_func_pos: bool
    same_predicates: bool


def _random_body(rng: random.Random, prefix: str):
    preds = sorted(DECIDE_PREDICATES)
    while True:
        chosen = [rng.choice(preds) for _ in range(rng.randint(2, 4))]
        slots = sum(DECIDE_PREDICATES[p] for p in chosen)
        variables = [f"{prefix}{i}" for i in range(min(rng.randint(3, 6), slots))]
        fill = variables + [rng.choice(variables) for _ in range(slots - len(variables))]
        rng.shuffle(fill)
        body, offset = [], 0
        for p in chosen:
            body.append((p, tuple(fill[offset : offset + DECIDE_PREDICATES[p]])))
            offset += DECIDE_PREDICATES[p]
        if len(set(body)) == len(body):
            return tuple(body), variables


def _random_rule(rng: random.Random, prefix: str, n_dist: int, func_pos: int, func: str) -> Rule:
    body, variables = _random_body(rng, prefix)
    return Rule(
        head="T",
        distinguished=tuple(rng.sample(variables, min(n_dist, len(variables)))),
        func=func,
        creation=tuple(rng.sample(variables, rng.randint(1, min(3, len(variables))))),
        func_pos=func_pos,
        body=body,
    )


def _rewrite(rng: random.Random, rule: Rule) -> Rule:
    """Variable bijection plus a creation-tuple rewrite (reordered, maybe one
    variable repeated, new function symbol): oid-equivalent by construction."""
    names = sorted({v for _, args in rule.body for v in args})
    fresh = [f"w{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    creation = list(rule.creation)
    rng.shuffle(creation)
    if rng.random() < 0.5:
        creation.insert(rng.randint(0, len(creation)), rng.choice(creation))
    out = _rename(rule, dict(zip(names, fresh)), "g", creation)
    body = list(out.body)
    rng.shuffle(body)
    return Rule(out.head, out.distinguished, out.func, out.creation, out.func_pos, tuple(body))


def decide_pair(seed: int, index: int) -> DecidePair:
    rng = _rng("decide-mix", seed, index)
    n_dist = rng.randint(1, 2)
    left = _random_rule(rng, "v", n_dist, rng.randint(0, n_dist), "f")
    if rng.random() < REWRITE_SHARE:
        right = _rewrite(rng, left)
        rewrite = True
    else:
        pos = left.func_pos if rng.random() < 0.75 else rng.randint(0, n_dist)
        right = _random_rule(rng, "u", len(left.distinguished), pos, "g")
        rewrite = False
    return DecidePair(
        rewrite=rewrite,
        left=left.text(),
        right=right.text(),
        same_func_pos=left.func_pos == right.func_pos,
        same_predicates={p for p, _ in left.body} == {p for p, _ in right.body},
    )


# -- eval-join: large instances, small rules ---------------------------------------

FAMILY_RULE = Rule(
    "Family", ("c",), "f", ("x", "y"), 1, (("Mother", ("c", "x")), ("Father", ("c", "y")))
)
CROSS_RULE = Rule(
    "T", ("x",), "f", ("y", "z"), 1, (("R", ("x", "y")), ("R", ("y", "z")), ("S", ("z",)))
)
FAMILY_CHILDREN = 160
FAMILY_NOISE = 1600
CROSS_FACTS = 70


@dataclass(frozen=True)
class JoinCase:
    """One rule and source instance, with the outputs the CLI must print and
    two targets for ``satisfies``: the chase result (satisfied) and a copy
    with one fact removed (violated)."""

    shape: str
    rule: str
    facts: str
    eval_out: str
    chase_out: str
    target_ok: str
    target_bad: str


def _family_instance(rng: random.Random) -> list:
    n = FAMILY_CHILDREN
    facts = []
    for i in range(n):
        facts.append(("Mother", (f"c{i}", f"m{rng.randrange(n // 3)}")))
        if i % 10 != 9:  # a tenth of the children have no father on record
            facts.append(("Father", (f"c{i}", f"p{rng.randrange(n // 3)}")))
    for _ in range(FAMILY_NOISE):
        pred = rng.choice(("Born", "Lives", "Sibling"))
        facts.append((pred, (f"c{rng.randrange(n)}", f"t{rng.randrange(n)}")))
    return facts


def _cross_instance(rng: random.Random) -> list:
    # every constant has the same out-degree, so the join's work is the same
    # for every seed; only which paths end in S varies
    n = CROSS_FACTS
    consts = [f"a{i}" for i in range(n // 4)]
    facts = {("R", (a, b)) for a in consts for b in rng.sample(consts, n // len(consts))}
    facts |= {("S", (z,)) for z in rng.sample(consts, n // 10)}
    # a chain whose start has exactly one result, so removing that result
    # from the chase target is sure to violate the rule
    facts |= {("R", ("b0", "b1")), ("R", ("b1", "b2")), ("S", ("b2",))}
    return sorted(facts)


def ref_matchings(body, facts) -> list[dict]:
    """Left-deep hash join of the body atoms over the facts."""
    by_pred = defaultdict(list)
    for pred, args in facts:
        by_pred[pred].append(args)
    rows: list[dict] = [{}]
    bound: list[str] = []
    for pred, args in body:
        shared = [v for v in bound if v in args]
        index = defaultdict(list)
        for fact in by_pred[pred]:
            val: dict = {}
            if all(val.setdefault(v, c) == c for v, c in zip(args, fact)):
                index[tuple(val[v] for v in shared)].append(val)
        rows = [{**r, **val} for r in rows for val in index.get(tuple(r[v] for v in shared), ())]
        bound += [v for v in dict.fromkeys(args) if v not in bound]
    return rows


def ref_satisfied(rule: Rule, facts, target) -> bool:
    """Can one value per creation tuple serve every matching with that tuple?"""
    allowed = defaultdict(set)
    for pred, args in target:
        args = list(args)
        value = args.pop(rule.func_pos)
        allowed[tuple(args)].add(value)
    groups: dict = {}
    for m in ref_matchings(rule.body, facts):
        key = tuple(m[v] for v in rule.creation)
        ok = allowed.get(tuple(m[v] for v in rule.distinguished), set())
        groups[key] = ok if key not in groups else groups[key] & ok
    return all(groups.values())


def _lines(facts) -> str:
    # the CLI's display order: predicate, then rendered arguments
    return "".join(f"{p}({','.join(a)}).\n" for p, a in sorted(facts))


def join_case(seed: int, index: int) -> JoinCase:
    rng = _rng("eval-join", seed, index)
    shape, rule = ("family", FAMILY_RULE) if index % 3 == 0 else ("cross", CROSS_RULE)
    facts = _family_instance(rng) if shape == "family" else _cross_instance(rng)

    results = set()
    for m in ref_matchings(rule.body, facts):
        args = [m[v] for v in rule.distinguished]
        args.insert(rule.func_pos, f"{rule.func}({','.join(m[v] for v in rule.creation)})")
        results.add((rule.head, tuple(args)))
    terms = sorted({a[rule.func_pos] for _, a in results})
    # chase constants @1, @2, ... in term order; the notes list them by name
    chased = {t: f"@{k}" for k, t in enumerate(terms, 1)}
    ground = {(p, tuple(chased.get(x, x) for x in a)) for p, a in results}
    notes = "".join(f"% {c} = {t}\n" for t, c in sorted(chased.items(), key=lambda kv: kv[1]))

    # '@' names are reserved in input files, so targets name the values o1, o2, ...
    target = sorted((p, tuple(x.replace("@", "o") for x in a)) for p, a in ground)
    counts = defaultdict(int)
    for _, a in target:
        counts[a[: rule.func_pos] + a[rule.func_pos + 1 :]] += 1
    single = [f for f in target if counts[f[1][: rule.func_pos] + f[1][rule.func_pos + 1 :]] == 1]
    bad = list(target)
    bad.remove(rng.choice(single))
    if not ref_satisfied(rule, facts, target) or ref_satisfied(rule, facts, bad):
        raise AssertionError(f"eval-join case {seed}/{index}: targets do not separate")

    shuffled = list(facts)
    rng.shuffle(shuffled)
    return JoinCase(
        shape=shape,
        rule=rule.text(),
        facts="".join(f"{p}({','.join(a)}).\n" for p, a in shuffled),
        eval_out=_lines(results),
        chase_out=_lines(ground) + notes,
        target_ok=_lines(target),
        target_bad=_lines(bad),
    )


# -- search-hard: structured families with known verdicts ---------------------------

PATH_ATOMS = 10
PERM_VARS = 6
BIPARTITE_SIDE = 10
BIPARTITE_EDGES = 30
BIPARTITE_EVERY = 3  # rounds per bipartite pair, whose entailment never finishes


@dataclass(frozen=True)
class SearchPair:
    family: str
    left: str
    right: str
    oid_equiv: bool
    entails: bool


def _path_pairs() -> list[SearchPair]:
    body = tuple(("E", (f"x{i}", f"x{i + 1}")) for i in range(PATH_ATOMS))
    odd = tuple(f"x{i}" for i in range(1, PATH_ATOMS, 2))
    a = Rule("T", ("x0",), "f", ("x0", "x1"), 1, body)  # the id depends on the start too
    b = Rule("T", ("x0",), "g", ("x1",), 1, body)
    c = Rule("T", ("x0",), "f", odd, 1, body)
    # b and c entail each other: one id per x1 serves every continuation;
    # a does not entail b, since two starts into one x1 get two ids
    return [
        SearchPair("path", a.text(), b.text(), False, False),
        SearchPair("path", b.text(), a.text(), False, True),
        SearchPair("path", c.text(), b.text(), False, True),
        SearchPair("path", b.text(), c.text(), False, True),
    ]


def _perm_pairs() -> list[SearchPair]:
    # creation atoms over distinct predicates, creation tuple reversed on one
    # side: the permutation route must try every permutation before the last
    k = PERM_VARS
    left = Rule(
        "T", ("x0",), "f", tuple(f"x{i}" for i in range(1, k + 1)), 1,
        tuple((f"P{i}", ("x0", f"x{i}")) for i in range(1, k + 1)),
    )
    right = _rename(
        left, {f"x{i}": f"y{i}" for i in range(k + 1)}, "g",
        tuple(f"x{i}" for i in range(k, 0, -1)),
    )
    return [
        SearchPair("perm", left.text(), right.text(), True, True),
        SearchPair("perm", right.text(), left.text(), True, True),
    ]


def _bipartite_pair(rng: random.Random) -> SearchPair:
    # a directed 5-cycle cannot map into a symmetric bipartite graph, so the
    # body homomorphism search fails after exploring; as mappings the cycle
    # rule is violated by the bipartite rule's frozen body
    cycle = tuple(("E", (f"x{i}", f"x{(i + 1) % 5}")) for i in range(5))
    left = Rule("T", ("u",), "f", ("w",), 1, (("A", ("u", "w")),) + cycle)
    edges = set()
    while len(edges) < BIPARTITE_EDGES:
        edges.add((rng.randrange(BIPARTITE_SIDE), rng.randrange(BIPARTITE_SIDE)))
    body = [("A", ("u", "w"))]
    for i, j in sorted(edges):
        body += [("E", (f"l{i}", f"r{j}")), ("E", (f"r{j}", f"l{i}"))]
    right = Rule("T", ("u",), "g", ("w",), 1, tuple(body))
    return SearchPair("bipartite", left.text(), right.text(), False, False)


def search_cycle(seed: int, index: int) -> list[SearchPair]:
    """``BIPARTITE_EVERY`` rounds of path and permutation pairs, then one
    bipartite pair; both ``check`` commands run on each pair."""
    # the engine's search order follows variable names, so the path and
    # permutation families keep theirs fixed and only the bipartite body
    # varies with the seed: a seed changes inputs, not the cost of a family
    rounds = (_path_pairs() + _perm_pairs()) * BIPARTITE_EVERY
    return rounds + [_bipartite_pair(_rng("search-hard", seed, index))]

