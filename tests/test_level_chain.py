"""How the labeling levels chain, locked by digest: on seeded family-F and
random arenas with depth-2/3 formulas that mix same- and cross-coalition
K, X, U and W levels, each level's rendered state ids in order, its labels,
each refined state's base and kset text, and the explanation of every
top-level initial state hash to a recorded digest. The digests were recorded
before refined states became ints, so they pin the text a reader sees. A
second digest per case, over four larger family-F cases besides, pins each
until and weak-until level's winning region and choices, states rendered by
the level game's pretty; those were recorded while goal states were still
(pending, kset) pairs, before the goal tables numbered them."""

import hashlib
import json
import random

import pytest

from atldk import explain, model_check
from oracles import (acceptance_batches, family_f, level_failures, random_arena, random_coalition,
                     states_of)

# Over family F's props; every level of these nests two or three modalities.
FAMILY_F_FORMULAS = (
    "<a1>X <a1>X p3",
    "<a1>X <a2>X p3",
    "K{a1} <a1>X p3",
    "K{a2} <a1>(p0 U p3)",
    "<a1>F <a2>X p3",
    "<a1>(p1 W K{a1} p2)",
    "<a1,a2>X K{a1} <a2>F p3",
    "<a1>X <a2>X <a1>X p3",
    "K{a1} K{a1} <a1>X p0",
    "<a2>G (K{a2} p2 | <a1>X p0)",
    "P{a1} <a1>(p0 W <a1>X p3)",
    "!<a2>(p1 U !K{a2} p3)",
    "<a1>(K{a1} p1 U <a2>G p2)",
    "<a2>X <a2>(p2 W K{a1} p3)",
    "K{a1,a2} <a1>F K{a1} p3",
    "<a1>G <a1>F p0",
    "<a2>F (<a1>X p1 & K{a2} p2)",
    "<a1>(<a2>X p3 W <a1>X p0)",
    "K{a2} <a2>X <a1>(p1 U p3)",
    "<a1,a2>(K{a1} p0 U <a2>X K{a2} p3)",
)

# Over random_arena's props p, q, r; {c} and {d} are the two coalitions drawn.
RANDOM_TEMPLATES = (
    "<{c}>X <{c}>X {p}",
    "<{c}>X <{d}>X {p}",
    "K{{{c}}} <{d}>({p} U {q})",
    "<{c}>({p} W K{{{c}}} {q})",
    "<{c}>F <{d}>X {p}",
    "<{d}>G (K{{{c}}} {p} | <{c}>X {q})",
    "K{{{c}}} <{c}>X <{d}>X {r}",
    "<{c}>({p} U <{c}>({q} W {r}))",
    "!<{d}>X !K{{{c}}} {p}",
    "<{c}>(<{d}>X {p} U K{{{d}}} {q})",
)

COALITIONS = ("a1", "a2", "a1,a2")

# Region-digest cases only, on family F drawn from Random(n) as ROADMAP's
# baseline is: (n, formula).
SCALE_CASES = ((16, "<a1>F <a2>X p3"), (16, "<a1>(p0 W p2)"),
               (24, "<a1>F <a2>X p3"), (24, "<a1>(p0 W p2)"))


def cases():
    """(name, arena, formula): 20 family-F and 20 random-arena instances."""
    for i, formula in enumerate(FAMILY_F_FORMULAS):
        n = 5 + i % 3
        yield "F%d" % i, family_f(100 + i, n), formula
    drawn, seed = 0, 0
    while drawn < 20:
        rng = random.Random(seed)
        seed += 1
        g = random_arena(rng, min_states=3, max_states=4, max_props=3)
        if len(g.props) < 2:
            continue
        p, q, r = (rng.choice(sorted(g.props)) for _ in range(3))
        c, d = rng.sample(COALITIONS, 2)
        template = RANDOM_TEMPLATES[drawn % len(RANDOM_TEMPLATES)]
        yield "R%d" % drawn, g, template.format(c=c, d=d, p=p, q=q, r=r)
        drawn += 1


def region_cases():
    """(name, arena, formula): the chain cases, then the scale cases."""
    yield from cases()
    for i, (n, formula) in enumerate(SCALE_CASES):
        yield "S%d" % i, family_f(n, n), formula


def name(arena, q):
    """A state's text id as documents and explain show it."""
    return arena.name(q)


def chain_record(arena, formula):
    """Per level its rendered ids, labels and provenance; then the
    explanation of every top-level initial state."""
    verdict = model_check(arena, formula)
    levels = []
    for level in verdict.table:
        g = level.arena
        entry = {"k": level.k, "case": level.case, "prop": level.prop,
                 "ids": [name(g, q) for q in g.states],
                 "labels": [sorted(g.labels[q]) for q in g.states],
                 "initial": [name(g, q) for q in g.initial]}
        if level.hat is not None:
            source = level.hat.source
            entry["base"] = [name(source, level.hat.base[q]) for q in g.states]
            entry["kset"] = [",".join(name(source, r) for r in
                                      states_of(source, level.hat.kset[q]))
                             for q in g.states]
        levels.append(entry)
    explained = [explain(verdict, q) for q, _ in verdict.initial]
    return {"holds": verdict.holds, "initial": verdict.initial, "levels": levels,
            "explained": explained}


def region_record(arena, formula):
    """Per until and weak-until level its winning region and choices, each
    state rendered by the level game's pretty, sorted."""
    levels = []
    for level in model_check(arena, formula).table:
        if level.game is None:
            continue
        pretty, solution = level.game.pretty, level.solution
        levels.append({"k": level.k, "case": level.case,
                       "winning": sorted(map(pretty, solution.winning)),
                       "choice": sorted([pretty(q), list(c_a)]
                                        for q, c_a in solution.choice.items())})
    return levels


def digest(record):
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# Recorded before refined states became ints.
DIGESTS = {
    'F0': '0fed7d1cee9a58b5',  # <a1>X <a1>X p3
    'F1': '28a905d12f80f53d',  # <a1>X <a2>X p3
    'F2': '8c2f628623b0668c',  # K{a1} <a1>X p3
    'F3': '5e8a77de753726fb',  # K{a2} <a1>(p0 U p3)
    'F4': 'abcba4b6e7c3eafa',  # <a1>F <a2>X p3
    'F5': 'b4af3b7981393a4d',  # <a1>(p1 W K{a1} p2)
    'F6': '504a87ea19d00fd8',  # <a1,a2>X K{a1} <a2>F p3
    'F7': 'b9dc8c843f8d7599',  # <a1>X <a2>X <a1>X p3
    'F8': 'f92774c64de80334',  # K{a1} K{a1} <a1>X p0
    'F9': 'f4d2d24e8200137f',  # <a2>G (K{a2} p2 | <a1>X p0)
    'F10': 'a4570483311bc61d',  # P{a1} <a1>(p0 W <a1>X p3)
    'F11': '61cef5e7663dcca8',  # !<a2>(p1 U !K{a2} p3)
    'F12': 'f95bbe198b9677b0',  # <a1>(K{a1} p1 U <a2>G p2)
    'F13': '95d3144c5f50af64',  # <a2>X <a2>(p2 W K{a1} p3)
    'F14': 'c865d627379c2a58',  # K{a1,a2} <a1>F K{a1} p3
    'F15': '0f186b954041d0e2',  # <a1>G <a1>F p0
    'F16': '4d3dc2328156663c',  # <a2>F (<a1>X p1 & K{a2} p2)
    'F17': '18fdbb26ce804125',  # <a1>(<a2>X p3 W <a1>X p0)
    'F18': 'b559903ffa2ede44',  # K{a2} <a2>X <a1>(p1 U p3)
    'F19': '556226e3bccebf53',  # <a1,a2>(K{a1} p0 U <a2>X K{a2} p3)
    'R0': '00337f7d85184a1f',  # <a1,a2>X <a1,a2>X p
    'R1': '82a0c8d32045a4d6',  # <a1>X <a2>X q
    'R2': '98ba2b5fc348e5a8',  # K{a2} <a1,a2>(p U p)
    'R3': '364e21d8165281ce',  # <a1>(q W K{a1} q)
    'R4': 'd09a3f8704886587',  # <a1,a2>F <a1>X q
    'R5': '6563cc90b0581942',  # <a1,a2>G (K{a2} p | <a2>X q)
    'R6': 'eb595589c7aa288d',  # K{a1} <a1>X <a1,a2>X p
    'R7': '5e496ddbb9264422',  # <a2>(q U <a2>(r W q))
    'R8': '83d706c6c947cffa',  # !<a2>X !K{a1,a2} p
    'R9': '7b47daddf2ea5d9b',  # <a1,a2>(<a1>X q U K{a1} q)
    'R10': 'e8aba10573a3fbda',  # <a1>X <a1>X q
    'R11': 'ff0c2d7424793da5',  # <a2>X <a1>X q
    'R12': '290cb679a61f9c00',  # K{a1,a2} <a2>(q U q)
    'R13': 'e0894edc1d68f098',  # <a1>(p W K{a1} r)
    'R14': 'cfa1216d2c4fb1b9',  # <a2>F <a1>X p
    'R15': '5374f948fc259964',  # <a1,a2>G (K{a2} q | <a2>X q)
    'R16': 'f1b617d2bcb021cf',  # K{a2} <a2>X <a1>X p
    'R17': 'df4d472b31c1b2e6',  # <a1,a2>(q U <a1,a2>(q W r))
    'R18': 'fa154fa513048418',  # !<a1,a2>X !K{a2} q
    'R19': '83dd6fac14acadca',  # <a1,a2>(<a1>X q U K{a1} q)
}


# Recorded while goal states were (pending, kset) pairs.
REGION_DIGESTS = {
    'F0': '4f53cda18c2baa0c',  # <a1>X <a1>X p3
    'F1': '4f53cda18c2baa0c',  # <a1>X <a2>X p3
    'F2': '4f53cda18c2baa0c',  # K{a1} <a1>X p3
    'F3': '2693986b22e81120',  # K{a2} <a1>(p0 U p3)
    'F4': '2c3aef740e1559fb',  # <a1>F <a2>X p3
    'F5': '5bdca4671d2c72b5',  # <a1>(p1 W K{a1} p2)
    'F6': '55836f65cf0f3f7a',  # <a1,a2>X K{a1} <a2>F p3
    'F7': '4f53cda18c2baa0c',  # <a1>X <a2>X <a1>X p3
    'F8': '4f53cda18c2baa0c',  # K{a1} K{a1} <a1>X p0
    'F9': '43c54630f87d0de2',  # <a2>G (K{a2} p2 | <a1>X p0)
    'F10': '1d3553f148a1960c',  # P{a1} <a1>(p0 W <a1>X p3)
    'F11': 'a24a454388d25101',  # !<a2>(p1 U !K{a2} p3)
    'F12': '52369c2d0bab301e',  # <a1>(K{a1} p1 U <a2>G p2)
    'F13': '33933b687826c74b',  # <a2>X <a2>(p2 W K{a1} p3)
    'F14': 'bf6cb31e129729ef',  # K{a1,a2} <a1>F K{a1} p3
    'F15': '0c73e28e52ad1457',  # <a1>G <a1>F p0
    'F16': '31a9c6c1fb88355b',  # <a2>F (<a1>X p1 & K{a2} p2)
    'F17': '178454b529c8e7f7',  # <a1>(<a2>X p3 W <a1>X p0)
    'F18': '155b692e5de775f4',  # K{a2} <a2>X <a1>(p1 U p3)
    'F19': 'fa33997b5fc05202',  # <a1,a2>(K{a1} p0 U <a2>X K{a2} p3)
    'R0': '4f53cda18c2baa0c',  # <a1,a2>X <a1,a2>X p
    'R1': '4f53cda18c2baa0c',  # <a1>X <a2>X q
    'R2': 'e6579b240993256f',  # K{a2} <a1,a2>(p U p)
    'R3': '13f4f0cf4bce1890',  # <a1>(q W K{a1} q)
    'R4': '22a6efab488d2e28',  # <a1,a2>F <a1>X q
    'R5': '82b2371b069f6f8e',  # <a1,a2>G (K{a2} p | <a2>X q)
    'R6': '4f53cda18c2baa0c',  # K{a1} <a1>X <a1,a2>X p
    'R7': '2c8d1c553ed1e16c',  # <a2>(q U <a2>(r W q))
    'R8': '4f53cda18c2baa0c',  # !<a2>X !K{a1,a2} p
    'R9': '1a05e99cef507c8c',  # <a1,a2>(<a1>X q U K{a1} q)
    'R10': '4f53cda18c2baa0c',  # <a1>X <a1>X q
    'R11': '4f53cda18c2baa0c',  # <a2>X <a1>X q
    'R12': '5e9ecbd69104c33c',  # K{a1,a2} <a2>(q U q)
    'R13': '17a5299ca7330c42',  # <a1>(p W K{a1} r)
    'R14': '38f848a410c08b2b',  # <a2>F <a1>X p
    'R15': '22137b0f742f31a6',  # <a1,a2>G (K{a2} q | <a2>X q)
    'R16': '4f53cda18c2baa0c',  # K{a2} <a2>X <a1>X p
    'R17': '976fd7ac2702d482',  # <a1,a2>(q U <a1,a2>(q W r))
    'R18': '4f53cda18c2baa0c',  # !<a1,a2>X !K{a2} q
    'R19': '22a6efab488d2e28',  # <a1,a2>(<a1>X q U K{a1} q)
    'S0': '8f6d7a9a7d537b64',  # <a1>F <a2>X p3
    'S1': '866b6a96921097fd',  # <a1>(p0 W p2)
    'S2': '2bf6eb593c912855',  # <a1>F <a2>X p3
    'S3': '754703ea05563b3a',  # <a1>(p0 W p2)
}


@pytest.mark.parametrize("case,arena,formula", list(cases()), ids=[c for c, _, _ in cases()])
def test_level_chain_matches_the_recorded_digest(case, arena, formula):
    assert digest(chain_record(arena, formula)) == DIGESTS[case], (case, formula)


@pytest.mark.parametrize("case,arena,formula", list(region_cases()),
                         ids=[c for c, _, _ in region_cases()])
def test_goal_regions_match_the_recorded_digest(case, arena, formula):
    assert digest(region_record(arena, formula)) == REGION_DIGESTS[case], (case, formula)


def test_levels_keep_what_the_checker_takes_on_trust():
    """Every level of the 40 instances gets a chi that is one core connective
    over props its arena labels, every goal solve gets its own kind of
    automaton, and witnesses come only from winning inits."""
    problems, extracted = [], 0
    for case, arena, formula in cases():
        found, calls = level_failures(arena, formula)
        problems += [(case, formula, line) for line in found]
        extracted += len(calls["extract_witness_strategy"])
    assert extracted > 10 and not problems, problems[:5]


def test_level_games_expand_no_settled_row():
    """On the 40 instances and, with until and weak-until goals, on the
    acceptance batches: after model_check no goal level's table holds a row
    for a settled state, and its game still lists every kset's initial
    state. A settled state wins whatever follows, so the game stops there."""
    runs = list(cases())
    for seed, g in acceptance_batches():
        rng = random.Random(90000 + seed)
        c = ",".join(random_coalition(rng))
        p1, p2 = rng.choice(sorted(g.props)), rng.choice(sorted(g.props))
        runs += [(seed, g, "<%s>(%s %s %s)" % (c, p1, op, p2)) for op in ("U", "W")]
    settled_rows, settled_listed = [], 0
    for case, arena, formula in runs:
        for level in model_check(arena, formula).table:
            if level.case not in ("until", "weak-until"):
                continue
            game = level.game
            settled_rows += [(case, formula) for state in game.rows if game.is_target(state)]
            settled_listed += sum(map(game.is_target, game.states))
            assert {game.rows.initial(s) for s in level.hat.ksets} <= set(game.states), case
    assert not settled_rows and settled_listed > 500, (settled_rows[:5], settled_listed)


if __name__ == "__main__":
    for case, arena, formula in cases():
        print("    %r: %r,  # %s" % (case, digest(chain_record(arena, formula)), formula))
    for case, arena, formula in region_cases():
        print("    %r: %r,  # %s" % (case, digest(region_record(arena, formula)), formula))
