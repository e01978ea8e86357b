"""Command-line frontend over arena documents: check formulas, write coalition
refinements, render goal automata, cross-check the emptiness solvers against
the generic occurrence oracle, and explain verdicts state by state."""

import json
import os
import random
import sys

import click

from . import __version__
from .arena import ArenaError, load_arena
from .checker import (
    DEFAULT_STATE_CAP,
    CheckerError,
    explain as explain_state,
    model_check,
)
from .emptiness import (
    DEFAULT_ORACLE_GUARD,
    EmptinessError,
    check_until_nonempty,
    check_weak_nonempty,
    generic_occurrence_emptiness,
    until_accept,
    weak_accept,
)
from .epistemic_split import split as split_arena
from .formula import FormulaError, parse_formula
from .strategy_automata import (
    UNTIL,
    WEAK_UNTIL,
    AutomatonError,
    build_until_automaton,
    build_weak_until_automaton,
    to_dot,
)

FORMAT_HUMAN = "human"
FORMAT_JSON = "json"
FORMAT_DOT = "dot"

EXIT_HOLDS = 0
EXIT_NOT_HOLDS = 1
EXIT_ERROR = 2
EXIT_DIVERGENCE = 3

_ERRORS = (ArenaError, FormulaError, AutomatonError, EmptinessError, CheckerError,
           OSError, ValueError)


def _fail(message):
    click.echo("error: %s" % message, err=True)
    sys.exit(EXIT_ERROR)


def _note(message):
    click.echo(message, err=True)


def _read_formula(text, path):
    if path is not None:
        with open(path) as handle:
            text = handle.read()
    if text is None or not text.strip():
        raise FormulaError("a formula is required (--formula or --formula-file)")
    return parse_formula(text)


def _parse_members(text):
    members = [m.strip() for m in text.split(",") if m.strip()]
    if not members:
        raise ArenaError("empty coalition")
    return members


def _write_text(path, text):
    with open(path, "w") as handle:
        handle.write(text if text.endswith("\n") else text + "\n")


def _write_json(path, doc):
    _write_text(path, json.dumps(doc, indent=2))


def _emit(text, out):
    if out is None:
        click.echo(text.rstrip("\n"))
    else:
        _write_text(out, text)


def _action_map(members, action):
    return {a: act for a, act in zip(members, action)}


@click.group()
@click.version_option(__version__, prog_name="atldk")
def main():
    """Model checking of coalition strategies under imperfect information with
    perfect recall and distributed knowledge."""


@main.command()
@click.option("--arena", "arena_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Arena document (JSON).")
@click.option("--formula", "formula_text", default=None,
              help="Formula text (shell quoted).")
@click.option("--formula-file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Read the formula from a file; wins over --formula.")
@click.option("--format", "fmt", type=click.Choice([FORMAT_HUMAN, FORMAT_JSON]),
              default=FORMAT_HUMAN, show_default=True, help="Output format.")
@click.option("--state-cap", type=int, default=DEFAULT_STATE_CAP, show_default=True,
              help="Abort when a refinement would exceed this many states.")
@click.option("--witness", "witness_path", type=click.Path(dir_okay=False), default=None,
              help="Write the witness strategy of the outermost until or weak-until "
                   "level here when it is positive.")
@click.option("--dump-arenas", "dump_dir", type=click.Path(file_okay=False), default=None,
              help="Write every arena level of the labeling sequence into this directory.")
def check(arena_path, formula_text, formula_file, fmt, state_cap, witness_path, dump_dir):
    """Decide whether a formula is valid in an arena.

    Exits 0 when the formula holds, 1 when it does not, 2 on errors.
    """
    try:
        g = load_arena(arena_path)
        f = _read_formula(formula_text, formula_file)
        verdict = model_check(g, f, state_cap=state_cap)
        if dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
            g.dump(os.path.join(dump_dir, "level_0.json"))
            for level in verdict.table:
                level.arena.dump(os.path.join(dump_dir, "level_%d.json" % level.k))
            _note("arena levels written to %s" % dump_dir)
        if witness_path is not None:
            strategy = verdict.witness()
            if strategy is None:
                _note("no witness: no positive outermost until or weak-until level")
            else:
                _write_json(witness_path, strategy.to_document())
                _note("witness written to %s" % witness_path)
        if fmt == FORMAT_JSON:
            click.echo(json.dumps(verdict.to_document(), indent=2))
        else:
            _print_verdict(verdict)
        sys.exit(EXIT_HOLDS if verdict.holds else EXIT_NOT_HOLDS)
    except _ERRORS as exc:
        _fail(exc)


def _print_verdict(verdict):
    click.echo("formula: %s" % verdict.formula)
    click.echo("%4s  %-12s %8s %8s" % ("k", "case", "states", "labeled"))
    for level in verdict.table:
        stats = level.stats()
        click.echo("%4d  %-12s %8d %8d"
                   % (stats["k"], stats["case"], stats["states"], stats["labeled"]))
    click.echo("initial states:")
    for q, value in verdict.initial:
        click.echo("  %-24s %s" % (q, "true" if value else "false"))
    click.echo("verdict: %s" % ("holds" if verdict.holds else "does not hold"))


@main.command("split")
@click.option("--arena", "arena_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Arena document (JSON).")
@click.option("--coalition", "coalition_text", required=True,
              help="Comma-separated coalition members.")
@click.option("--format", "fmt", type=click.Choice([FORMAT_HUMAN, FORMAT_JSON]),
              default=FORMAT_HUMAN, show_default=True, help="Output format.")
@click.option("--state-cap", type=int, default=DEFAULT_STATE_CAP, show_default=True,
              help="Abort when the refinement would exceed this many states.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the refined arena document here.")
def split_command(arena_path, coalition_text, fmt, state_cap, out_path):
    """Refine an arena by a coalition's pooled observations and report its
    knowledge sets."""
    try:
        g = load_arena(arena_path)
        members = _parse_members(coalition_text)
        hat = split_arena(g, members, limit=state_cap)
        ksets = sorted((g.sorted_states(s) for s in hat.ksets),
                       key=lambda members_: (len(members_), members_))
        doc = hat.arena.to_document()
        if out_path is not None:
            _write_json(out_path, doc)
            _note("refined arena written to %s" % out_path)
        if fmt == FORMAT_JSON:
            click.echo(json.dumps({
                "coalition": sorted(hat.coalition),
                "states": len(hat.arena.states),
                "ksets": ksets,
                "arena": doc,
            }, indent=2))
        else:
            click.echo("coalition: {%s}" % ",".join(sorted(hat.coalition)))
            click.echo("refined states: %d" % len(hat.arena.states))
            click.echo("knowledge sets: %d" % len(ksets))
            nontrivial = [s for s in ksets if len(s) > 1]
            if nontrivial:
                click.echo("non-singleton knowledge sets:")
                for s in nontrivial:
                    click.echo("  {%s}" % ",".join(s))
            else:
                click.echo("non-singleton knowledge sets: none")
        sys.exit(EXIT_HOLDS)
    except _ERRORS as exc:
        _fail(exc)


@main.command()
@click.option("--arena", "arena_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Arena document (JSON).")
@click.option("--coalition", "coalition_text", required=True,
              help="Comma-separated coalition members.")
@click.option("--kind", type=click.Choice([UNTIL, WEAK_UNTIL]),
              default=UNTIL, show_default=True, help="Goal automaton kind.")
@click.option("--p1", required=True, help="Maintenance prop of the goal.")
@click.option("--p2", required=True, help="Target prop of the goal.")
@click.option("--kset", "kset_text", default=None,
              help="Comma-separated knowledge set; defaults to the knowledge set "
                   "of the first initial refined state.")
@click.option("--format", "fmt",
              type=click.Choice([FORMAT_HUMAN, FORMAT_JSON, FORMAT_DOT]),
              default=FORMAT_HUMAN, show_default=True, help="Output format.")
@click.option("--state-cap", type=int, default=DEFAULT_STATE_CAP, show_default=True,
              help="Abort when the refinement would exceed this many states.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the output here instead of stdout.")
def automaton(arena_path, coalition_text, kind, p1, p2, kset_text, fmt, state_cap, out_path):
    """Build the goal automaton for one knowledge set and report its emptiness."""
    try:
        g = load_arena(arena_path)
        members = _parse_members(coalition_text)
        hat = split_arena(g, members, limit=state_cap)
        if kset_text is None:
            source = hat.kset[hat.arena.initial[0]]
        else:
            source = hat.require_kset(_parse_members(kset_text))
        if kind == UNTIL:
            built = build_until_automaton(hat, members, p1, p2, source)
            nonempty, solution = check_until_nonempty(built)
        else:
            built = build_weak_until_automaton(hat, members, p1, p2, source)
            nonempty, solution = check_weak_nonempty(built)
        language = "nonempty" if nonempty else "EMPTY"
        if fmt == FORMAT_DOT:
            _emit(to_dot(built, annotation="language %s" % language), out_path)
        elif fmt == FORMAT_JSON:
            _emit(json.dumps(_automaton_document(built, nonempty), indent=2), out_path)
        else:
            _emit("\n".join(_automaton_summary(built, nonempty, solution)), out_path)
        sys.exit(EXIT_HOLDS)
    except _ERRORS as exc:
        _fail(exc)


def _automaton_document(built, nonempty):
    hat = built.hat
    order = hat.source.sorted_states
    members = hat.members
    transitions = []
    for state in built.states:
        for c_a in built.alphabet:
            entry = {
                "from": built.pretty(state),
                "action": _action_map(members, c_a),
                "to": [built.pretty(t) for t in built.delta[(state, c_a)]],
            }
            classes = built.classes[(state, c_a)]
            if classes:
                entry["classes"] = [
                    {"observation": sorted(z), "to": built.pretty(t)} for z, t in classes
                ]
            transitions.append(entry)
    return {
        "kind": built.kind,
        "coalition": sorted(hat.coalition),
        "kset": order(built.source_kset),
        "p1": built.p1,
        "p2": built.p2,
        "nonempty": nonempty,
        "initial": built.pretty(built.init),
        "states": [built.pretty(s) for s in built.states],
        "targets": [built.pretty(s) for s in built.targets()],
        "transitions": transitions,
    }


def _automaton_summary(built, nonempty, solution):
    hat = built.hat
    order = hat.source.sorted_states
    lines = [
        "kind: %s" % built.kind,
        "coalition: {%s}" % ",".join(sorted(hat.coalition)),
        "kset: {%s}" % ",".join(order(built.source_kset)),
        "goal props: (%s, %s)" % (built.p1, built.p2),
        "states: %d" % len(built),
        "initial: %s" % built.pretty(built.init),
        "language: %s" % ("nonempty" if nonempty else "EMPTY"),
    ]
    if nonempty:
        lines.append("winning choices:")
        for state in built.states:
            if state in solution.choice:
                action = _action_map(hat.members, solution.choice[state])
                lines.append("  %s: %s"
                             % (built.pretty(state),
                                ", ".join("%s=%s" % (a, act) for a, act in action.items())))
    return lines


@main.command()
@click.option("--arena", "arena_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Arena document (JSON); requires --formula or --formula-file.")
@click.option("--formula", "formula_text", default=None,
              help="Formula text (shell quoted).")
@click.option("--formula-file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Read the formula from a file; wins over --formula.")
@click.option("--seed", type=int, default=None,
              help="Random-batch mode: seed for generated arenas.")
@click.option("--batch", type=click.IntRange(min=1), default=25, show_default=True,
              help="Random-batch mode: number of generated arenas.")
@click.option("--format", "fmt", type=click.Choice([FORMAT_HUMAN, FORMAT_JSON]),
              default=FORMAT_HUMAN, show_default=True, help="Output format.")
@click.option("--state-cap", type=int, default=DEFAULT_STATE_CAP, show_default=True,
              help="Abort when a refinement would exceed this many states.")
@click.option("--oracle-guard", type=int, default=DEFAULT_ORACLE_GUARD, show_default=True,
              help="Refuse to run the generic oracle on automata larger than this.")
def oracle(arena_path, formula_text, formula_file, seed, batch, fmt, state_cap,
           oracle_guard):
    """Cross-check the emptiness solvers against the generic occurrence oracle.

    With --arena, checks the given formula and compares every goal automaton it
    built; with --seed, sweeps a batch of small random arenas. Exits 0 on
    agreement, 3 on divergence.
    """
    try:
        if arena_path is None and seed is None:
            raise CheckerError("oracle mode needs --arena with a formula, or --seed")
        if arena_path is not None:
            g = load_arena(arena_path)
            f = _read_formula(formula_text, formula_file)
            verdict = model_check(g, f, state_cap=state_cap)
            records = _verdict_comparisons(verdict, oracle_guard)
        else:
            records = _batch_comparisons(random.Random(seed), batch, state_cap,
                                         oracle_guard)
        divergences = sum(1 for r in records if not r["agree"])
        if fmt == FORMAT_JSON:
            click.echo(json.dumps({
                "comparisons": records,
                "divergences": divergences,
            }, indent=2))
        else:
            if not records:
                click.echo("no goal automata to compare")
            for r in records:
                where = ("arena %d" % r["arena"]) if "arena" in r else ("level %d" % r["level"])
                click.echo("%s %s kset={%s}: solver=%s oracle=%s %s"
                           % (where, r["case"], ",".join(r["kset"]),
                              "nonempty" if r["solver"] else "empty",
                              "nonempty" if r["oracle"] else "empty",
                              "ok" if r["agree"] else "DIVERGENCE"))
            click.echo("comparisons: %d, divergences: %d" % (len(records), divergences))
        sys.exit(EXIT_DIVERGENCE if divergences else EXIT_HOLDS)
    except _ERRORS as exc:
        _fail(exc)


def _generic_verdict(built, guard):
    accept = until_accept(built) if built.kind == UNTIL else weak_accept(built)
    return generic_occurrence_emptiness(built, accept, guard=guard)


def _verdict_comparisons(verdict, guard):
    records = []
    for level in verdict.table:
        if level.case not in (UNTIL, WEAK_UNTIL):
            continue
        order = level.hat.source.sorted_states
        for s in sorted(level.automata, key=lambda kset: (len(kset), order(kset))):
            built = level.automata[s]
            solver = built.init in level.solution.winning
            generic = _generic_verdict(built, guard)
            records.append({
                "level": level.k,
                "case": level.case,
                "kset": order(s),
                "solver": solver,
                "oracle": generic,
                "agree": solver == generic,
            })
    return records


def _batch_comparisons(rng, batch, state_cap, guard):
    records = []
    for index in range(batch):
        g = load_arena(_random_arena_document(rng))
        members = rng.choice((["a1"], ["a2"], ["a1", "a2"]))
        props = sorted(g.props)
        p1 = rng.choice(props)
        p2 = rng.choice(props)
        hat = split_arena(g, members, limit=state_cap)
        order = g.sorted_states
        for s in sorted(hat.ksets, key=lambda kset: (len(kset), order(kset))):
            for kind, build, decide in (
                    (UNTIL, build_until_automaton, check_until_nonempty),
                    (WEAK_UNTIL, build_weak_until_automaton, check_weak_nonempty)):
                built = build(hat, members, p1, p2, s)
                solver = decide(built)[0]
                generic = _generic_verdict(built, guard)
                records.append({
                    "arena": index,
                    "case": kind,
                    "kset": order(s),
                    "solver": solver,
                    "oracle": generic,
                    "agree": solver == generic,
                })
    return records


def _random_arena_document(rng):
    """A small random serial arena document for oracle sweeps."""
    states = ["s%d" % i for i in range(rng.randint(2, 3))]
    props = ["p", "q"][: rng.randint(1, 2)]
    owners = {prop: rng.choice(("a1", "a2", "both", "hidden")) for prop in props}
    agents = [
        {"name": name,
         "actions": ["m%d" % i for i in range(rng.randint(1, 2))],
         "observes": [p for p in props if owners[p] in (name, "both")]}
        for name in ("a1", "a2")
    ]
    hidden = [p for p in props if owners[p] == "hidden"]
    state_docs = [{"id": q, "labels": [p for p in props if rng.random() < 0.5]}
                  for q in states]
    initial = [q for q in states if rng.random() < 0.4] or [rng.choice(states)]
    transitions = []
    for q in states:
        for c1 in agents[0]["actions"]:
            for c2 in agents[1]["actions"]:
                to = rng.sample(states, rng.randint(1, min(2, len(states))))
                transitions.append({"from": q, "actions": {"a1": c1, "a2": c2},
                                    "to": sorted(to)})
    return {
        "agents": agents,
        "hidden_props": hidden,
        "states": state_docs,
        "initial": initial,
        "transitions": transitions,
    }


@main.command()
@click.option("--arena", "arena_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Arena document (JSON).")
@click.option("--formula", "formula_text", default=None,
              help="Formula text (shell quoted).")
@click.option("--formula-file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Read the formula from a file; wins over --formula.")
@click.option("--state", "state_id", required=True,
              help="State id at any level of the labeling sequence.")
@click.option("--format", "fmt", type=click.Choice([FORMAT_HUMAN, FORMAT_JSON]),
              default=FORMAT_HUMAN, show_default=True, help="Output format.")
@click.option("--state-cap", type=int, default=DEFAULT_STATE_CAP, show_default=True,
              help="Abort when a refinement would exceed this many states.")
def explain(arena_path, formula_text, formula_file, state_id, fmt, state_cap):
    """Trace the labels of one state through the labeling sequence."""
    try:
        g = load_arena(arena_path)
        f = _read_formula(formula_text, formula_file)
        verdict = model_check(g, f, state_cap=state_cap)
        record = explain_state(verdict, state_id)
        if fmt == FORMAT_JSON:
            click.echo(json.dumps(record, indent=2))
        else:
            _print_explanation(record)
        sys.exit(EXIT_HOLDS if verdict.holds else EXIT_NOT_HOLDS)
    except _ERRORS as exc:
        _fail(exc)


def _print_explanation(record):
    click.echo("base state: %s" % record["state"])
    click.echo("base labels: {%s}" % ",".join(record["base_labels"]))
    if not record["chain"]:
        click.echo("no labeling levels contain this state")
    for entry in record["chain"]:
        line = ("level %2d  %-11s %-6s %-5s state=%s"
                % (entry["level"], entry["case"], entry["prop"],
                   "true" if entry["labeled"] else "false", entry["state"]))
        if "kset" in entry:
            line += "  kset={%s}" % ",".join(entry["kset"])
        click.echo(line)
    witness = record.get("witness")
    if witness is not None:
        click.echo("witness strategy:")
        click.echo("  coalition: %s" % ", ".join(witness["coalition"]))
        click.echo("  default: %s" % _format_action(witness["default"]))
        for entry in witness["map"]:
            history = " . ".join("{%s}" % ",".join(z) for z in entry["history"])
            click.echo("  %s -> %s" % (history, _format_action(entry["action"])))


def _format_action(action_map):
    return ", ".join("%s=%s" % (a, act) for a, act in action_map.items())


if __name__ == "__main__":
    main()
