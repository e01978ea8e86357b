"""Command-line frontend over arena documents: check formulas, write coalition
refinements, render goal automata, and explain verdicts state by state."""

import json
import os
import sys

import click

from . import __version__
from .arena import ArenaError, _state_names, load_arena
from .checker import (
    DEFAULT_STATE_CAP,
    CheckerError,
    explain as explain_state,
    model_check,
)
from .emptiness import check_until_nonempty, check_weak_nonempty
from .epistemic_split import split as split_arena
from .formula import FormulaError, parse_formula
from .strategy_automata import UNTIL, WEAK_UNTIL, TreeAutomaton, to_dot

FORMAT_HUMAN = "human"
FORMAT_JSON = "json"
FORMAT_DOT = "dot"

EXIT_HOLDS = 0
EXIT_NOT_HOLDS = 1
EXIT_ERROR = 2

_ERRORS = (ArenaError, FormulaError, CheckerError, OSError, ValueError)

# Per goal kind, its emptiness solver.
_GOALS = {UNTIL: check_until_nonempty, WEAK_UNTIL: check_weak_nonempty}


def _note(message):
    click.echo(message, err=True)


def _parse_members(text, what="coalition"):
    """Members from a comma-separated list or, when the text starts with '[', a
    JSON array of strings (the form `split --format json` prints ksets in)."""
    if not text.lstrip().startswith("["):
        members = [m.strip() for m in text.split(",") if m.strip()]
    else:
        try:
            members = json.loads(text)
        except ValueError:
            members = None
        if not (isinstance(members, list) and all(isinstance(m, str) for m in members)):
            raise ArenaError("not a JSON array of strings: %s" % text)
    if not members:
        raise ArenaError("empty %s" % what)
    return members


def _emit(text, out):
    """Print the text, or write it to the file `out` ending in a newline."""
    if out is None:
        click.echo(text.rstrip("\n"))
    else:
        with open(out, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _format_action(action_map):
    return ", ".join("%s=%s" % (a, act) for a, act in action_map.items())


def _verdict(arena_path, formula_text, formula_file, state_cap):
    """Check the formula, read from its file when one is given, in the arena."""
    g = load_arena(arena_path)
    if formula_file is not None:
        with open(formula_file) as handle:
            formula_text = handle.read()
    if formula_text is None or not formula_text.strip():
        raise FormulaError("a formula is required (--formula or --formula-file)")
    return model_check(g, parse_formula(formula_text), state_cap=state_cap)


def _split(arena_path, coalition_text, state_cap):
    g = load_arena(arena_path)
    return split_arena(g, _parse_members(coalition_text), limit=state_cap)


class _Group(click.Group):
    """A command group whose commands report every expected failure as
    `error: ...` on stderr and exit code 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _ERRORS as exc:
            click.echo("error: %s" % exc, err=True)
            sys.exit(EXIT_ERROR)
        except MemoryError:
            # Exit 1 would read as "does not hold". Only a witness's rendered table
            # grows with the observation histories: --witness and explain meet this first.
            click.echo("error: out of memory (an arena, formula or witness too large "
                       "for the memory available)", err=True)
            sys.exit(EXIT_ERROR)


def _arena_option(help="Arena document (JSON).", **attrs):
    return click.option("--arena", "arena_path", help=help,
                        type=click.Path(exists=True, dir_okay=False), **attrs)


def _formula_options(command):
    """--formula and --formula-file, in that order."""
    command = click.option(
        "--formula-file", type=click.Path(exists=True, dir_okay=False), default=None,
        help="Read the formula from a file; wins over --formula.")(command)
    return click.option("--formula", "formula_text", default=None,
                        help="Formula text (shell quoted).")(command)


def _format_option(choices=(FORMAT_HUMAN, FORMAT_JSON)):
    return click.option("--format", "fmt", type=click.Choice(choices), default=FORMAT_HUMAN,
                        show_default=True, help="Output format.")


_state_cap_option = click.option(
    "--state-cap", type=click.IntRange(min=0), default=DEFAULT_STATE_CAP, show_default=True,
    help="Abort when a refinement would exceed this many states.")
_coalition_option = click.option("--coalition", "coalition_text", required=True,
                                  help="Comma-separated coalition members.")


@click.group(cls=_Group)
@click.version_option(__version__, prog_name="atldk")
def main():
    """Model checking of coalition strategies under imperfect information with
    perfect recall and distributed knowledge."""


@main.command()
@_arena_option(required=True)
@_formula_options
@_format_option()
@_state_cap_option
@click.option("--witness", "witness_path", type=click.Path(dir_okay=False), default=None,
              help="Write the witness strategy of the outermost until or weak-until "
                   "level here when it is positive.")
@click.option("--dump-arenas", "dump_dir", type=click.Path(file_okay=False), default=None,
              help="Write every arena level of the labeling sequence into this directory.")
def check(arena_path, formula_text, formula_file, fmt, state_cap, witness_path, dump_dir):
    """Decide whether a formula is valid in an arena.

    Exits 0 when the formula holds, 1 when it does not, 2 on errors.
    """
    verdict = _verdict(arena_path, formula_text, formula_file, state_cap)
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
        verdict.table.base.dump(os.path.join(dump_dir, "level_0.json"))
        for level in verdict.table:
            level.arena.dump(os.path.join(dump_dir, "level_%d.json" % level.k))
        _note("arena levels written to %s" % dump_dir)
    if witness_path is not None:
        strategy = verdict.witness()
        if strategy is None:
            _note("no witness: no positive outermost until or weak-until level")
        else:
            _emit(json.dumps(strategy.to_document(), indent=2), witness_path)
            _note("witness written to %s" % witness_path)
    if fmt == FORMAT_JSON:
        click.echo(json.dumps(verdict.to_document(), indent=2))
    else:
        _print_verdict(verdict)
    sys.exit(EXIT_HOLDS if verdict.holds else EXIT_NOT_HOLDS)


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
@_arena_option(required=True)
@_coalition_option
@_format_option()
@_state_cap_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the refined arena document here.")
def split_command(arena_path, coalition_text, fmt, state_cap, out_path):
    """Refine an arena by a coalition's pooled observations and report its
    knowledge sets."""
    hat = _split(arena_path, coalition_text, state_cap)
    ksets = sorted((_state_names(hat.source, s) for s in hat.ksets), key=lambda s: (len(s), s))
    doc = hat.arena.to_document()
    if out_path is not None:
        _emit(json.dumps(doc, indent=2), out_path)
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


@main.command()
@_arena_option(required=True)
@_coalition_option
@click.option("--kind", type=click.Choice([UNTIL, WEAK_UNTIL]),
              default=UNTIL, show_default=True, help="Goal automaton kind.")
@click.option("--p1", required=True, help="Maintenance prop of the goal.")
@click.option("--p2", required=True, help="Target prop of the goal.")
@click.option("--kset", "kset_text", default=None,
              help="Comma-separated knowledge set; defaults to the knowledge set "
                   "of the first initial refined state.")
@_format_option((FORMAT_HUMAN, FORMAT_JSON, FORMAT_DOT))
@_state_cap_option
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Write the output here instead of stdout.")
def automaton(arena_path, coalition_text, kind, p1, p2, kset_text, fmt, state_cap, out_path):
    """Build the goal automaton for one knowledge set and report its emptiness."""
    hat = _split(arena_path, coalition_text, state_cap)
    if kset_text is None:
        source = hat.kset[hat.arena.initial[0]]
    else:
        source = hat.require_kset(_parse_members(kset_text, "knowledge set"))
    for p in (p1, p2):
        if p not in hat.source.props:
            raise ArenaError("unknown goal prop %s" % p)
    built = TreeAutomaton(kind, hat, p1, p2, source)
    nonempty, solution = _GOALS[kind](built)
    language = "nonempty" if nonempty else "EMPTY"
    if fmt == FORMAT_DOT:
        _emit(to_dot(built, annotation="language %s" % language), out_path)
    elif fmt == FORMAT_JSON:
        _emit(json.dumps(_automaton_document(built, source, nonempty), indent=2), out_path)
    else:
        _emit("\n".join(_automaton_summary(built, source, nonempty, solution)), out_path)


def _automaton_document(built, kset, nonempty):
    hat = built.hat
    observations = hat.view.observations
    transitions = []
    for state in built.states:
        ranks, targets, _ = built.rows[state]
        for c_a, rs, ts in zip(built.alphabet, ranks, targets):
            entry = {
                "from": built.pretty(state),
                "action": dict(zip(hat.view.members, c_a)),
                "to": [built.pretty(t) for t in ts],
            }
            if rs:
                entry["classes"] = [
                    {"observation": sorted(observations[r]), "to": built.pretty(t)}
                    for r, t in zip(rs, ts)
                ]
            transitions.append(entry)
    return {
        "kind": built.kind,
        "coalition": sorted(hat.coalition),
        "kset": _state_names(hat.source, kset),
        "p1": built.p1,
        "p2": built.p2,
        "nonempty": nonempty,
        "initial": built.pretty(built.init),
        "states": [built.pretty(s) for s in built.states],
        "targets": [built.pretty(s) for s in built.targets()],
        "transitions": transitions,
    }


def _automaton_summary(built, kset, nonempty, solution):
    hat = built.hat
    lines = [
        "kind: %s" % built.kind,
        "coalition: {%s}" % ",".join(sorted(hat.coalition)),
        "kset: {%s}" % ",".join(_state_names(hat.source, kset)),
        "goal props: (%s, %s)" % (built.p1, built.p2),
        "states: %d" % len(built),
        "initial: %s" % built.pretty(built.init),
        "language: %s" % ("nonempty" if nonempty else "EMPTY"),
    ]
    if nonempty:
        lines.append("winning choices:")
        for state in built.states:
            if state in solution.choice:
                action = dict(zip(hat.view.members, solution.choice[state]))
                lines.append("  %s: %s" % (built.pretty(state), _format_action(action)))
    return lines


@main.command()
@_arena_option(required=True)
@_formula_options
@click.option("--state", "state_id", required=True,
              help="State id at any level of the labeling sequence.")
@_format_option()
@_state_cap_option
def explain(arena_path, formula_text, formula_file, state_id, fmt, state_cap):
    """Trace the labels of one state through the labeling sequence."""
    verdict = _verdict(arena_path, formula_text, formula_file, state_cap)
    record = explain_state(verdict, state_id)
    if fmt == FORMAT_JSON:
        click.echo(json.dumps(record, indent=2))
    else:
        _print_explanation(record)
    sys.exit(EXIT_HOLDS if verdict.holds else EXIT_NOT_HOLDS)


def _print_explanation(record):
    click.echo("base state: %s" % record["state"])
    click.echo("base labels: {%s}" % ",".join(record["base_labels"]))
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


if __name__ == "__main__":
    main()
