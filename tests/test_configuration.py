"""The pytest configuration in pyproject.toml, run on throwaway test files,
and the signatures of the public API."""

import ast
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import atldk
from atldk import ArenaError, CheckerError, FormulaError, StateCapExceeded, cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")
# A `path.py::Name` or `path.py::Class.name` reference in the docs.
DOC_REFERENCE = re.compile(r"`([\w/.-]+\.py)::(\w+)(?:\.(\w+))?`")

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    """filterwarnings turns warnings into errors. A warning that hypothesis
    raises while it reports a failing example must leave a plain failure, not
    an INTERNALERROR that skips every test after it."""
    (tmp_path / "test_a_property.py").write_text(FAILING_PROPERTY)
    (tmp_path / "test_b_after.py").write_text("def test_runs():\n    pass\n")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = completed.stdout + completed.stderr
    assert completed.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in completed.stdout, output


# Every callable in atldk.__all__ with its signature (a class by its __init__).
# A public API change is deliberate: update this table with it and list the
# change in CHANGES.md.
PUBLIC_SIGNATURES = {
    "Arena": "(self, agents, actions, states, labels, initial, observes, hidden, transitions)",
    "ArenaError": "(self, /, *args, **kwargs)",
    "Strategy": "(self, coalition_members, machine, default)",
    "load_arena": "(document)",
    "Formula": "(self, /, *args, **kwargs)",
    "FormulaError": "(self, /, *args, **kwargs)",
    "ParseError": "(self, message, position)",
    "parse_formula": "(text)",
    "model_check": "(arena, f, state_cap=1000000)",
    "Verdict": "(self, holds, formula_text, table, initial, total_seconds)",
    "explain": "(verdict, state_id)",
    "CheckerError": "(self, /, *args, **kwargs)",
    "StateCapExceeded": "(self, /, *args, **kwargs)",
    "alicebob_path": "()",
    "load_alicebob": "()",
}


def test_public_signatures():
    found = {}
    for name in atldk.__all__:
        obj = getattr(atldk, name)
        if callable(obj):
            found[name] = str(inspect.signature(obj.__init__ if inspect.isclass(obj) else obj))
    assert found == PUBLIC_SIGNATURES
    assert set(atldk.__all__) - set(found) == {"SINK_ID", "DEFAULT_STATE_CAP", "__version__"}


# The public method and property names of the exported classes that have
# any, so that one cannot vanish unnoticed. Update with the change and list it
# in CHANGES.md, as for PUBLIC_SIGNATURES.
PUBLIC_MEMBERS = {
    "Arena": {"dump", "joint_actions", "name", "state_named", "to_document", "with_prop"},
    "Strategy": {"action", "from_document", "mapping", "to_document"},
    "Verdict": {"to_document", "witness"},
}


def test_public_members():
    found = {name: {member for member, _ in inspect.getmembers(getattr(atldk, name))
                    if not member.startswith("_")}
             for name in PUBLIC_MEMBERS}
    assert found == PUBLIC_MEMBERS


def test_every_error_exits_the_cli_with_code_2():
    """Every exception class an atldk module defines is an ArenaError,
    FormulaError or CheckerError, so the CLI's one error exit catches it,
    and the state cap's error is a CheckerError."""
    errors = set()
    for info in pkgutil.walk_packages(atldk.__path__, "atldk."):
        module = importlib.import_module(info.name)
        errors.update(obj for obj in vars(module).values()
                      if inspect.isclass(obj) and issubclass(obj, Exception)
                      and obj.__module__ == module.__name__)
    assert {ArenaError, CheckerError, StateCapExceeded, FormulaError} <= errors
    for error in errors:
        assert issubclass(error, (ArenaError, FormulaError, CheckerError)), error
        assert issubclass(error, cli._ERRORS), error
    assert issubclass(StateCapExceeded, CheckerError)


def test_the_readme_library_quick_start_runs(capsys):
    """The python block under "Quick start (library)" imports only public
    names and prints what its comments say."""
    section = README.read_text().split("## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    imports = [node for node in ast.walk(ast.parse(code))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(isinstance(node, ast.ImportFrom) and node.module == "atldk" for node in imports)
    assert {a.name for node in imports for a in node.names} <= set(atldk.__all__)
    said = [line.rsplit("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert said == ["True", "('g', 'g')"]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == said


def defined_names(body):
    """The names a module or class body defines: functions, classes and
    assigned names."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_doc_references_resolve():
    """Every `path.py::Name` or `path.py::Class.name` in README.md and
    ROADMAP.md names an existing file and a top-level or class-level
    definition in it. CHANGES.md is history and is not checked."""
    root, found, stale = PYPROJECT.parent, 0, []
    for doc in ("README.md", "ROADMAP.md"):
        for path, name, member in DOC_REFERENCE.findall((root / doc).read_text()):
            found += 1
            source = root / path
            body = ast.parse(source.read_text()).body if source.is_file() else []
            if member:
                classes = [node for node in body
                           if isinstance(node, ast.ClassDef) and node.name == name]
                body, name = (classes[0].body if classes else []), member
            if name not in defined_names(body):
                stale.append((doc, path, name))
    assert found and not stale, stale


def imported_modules(path):
    """The dotted names a module under src/ imports, relative imports
    resolved: X for `import X`, and X and X.name for `from X import name`,
    since the name may be a submodule."""
    package = path.relative_to(PYPROJECT.parent / "src").parent.parts
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) + 1 - node.level] if node.level else ()
            module = ".".join((*base, *([node.module] if node.module else [])))
            names.add(module)
            names.update("%s.%s" % (module, alias.name) for alias in node.names)
    return names


def test_only_the_cli_imports_click_or_the_cli():
    """The engine modules stay a library: no module under src/atldk/ but
    cli.py imports click or atldk.cli, directly or through a relative
    import. cli.py itself is read as a check that the reading finds both
    forms."""
    def frontend(name):
        return any(name == top or name.startswith(top + ".") for top in ("click", "atldk.cli"))

    package = PYPROJECT.parent / "src" / "atldk"
    assert {"click", "atldk.strategy_automata.TreeAutomaton"} <= imported_modules(
        package / "cli.py")
    layered = {p.relative_to(package).as_posix(): sorted(filter(frontend, imported_modules(p)))
               for p in package.rglob("*.py") if p.name != "cli.py"}
    assert len(layered) > 5 and not any(layered.values()), layered
