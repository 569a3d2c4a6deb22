"""The lazy package: `import maxca` compiles no submodule, a public name
imports its module on first use, and each subcommand loads only the
modules it runs. A `maxca` process freezes the collector before it
exits, and ends by SIGINT with no traceback when interrupted; `cli.main`
called in-process does neither."""

import ast
import os
import signal
import subprocess
import sys

import pytest

import maxca

_SRC = os.path.dirname(os.path.dirname(maxca.__file__))

# Stdlib modules that maxca keeps off its start-up path: `dataclasses`,
# `inspect` and `typing` are slow to import, `importlib.resources`
# never (the table is read with a plain `open` beside `tables`),
# `concurrent.futures` never (the scan runs in one process),
# `argparse`, with the `gettext` and `locale` it brings, never (`cli`
# reads argv against its own table), and `__future__` never (every
# annotation is a valid expression at run time on Python 3.10, so no
# module needs PEP 563's string annotations).
_HEAVY = (
    "dataclasses", "inspect", "typing", "importlib.resources", "concurrent.futures", "argparse", "gettext", "locale",
    "__future__",
)

_PRINT_LOADED = "import sys; print(sorted(sys.modules))"

# Run as `python -m maxca.cli ARGS` does, then list the modules loaded.
_RUN_CLI = f"""
import runpy, sys
sys.argv[0] = "maxca"
try:
    runpy.run_module("maxca.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
{_PRINT_LOADED}
"""

# Run as `python -m maxca.cli ARGS` does, then print the exit code and
# how many objects the collector holds frozen.
_RUN_EXIT = """
import gc, runpy, sys
sys.argv[0] = "maxca"
try:
    runpy.run_module("maxca.cli", run_name="__main__")
except SystemExit as exc:
    print([exc.code, gc.get_freeze_count()])
"""

# Each query with the submodules it loads: those its handler runs, no
# others. `cycle` steps the automaton up to n = 8 and jumps above, which
# takes the period search from `primitivity`.
_QUERY_LOADS = {
    ("charpoly", "--rules", "00000110"): "gf2poly charpoly",
    ("primitive", "--poly", "100011101"): "gf2poly primitivity",
    ("primitive", "--poly", "100011011"): "gf2poly primitivity",
    ("cycle", "--rules", "1101"): "gf2poly charpoly automaton",
    ("cycle", "--rules", "0000011000"): "gf2poly charpoly automaton primitivity",
    ("stream", "--rules", "00000110", "--bits", "16", "--ascii"): "gf2poly charpoly automaton",
    ("primpoly-list", "--n", "5"): "gf2poly primitivity lanes",
}
_QUERIES = list(_QUERY_LOADS)


def child_value(code: str, *argv: str):
    # The last line of a fresh child running code, read as a literal.
    # Without site (-S), nothing preloads the stdlib modules checked here.
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": _SRC},
    ).stdout
    return ast.literal_eval(out.splitlines()[-1])


def maxca_modules(code: str, *argv: str) -> list[str]:
    return [m for m in child_value(code, *argv) if m.split(".")[0] == "maxca"]


def package_with(submodules: str) -> list[str]:
    return sorted(["maxca"] + [f"maxca.{m}" for m in submodules.split()])


class TestLoadContract:
    def test_import_loads_no_submodule(self):
        assert maxca_modules(f"import maxca; {_PRINT_LOADED}") == ["maxca"]

    @pytest.mark.parametrize("argv", _QUERIES)
    def test_queries_load_neither_enumerator_nor_tables(self, argv):
        assert maxca_modules(_RUN_CLI, *argv) == package_with(_QUERY_LOADS[argv])

    @pytest.mark.parametrize("argv", _QUERIES)
    def test_only_a_listing_loads_lanes(self, argv):
        # The bit-sliced pass compiles only where the primitive listing runs.
        loaded = maxca_modules(_RUN_CLI, *argv)
        assert ("maxca.lanes" in loaded) == (argv[0] == "primpoly-list")

    @pytest.mark.parametrize("argv", [("-h",), ("enum", "-h"), ("primpoly-list", "--help")])
    def test_only_help_loads_helptext(self, argv):
        # The help text compiles only where it is shown; the exact lists
        # above hold every other command to its own modules.
        assert maxca_modules(_RUN_CLI, *argv) == package_with("gf2poly helptext")

    def test_enum_does_not_load_tables(self):
        loaded = maxca_modules(_RUN_CLI, "enum", "--n", "4")
        assert loaded == package_with("gf2poly primitivity lanes charpoly enumerator")

    def test_rule_vectors_for_does_not_load_lanes(self):
        # The scan from 8 cells on lives in enumerator; only the listing
        # of the primitive polynomials needs lanes.
        code = (
            "from maxca.enumerator import rule_vectors_for; from maxca.gf2poly import parse_poly; "
            f"rule_vectors_for(parse_poly('100011101')); {_PRINT_LOADED}"
        )
        assert maxca_modules(code) == package_with("gf2poly primitivity charpoly enumerator")

    def test_verify_tables_does_not_load_enumerator(self):
        loaded = maxca_modules(_RUN_CLI, "verify-tables", "--n", "4")
        assert loaded == package_with("gf2poly primitivity charpoly automaton tables")

    @pytest.mark.parametrize(
        "name, count",
        [("format_poly", 1), ("is_primitive", 2), ("reverse", 3), ("unit_seed", 4), ("enumerate_maxlen", 5), ("verify_all", 6)],
    )
    def test_name_loads_its_module_and_those_before_it(self, name, count):
        # The cost of resolving a name through the package, pinned: the
        # first `count` modules of the resolution order, no others.
        loaded = maxca_modules(f"import maxca; maxca.{name}; {_PRINT_LOADED}")
        assert loaded == sorted(["maxca"] + [f"maxca.{m}" for m in maxca._MODULES[:count]])

    def test_name_in_a_loaded_module_imports_no_other(self):
        loaded = maxca_modules(f"import maxca.tables; maxca.verify_all; {_PRINT_LOADED}")
        assert "maxca.enumerator" not in loaded

    @pytest.mark.parametrize("name, submodules", [("cli", "cli gf2poly"), ("lanes", "lanes gf2poly")])
    def test_from_import_of_a_submodule_loads_only_it(self, name, submodules):
        # The package holds no such name, so the import system loads just
        # that submodule and what it imports.
        loaded = maxca_modules(f"from maxca import {name}; {_PRINT_LOADED}")
        assert loaded == package_with(submodules)

    def test_version_needs_no_submodule(self):
        assert maxca_modules(f"import maxca; maxca.__version__; {_PRINT_LOADED}") == ["maxca"]


class TestLazyApi:
    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from maxca import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == maxca.__all__

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'maxca' has no attribute 'no_such_name'$"):
            maxca.no_such_name
        assert not hasattr(maxca, "no_such_name")

    def test_dir_lists_every_public_name_and_module(self):
        names = dir(maxca)
        assert names == sorted(names)
        assert set(maxca.__all__) <= set(names)
        assert {"gf2poly", "charpoly", "primitivity", "automaton", "enumerator", "tables", "__version__"} <= set(names)

    def test_submodule_attribute_imports_the_module(self):
        assert "maxca.tables" in maxca_modules(f"import maxca; maxca.tables.verify_all; {_PRINT_LOADED}")

    def test_resolved_name_is_cached(self):
        value = maxca.verify_all
        assert vars(maxca)["verify_all"] is value


class TestNoHeavyImports:
    def test_full_load_imports_none(self):
        code = f"import sys, maxca; from maxca import *; maxca.__all__; print([m for m in {_HEAVY!r} if m in sys.modules])"
        assert child_value(code) == []

    def test_enumerator_leaves_process_pool_unloaded(self):
        code = "import sys, maxca.enumerator; print(['concurrent.futures' in sys.modules])"
        assert child_value(code) == [False]

    @pytest.mark.parametrize(
        "argv", [*_QUERIES, ("enum", "--n", "6"), ("verify-tables", "--n", "4"), ("enum", "--n", "10", "--jobs", "4")]
    )
    def test_cli_child_imports_none(self, argv):
        assert set(child_value(_RUN_CLI, *argv)) & set(_HEAVY) == set()


class TestExitPath:
    @pytest.mark.parametrize("argv, code", [
        (("charpoly", "--rules", "00000110"), 0),
        (("verify-tables", "--strict"), 1),
        (("charpoly",), 2),
    ])
    def test_process_freezes_and_exits_with_mains_code(self, argv, code):
        # The exit-time collections then skip every object still alive.
        exit_code, frozen = child_value(_RUN_EXIT, *argv)
        assert exit_code == code
        assert frozen > 0

    def test_main_in_process_does_not_freeze(self):
        code = "import gc, maxca.cli; print([maxca.cli.main(['charpoly', '--rules', '00000110']), gc.get_freeze_count()])"
        assert child_value(code) == [0, 0]

    def test_interrupt_ends_by_sigint_without_a_traceback(self):
        # Ctrl-C in a shell: the child dies by SIGINT, as CPython ends on
        # an uncaught interrupt, but writes nothing to stderr. SIGINT is
        # reset in the child, since a parent run in the background may
        # ignore it.
        argv = ["stream", "--rules", "00000110", "--bits", "1099511627776", "--ascii"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "maxca.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": _SRC},
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == -signal.SIGINT
        assert err == b""

    def test_script_runs_the_same_entry(self):
        # A text match: tomllib needs Python 3.11, and the floor is 3.10.
        with open(os.path.join(os.path.dirname(_SRC), "pyproject.toml")) as f:
            scripts = f.read().partition("[project.scripts]\n")[2]
        assert scripts.startswith('maxca = "maxca.cli:run"\n')
