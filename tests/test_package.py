"""The lazy package namespace and the imports each CLI command makes.

Every check runs in a fresh interpreter, so no module that another test
imported can stand in for one the code under test should load itself.
"""

import json
import subprocess
import sys

import pytest


def fresh(code, *argv):
    """Run ``code`` in a new interpreter; return its stdout."""
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_every_exported_name_is_its_home_submodule_object():
    wrong = fresh(
        "import importlib, charrank\n"
        "print([name for name in charrank.__all__ if name != '__version__' and getattr("
        "charrank, name) is not getattr(importlib.import_module("
        "'charrank.' + charrank._HOME[name]), name)])"
    )
    assert wrong == "[]\n"


def test_star_import_binds_every_exported_name():
    missing = fresh(
        "from charrank import *\n"
        "import charrank\n"
        "print([name for name in charrank.__all__ if name not in globals()])"
    )
    assert missing == "[]\n"


def test_dir_covers_all_and_the_submodules():
    missing = fresh(
        "import charrank\n"
        "names = set(dir(charrank))\n"
        "print(sorted({*charrank.__all__, 'identities', 'oracles', 'cli'} - names))"
    )
    assert missing == "[]\n"


def test_unknown_name_raises_attribute_error():
    out = fresh(
        "import charrank\n"
        "try:\n"
        "    charrank.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(hasattr(charrank, 'no_such_name'), hasattr(charrank, '_kernels_py'))"
    )
    assert out == "module 'charrank' has no attribute 'no_such_name'\nFalse False\n"


def test_import_alone_loads_no_submodule():
    loaded = fresh(
        "import sys, charrank\n"
        "print(charrank.__version__, sorted(m for m in sys.modules if m.startswith('charrank.')))"
    )
    assert loaded == "0.1.0 []\n"


def test_submodules_resolve_as_attributes_without_an_earlier_import():
    # the attribute reads of perfbench's Oracle and Tracer.install
    out = fresh(
        "import charrank\n"
        "print(charrank.oracles.pentagonal_partition_table(5)[-1], "
        "charrank.identities.verify_sweep.__name__)"
    )
    assert out == "7 verify_sweep\n"


def test_a_resolved_name_is_kept_in_the_namespace():
    out = fresh(
        "import charrank\n"
        "first = charrank.count_total\n"
        "print('count_total' in vars(charrank), charrank.count_total is first)"
    )
    assert out == "True True\n"


# Run through ``cli.main`` in a fresh interpreter; print the output, then
# the exit code and every module that was loaded, as JSON.
MODULES_OF = (
    "import json, sys\n"
    "from charrank.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(sys.modules)]))"
)

#: The modules of an interpreter started the same way that runs nothing.
BARE = "import json, sys\nprint(json.dumps(sorted(sys.modules)))"


def run_command(argv):
    """The text output, exit code and loaded modules of one command."""
    text, record = fresh(MODULES_OF, *argv.split()).rsplit("\n", 2)[:2]
    code, loaded = json.loads(record)
    return text, code, set(loaded)


#: What a count, betti or bound command has no use for.
VERIFICATION_STACK = {
    "charrank.identities", "charrank.bijection", "charrank.oracles", "charrank.report"
}


@pytest.mark.parametrize(
    "argv, output",
    [
        ("count total 5", "7"),
        ("betti 6 3", "1 1 2 3 3 3 3 2 1 1"),
        ("bound --set 1,2 --dim inf --charrank inf --degree 5", "3"),
    ],
)
def test_commands_leave_the_verification_stack_unloaded(argv, output):
    text, code, loaded = run_command(argv)
    assert (code, text) == (0, output)
    assert "charrank.cli" in loaded
    assert not VERIFICATION_STACK & loaded


def test_verify_loads_what_it_runs():
    text, code, loaded = run_command("verify eq4 --max-j 3")
    assert code == 0
    assert text == "eq4: pass (checked=3, failures=0)\noverall: pass"
    assert VERIFICATION_STACK <= loaded


@pytest.mark.parametrize(
    "argv",
    [
        "count total 5",
        "betti 6 3",
        "bound --set 1,2 --dim inf --charrank inf --degree 5",
        "verify eq4 --max-j 3",
    ],
)
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    # against a bare start, not a fixed list: a site hook may import either
    _, code, loaded = run_command(argv)
    assert code == 0
    assert not {"dataclasses", "inspect"} & (loaded - set(json.loads(fresh(BARE))))

