"""The README's examples against what the package prints.

Every example line in a fenced block of ``README.md`` that ends in a
``# result`` comment is run: the CLI lines through ``charrank.cli.main``,
and the library lines in order, in one namespace, so later lines see the
names that earlier ones bound.  A result comment may carry a note after
two spaces (``# 0  (7 exceeds the 3x2 box)``); only the part before it is
compared.
"""

import re
import shlex
from pathlib import Path

import pytest

from charrank.cli import main
from charrank.identities import RANGE_KEYS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.M | re.S)


def _examples(language):
    """(code, result) per line of the ``language`` blocks; result is None
    for a line without a result comment."""
    lines = [line for lang, body in BLOCKS if lang == language for line in body.splitlines()]
    out = []
    for line in lines:
        code, _, comment = line.partition(" # ")
        out.append((code.strip(), comment.split("  ")[0].strip() or None))
    return out


CLI_EXAMPLES = [
    (code, result)
    for code, result in _examples("sh")
    if code.startswith("charrank ") and result is not None
]
LIBRARY_LINES = [(code, result) for code, result in _examples("python") if code]


def test_every_result_comment_is_collected():
    assert len(CLI_EXAMPLES) == 8
    assert sum(result is not None for _, result in LIBRARY_LINES) == 8


@pytest.mark.parametrize("command, result", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_cli_example(capsys, command, result):
    code = main(shlex.split(command)[1:])
    assert (code, capsys.readouterr().out.strip()) == (0, result)


def test_verify_flags_are_the_range_keys():
    (listed,) = re.findall(r"Grid bounds are\s+overridable per identity \(([^)]*)\)", README)
    flags = re.findall(r"`(--[\w-]+)`", listed)
    assert sorted(flags) == sorted("--" + key.replace("_", "-") for key in RANGE_KEYS)


def test_library_examples_in_order():
    namespace = {}
    for code, result in LIBRARY_LINES:
        if result is None:
            exec(code, namespace)
        else:
            assert repr(eval(code, namespace)) == result, code
