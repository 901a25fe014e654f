"""One malformed-input rule: only ``util.parsing`` turns what Python raises on
a malformed value into a ``PmpdError``. Every other ``except`` clause in
``src/pmpd`` names a pmpd error, or ``OSError`` for a file that cannot be
read at all. Only ``util.json_int`` reads an integer with ``operator.index``."""
import ast
import json
import operator
from pathlib import Path

import pytest

from pmpd import errors
from pmpd.errors import ConfigError, ContractViolation, FormatError
from pmpd.util import parsing

SRC = Path(__file__).resolve().parents[1] / "src" / "pmpd"
MALFORMED = {"KeyError", "IndexError", "TypeError", "ValueError", "AttributeError",
             "OverflowError"}
ALLOWED = {"OSError"} | {name for name, obj in vars(errors).items()
                         if isinstance(obj, type) and issubclass(obj, errors.PmpdError)}


def caught_names(handler: ast.ExceptHandler) -> set[str]:
    """Names an ``except`` clause catches; a bare ``except`` catches everything."""
    if handler.type is None:
        return {"BaseException"}
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(handler.type)
            if isinstance(node, (ast.Name, ast.Attribute))}


def handlers():
    """(file, innermost enclosing function, handler) of every ``except`` clause
    in src/pmpd."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):  # breadth first, so inner functions overwrite
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                yield path.name, owner.get(id(node)), node


def test_only_util_parsing_catches_malformed_value_errors():
    rule = []
    stray = []
    for file, func, handler in handlers():
        names = caught_names(handler)
        if (file, func) == ("util.py", "parsing"):
            rule.append(names)
        elif not names <= ALLOWED:
            stray.append(f"{file}:{handler.lineno} in {func}: except {sorted(names)}")
    assert rule == [MALFORMED], rule
    assert not stray, stray


def index_reads():
    """``file:line`` of every use of ``operator.index`` in src/pmpd outside
    ``util``: an attribute ``operator.index`` or a name imported from ``operator``."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ((isinstance(node, ast.Attribute) and node.attr == "index"
                 and isinstance(node.value, ast.Name) and node.value.id == "operator")
                    or (isinstance(node, ast.ImportFrom) and node.module == "operator"
                        and any(alias.name == "index" for alias in node.names))):
                yield f"{path.name}:{node.lineno}"


def test_only_util_reads_integers_with_operator_index():
    # operator.index(True) is 1: every integer a file holds is read by
    # util.json_int, which refuses a boolean first
    assert not list(index_reads())


MALFORMED_VALUES = {"missing-key": lambda: {}["k"], "missing-index": lambda: [][0],
                    "not-a-number": lambda: int("x"), "infinity": lambda: int(1e400),
                    "not-a-dict": lambda: [].get, "bad-json": lambda: json.loads("[1,"),
                    "not-utf8": lambda: b"\xff".decode("utf-8"),
                    "float-for-int": lambda: operator.index(2.0)}


@pytest.mark.parametrize("read", MALFORMED_VALUES.values(), ids=MALFORMED_VALUES.keys())
def test_parsing_turns_a_malformed_value_into_format_error(read):
    with pytest.raises(FormatError, match="^malformed thing: "):
        with parsing("thing"):
            read()


def test_parsing_passes_pmpd_errors_and_other_failures_through():
    for exc in (ConfigError("domain"), ContractViolation("bug"), ZeroDivisionError()):
        with pytest.raises(type(exc)):
            with parsing("thing"):
                raise exc
