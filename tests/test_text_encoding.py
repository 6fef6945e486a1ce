"""Raw files are decoded as UTF-8 whatever the locale: a text read or write
that leaves the encoding to the locale decodes the same bytes differently
where the locale is not UTF-8 (cp1252 on Windows), or fails on them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tsprep"


def _is_binary(mode: ast.expr) -> bool:
    """True when ``mode`` is binary on every branch: a string constant
    holding "b", or a conditional between two such modes."""
    if isinstance(mode, ast.IfExp):
        return _is_binary(mode.body) and _is_binary(mode.orelse)
    return isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "b" in mode.value


def _text_calls_without_encoding(source: str) -> list[int]:
    """Lines of the ``read_text``, ``write_text`` and text-mode ``open``
    calls in ``source`` that name no ``encoding=``. ``open`` is the builtin
    or a method (``Path.open``); an imported module's ``open`` (``tarfile.open``)
    is that module's own."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or any(k.arg == "encoding" for k in node.keywords):
            continue
        func, mode = node.func, None
        if isinstance(func, ast.Attribute) and func.attr in ("read_text", "write_text"):
            lines.append(node.lineno)
            continue
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else None
        elif (isinstance(func, ast.Attribute) and func.attr == "open"
              and not (isinstance(func.value, ast.Name) and func.value.id in modules)):
            mode = node.args[0] if node.args else None
        else:
            continue
        mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
        if mode is None or not _is_binary(mode):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_names_the_encoding_of_every_text_read_and_write(path):
    assert _text_calls_without_encoding(path.read_text(encoding="utf-8")) == []


def test_the_check_flags_text_calls_and_exempts_binary_ones():
    source = "\n".join([
        "import tarfile",
        "p.read_text()",
        "p.write_text(s)",
        "open(p)",
        "open(p, 'w')",
        "p.open()",
        "open(p, mode='a' if c else 'ab')",
        "p.read_text(encoding='utf-8')",
        "open(p, 'w', encoding='utf-8')",
        "open(p, 'rb')",
        "open(p, mode='wb')",
        "open(p, 'ab' if c else 'wb')",
        "p.open('rb')",
        "tarfile.open(a, 'r:gz')",
    ])
    assert _text_calls_without_encoding(source) == [2, 3, 4, 5, 6, 7]
