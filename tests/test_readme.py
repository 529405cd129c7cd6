"""README.md names only what the code has.

Every backticked Python identifier in README.md, dotted or not and with or
without a call suffix (``SwitchState.process``, ``bench.run_latency(config)``),
must name something in ``src/``, ``perfbench/`` or ``tools/``: each of its
dotted parts is a name, an attribute, an argument, an imported or defined
name, a module or a string literal there. File names, keywords and the
interpreter's own environment variables are skipped.
"""

import ast
import keyword
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "perfbench", "tools")
FILE_SUFFIXES = {"py", "md", "json", "txt", "csv", "pcap", "toml", "yml"}
# Read by Python itself, not by the code: CI sets it to run the pins under fixed hash seeds.
INTERPRETER_VARIABLES = {"PYTHONHASHSEED"}
IDENTIFIER = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def code_names() -> set[str]:
    names: set[str] = set()
    for directory in CODE_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            names.add(path.stem)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.arg):
                    names.add(node.arg)
                elif isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def identifiers(markdown: str) -> list[str]:
    """The identifiers the code spans of ``markdown`` name, without their call suffixes."""
    found = []
    prose = re.sub(r"^ *```.*?^ *```", "", markdown, flags=re.MULTILINE | re.DOTALL)
    for span in re.findall(r"`([^`]+)`", prose):
        match = IDENTIFIER.fullmatch(" ".join(span.split()))
        if not match:
            continue
        dotted = match.group(1)
        if "." in dotted and dotted.rsplit(".", 1)[1] in FILE_SUFFIXES:
            continue
        if keyword.iskeyword(dotted) or keyword.issoftkeyword(dotted) or dotted in INTERPRETER_VARIABLES:
            continue
        found.append(dotted)
    return found


def unknown(dotted_names: list[str]) -> list[str]:
    names = code_names()
    return sorted({dotted for dotted in dotted_names if not set(dotted.split(".")) <= names})


def test_readme_identifiers_name_code():
    found = identifiers((ROOT / "README.md").read_text())
    assert "SwitchState.process" in found and "bench.run_latency" in found
    assert not unknown(found), f"README.md names what src/, perfbench/ and tools/ lack: {unknown(found)}"


def test_identifiers_skip_files_keywords_and_prose():
    text = (
        "`WormTimeline.shell_time(node)` and `SwitchState.process`, split\nover `dump_state(\n  state)`;"
        " not `extract.py`, `None`, `--dos`, `0x45`, `ip_dst=None` or `PYTHONHASHSEED`\n"
        "```sh\nPYTHONPATH=src python -m shimguard.cli bench --mode fast\n```\n"
    )
    found = identifiers(text)
    assert found == ["WormTimeline.shell_time", "SwitchState.process", "dump_state"]
    assert unknown(found) == ["WormTimeline.shell_time"]  # a deleted method is flagged
