"""The scripts under tools/ against the package as it is. Each runs only
behind its main guard, so importing it checks every name it takes from
cxorder, private ones included, without running it."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = sorted((Path(__file__).resolve().parents[1] / "tools").glob("*.py"))


def test_every_tool_is_covered():
    assert [path.name for path in TOOLS] == ["output_digest.py", "stage_times.py"]


@pytest.mark.parametrize("path", TOOLS, ids=lambda path: path.name)
def test_a_tool_imports_without_running(path, capsys):
    assert path.read_text().rstrip().endswith('if __name__ == "__main__":\n'
                                              f"    {_entry(path)}()")
    spec = importlib.util.spec_from_file_location(f"_tool_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, _entry(path)))
    assert capsys.readouterr() == ("", "")


def _entry(path: Path) -> str:
    return {"output_digest.py": "main_digest", "stage_times.py": "main"}[path.name]
