"""The scripts under tools/ against the package as it is. Each runs only
behind its main guard, so importing it checks every name it takes from
cxorder, private ones included, without running it."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cxorder._cache import CACHE_DIR_ENV

ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted((ROOT / "tools").glob("*.py"))


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


def test_output_digest_reproduces_the_listing_of_its_kernel():
    """The byte contract: every output the digest covers, cold and through a
    shared cache, to the bytes of the committed listing of the OpenBLAS
    kernel that the tool's first line names."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_DIR_ENV}
    env.update(PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py")], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    kernel = run.stdout.partition("\n")[0].removeprefix("kernel ")
    listing = ROOT / "tools" / f"output_digest.{kernel}.txt"
    if not listing.exists():
        pytest.skip(f"no output listing for the {kernel} kernel")
    assert run.stdout == listing.read_text()
