"""Every demo script, and the README's library example, runs to completion
against the public API."""

import re
import runpy
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.filterwarnings("ignore")  # the singular demo warns by design
@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(tmp_path, script):
    # A copy, so files a demo writes beside itself land in tmp_path.
    copy = shutil.copy(script, tmp_path)
    runpy.run_path(str(copy), run_name="__main__")


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```$", readme, re.M | re.S)
    assert block is not None, "README has no python block under '## Library'"
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "__main__"})
