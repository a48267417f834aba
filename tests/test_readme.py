"""README's Python examples run as written.

The blocks run in order, in one namespace, with a scratch directory as the
working directory (the lab example writes its CSVs there). The module needs
no test dependency, so it also runs as a script against an installed
package, in the current directory:

    python tests/test_readme.py
"""

import os
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks() -> list[str]:
    """The bodies of README's ```python fences, in order."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)


def run_readme_blocks(directory: Path) -> dict:
    """Run every block in ``directory``; returns the namespace they shared."""
    namespace: dict = {}
    before = Path.cwd()
    os.chdir(directory)
    try:
        for i, block in enumerate(readme_blocks(), start=1):
            exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    finally:
        os.chdir(before)
    return namespace


def test_readme_examples_run(tmp_path):
    assert len(readme_blocks()) == 3
    namespace = run_readme_blocks(tmp_path)
    assert namespace["values"] is namespace["u"]  # draw_sorted maps the uniforms in place
    assert not namespace["fit"].failed.any()
    assert sorted(p.name for p in tmp_path.rglob("*.csv")) == [
        "metrics.csv", "run1_bias_alpha.csv", "run1_bias_beta.csv",
        "run1_rmse_alpha.csv", "run1_rmse_beta.csv"]


if __name__ == "__main__":
    run_readme_blocks(Path.cwd())
    print(f"ran {len(readme_blocks())} README block(s)")
