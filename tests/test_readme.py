"""The README's quick start runs as printed."""

import pathlib
import re


def test_readme_quick_start_runs(capsys):
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["exact_fit"].converged
    assert namespace["exact_fit"].solver == "fit_exact_newton_cg"
    out = capsys.readouterr().out
    assert "|mpele - map|" in out and "|refined - map|" in out
