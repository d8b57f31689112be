"""The README's quick start and its fit config run as printed."""

import json
import pathlib
import re

from elglm import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["exact_fit"].converged
    assert namespace["exact_fit"].solver == "fit_exact_newton_cg"
    out = capsys.readouterr().out
    assert "|mpele - map|" in out and "|refined - map|" in out


def test_readme_fit_config_runs(tmp_path, capsys):
    blocks = re.findall(r"```json\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "fit.json"
    path.write_text(blocks[0])
    code = cli.main(["fit", str(path), "--out-root", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    fit = json.loads((pathlib.Path(out.strip()) / "fit.json").read_text())
    assert fit["solver"] == "mele"
