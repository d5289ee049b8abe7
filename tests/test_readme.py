"""The README's examples run as written: its Python example gives the k_max a it quotes, and
each of its JSON configs runs through the CLI with exit code 0."""

import json
import re
from pathlib import Path

from tunnellab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_examples_run(tmp_path, capsys):
    (example,) = _blocks("python")
    quoted = float(re.search(r"k_max a = ([0-9.]+)", example).group(1))
    names = {}
    exec(compile(example, "README.md", "exec"), names)
    assert quoted == 1.6571
    assert round(names["peak"].k_max * names["cfg"].a, 4) == quoted
    configs = _blocks("json")
    assert len(configs) == 2
    for i, text in enumerate(configs):
        path = tmp_path / f"config{i}.json"
        path.write_text(text, encoding="utf-8")
        scenario = json.loads(text)["scenario"]
        argv = ["run", scenario, "--config", str(path), "--out", str(tmp_path / scenario),
                "--json", "--no-timestamp"]
        assert cli.main(argv) == 0, capsys.readouterr().err
