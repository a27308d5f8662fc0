"""The documented API: every cl.<name> that README.md and the demos use, and
every exported name earns its place."""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import re
from pathlib import Path

import cmslab as cl
from cmslab.cli import ExperimentPlan, _build_parser, run

from conftest import sys_a_config

ROOT = Path(__file__).resolve().parents[1]


def test_every_documented_name_resolves_on_cmslab():
    sources = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
    names = {name for path in sources
             for name in re.findall(r"\bcl\.([A-Za-z_]\w*)", path.read_text())}
    assert len(names) > 20
    assert sorted(n for n in names if not hasattr(cl, n)) == []


def _exported_names() -> list[str]:
    """Every name cmslab/__init__.py imports from its modules."""
    tree = ast.parse((ROOT / "src" / "cmslab" / "__init__.py").read_text())
    return [alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _mentions(name: str, paths) -> int:
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    return sum(len(pattern.findall(path.read_text())) for path in paths)


def test_every_exported_name_earns_its_place():
    """Each export is read in the package beyond its own definition, named in
    README.md or a demo, or used by the benchmark."""
    package = [p for p in (ROOT / "src" / "cmslab").glob("*.py")
               if p.name != "__init__.py"]
    documented = [ROOT / "README.md", *(ROOT / "demos").glob("*.py")]
    bench = list((ROOT / "bench").glob("*.py"))
    names = _exported_names()
    assert len(names) > 50
    idle = [name for name in names
            if _mentions(name, package) <= 1
            and not _mentions(name, documented)
            and not _mentions(name, bench)]
    assert idle == []


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    return next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_every_subcommand_and_flag_is_in_the_readme():
    """README.md names each `cmslab` subcommand and each of its --flags."""
    readme = (ROOT / "README.md").read_text()
    commands = _subcommands()
    assert len(commands) == 8
    missing = [f"cmslab {name}" for name in commands
               if f"cmslab {name}" not in readme]
    missing += [flag for sub in commands.values() for action in sub._actions
                for flag in action.option_strings
                if flag.startswith("--") and flag != "--help"
                and not re.search(rf"{re.escape(flag)}\b(?!-)", readme)]
    assert missing == []


def test_every_flag_of_the_readme_cli_block_exists():
    """Each --flag on a `cmslab <sub>` line of README.md's CLI code block
    is an option of that subcommand.  The prose names refused flags on
    purpose, so only the block is read."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    commands = _subcommands()
    lines = [line.split("#")[0].split() for line in block.splitlines()
             if line.startswith("cmslab ")]
    assert len(lines) >= len(commands)
    unknown = [(sub, word) for _, sub, *words in lines for word in words
               if word.startswith("--")
               and word not in commands[sub]._option_string_actions]
    assert unknown == []


def test_readme_lists_the_artifacts_run_writes(tmp_path):
    """The files README.md's `run` paragraph names ("It writes ..., and a
    `MANIFEST.json`") are the ones a run records under `artifacts`: each
    name, a glob, matches a recorded file, and each file matches a name."""
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"It writes (.*?), and a `MANIFEST.json`", readme,
                       re.S).group(1)
    names = re.findall(r"`([^`]+)`", listed)
    config = tmp_path / "sys.json"
    config.write_text(json.dumps(sys_a_config()))
    out = tmp_path / "out"
    assert run(ExperimentPlan(
        config_path=str(config), mode="exact", depths=[1, 2],
        kstar_windows=[0], kstar_depth=1, cover_depth=1,
        queries=[{"words": ["e1"]}, {"whole_space_depth": 1}],
        output_dir=str(out))) == 0
    artifacts = json.loads((out / "MANIFEST.json").read_text())["artifacts"]
    assert len(names) == 5
    assert [n for n in names if not fnmatch.filter(artifacts, n)] == []
    assert [a for a in artifacts
            if not any(fnmatch.fnmatch(a, n) for n in names)] == []
