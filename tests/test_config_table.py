"""CONFIG_KEYS is the one definition of every config key.

The INI loader, the dataclass fields, the manifest echo, the CLI help and
the README's example config must all list exactly the table's keys.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from sentdep.cli import main
from sentdep.pipeline import CONFIG_KEYS, PipelineConfig, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def non_default(key, base: Path):
    """(INI text, expected value) for a valid value other than the default."""
    if key.kind is dict:
        return "AAA = a.csv", {"AAA": base / "a.csv"}
    if key.kind is Path:
        return f"{key.key} = elsewhere.txt", base / "elsewhere.txt"
    if key.kind is bool:
        return f"{key.key} = {'no' if key.default else 'yes'}", not key.default
    value = key.default + 1 if key.kind is int else key.default / 2
    return f"{key.key} = {value!r}", value


@pytest.mark.parametrize("key", CONFIG_KEYS, ids=lambda k: k.name)
def test_every_key_loads_from_ini(tmp_path, key):
    line, expected = non_default(key, tmp_path)
    ini = tmp_path / "config.ini"
    ini.write_text(f"[{key.section}]\n{line}\n", encoding="utf-8")
    config = load_config(ini)
    assert getattr(config, key.name) == expected
    assert getattr(PipelineConfig(), key.name) != expected


def test_dataclass_fields_and_manifest_follow_table_order():
    names = [key.name for key in CONFIG_KEYS]
    assert [f.name for f in dataclasses.fields(PipelineConfig)] == names
    # [output] says where results go, not what they are: never echoed.
    echoed = [key.name for key in CONFIG_KEYS if key.section != "output"]
    assert list(PipelineConfig().manifest_echo()) == echoed


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_help_lists_every_key_and_override(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage, epilog = capsys.readouterr().out.split("config file keys", 1)
    for key in CONFIG_KEYS:
        assert f"[{key.section}]" in epilog
        if key.kind is not dict:
            assert re.search(rf"^\s+(\[\w+\])?\s+{key.key}\s", epilog, re.M), key.key
        if key.override:
            assert "--" + key.name.replace("_", "-") in usage


def test_readme_example_lists_exactly_the_table_keys():
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    listed, section = [], None
    for line in block.group(1).splitlines():
        line = line.split(";", 1)[0].strip()
        header = re.fullmatch(r"\[(\w+)\]", line)
        if header:
            section = header.group(1)
            listed.append((section, None))
        elif "=" in line and section != "prices":
            listed.append((section, line.split("=", 1)[0].strip()))
    expected = []
    for key in CONFIG_KEYS:
        if (key.section, None) not in expected:
            expected.append((key.section, None))
        if key.kind is not dict:
            expected.append((key.section, key.key))
    assert listed == expected
