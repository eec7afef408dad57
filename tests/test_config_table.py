"""CONFIG_KEYS is the one definition of every config key.

The INI loader, the dataclass fields, the manifest echo, the CLI options
and help and the README's example config must all list exactly the
table's keys.
"""

import argparse
import dataclasses
import re
from pathlib import Path

import pytest

from sentdep.cli import build_parser, main
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
        if command in key.options:
            assert "--" + key.name.replace("_", "-") in usage


#: Every command's option spellings, as they were before the key options
#: were built from the table.
OPTION_SPELLINGS = {
    "keywords": "--tweets --out --min-count --malformed-cap",
    "label": "--tweets --aspects --positive-terms --negative-terms --out --window "
             "--malformed-cap",
    "score": "--labels --out",
    "analyze": "--config --scores --out --lag --pearson-threshold --granger-alpha "
               "--granger-lag --granger-reverse --no-granger-reverse --granger-difference "
               "--no-granger-difference --entropy-k --top-n-aspects --absent-as-zero "
               "--no-absent-as-zero --seed",
    "report": "--cells --out-dir",
    "fixture": "--out-dir --seed",
}
OPTION_SPELLINGS["run"] = (OPTION_SPELLINGS["analyze"].replace("--scores --out", "")
                           + " --output-dir")


def command_parsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


@pytest.mark.parametrize("command", sorted(OPTION_SPELLINGS))
def test_each_command_keeps_its_option_spellings(command):
    spellings = {flag for action in command_parsers()[command]._actions
                 for flag in action.option_strings if flag not in ("-h", "--help")}
    assert spellings == set(OPTION_SPELLINGS[command].split())


def test_every_key_option_is_its_row():
    """Each option whose dest names a key that any command takes as an
    option has the row's spelling, type, default and help."""
    rows = {key.name: key for key in CONFIG_KEYS if key.options}
    found = set()
    for command, parser in command_parsers().items():
        for action in parser._actions:
            key = rows.get(action.dest)
            if key is None:
                continue
            found.add((key.name, command))
            flag = key.flag or "--" + key.name.replace("_", "-")
            assert action.option_strings[0] == flag
            if key.kind is bool:
                assert isinstance(action, argparse.BooleanOptionalAction)
            else:
                assert action.type is key.kind
            reads_config = command in ("run", "analyze")
            assert action.default == (None if reads_config else key.default)
            assert action.help == key.doc
    assert found == {(key.name, command) for key in rows.values() for command in key.options}


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
