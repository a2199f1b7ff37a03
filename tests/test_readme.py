"""README facts that code also declares agree with the code."""

import argparse
import inspect
import re
from pathlib import Path

from scanmix.cli import COMMANDS, build_parser
from scanmix.pipeline import CONFIG_KEYS, DEFAULT_CONFIG_TEXT, generate_scene_set, make_toy_benchmark

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(heading):
    """The text under ``## heading`` up to the next ``## `` heading."""
    return README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def parser_subcommands():
    parser = build_parser()
    return set(next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices)


def readme_subcommands():
    """The backticked names of README's ``Subcommands:`` sentence."""
    sentence = readme_section("Quick start (command line)").split("Subcommands:", 1)[1].split(".", 1)[0]
    return set(re.findall(r"`([^`]+)`", sentence))


def test_subcommands_are_the_table_rows_and_readme_names_them():
    assert parser_subcommands() == set(COMMANDS) | {"gen-scenes", "make-toy-benchmark"}
    assert readme_subcommands() == parser_subcommands()


def key_default_rows():
    """(knob, default) cell pairs of README's Key defaults table."""
    rows = [line for line in readme_section("Key defaults").splitlines() if line.startswith("|")]
    pairs = []
    for row in rows[2:]:  # past the header and its rule
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        pairs += [(knob, value) for knob, value in zip(cells[0::2], cells[1::2]) if knob]
    return pairs


def test_key_defaults_table_matches_default_config_text():
    defaults = dict(line.split("=", 1) for line in DEFAULT_CONFIG_TEXT.splitlines())
    checked = []
    for knob, value in key_default_rows():
        for name in re.findall(r"`([^`]+)`", knob):
            if "." not in name:
                continue  # a subcommand, not a config key
            section, fields = name.split(".", 1)
            keys = [f"{section}.{f}" for f in fields.split(",")]
            # one value per key; a unit (m, deg) may follow a single value
            values = [v.strip() for v in value.split(",")] if len(keys) > 1 else value.split()[:1]
            assert len(values) == len(keys), (knob, value)
            for key, shown in zip(keys, values):
                assert key in CONFIG_KEYS, key
                try:
                    assert float(shown) == float(defaults[key]), (key, shown, defaults[key])
                except ValueError:
                    assert shown == defaults[key], (key, shown, defaults[key])
                checked.append(key)
    assert len(checked) == len(set(checked)) >= 15, checked


def test_scene_density_row_matches_the_subcommand_defaults():
    # gen-scenes and make-toy-benchmark take their library function's default
    gen, toy = (inspect.signature(f).parameters["density"].default
                for f in (generate_scene_set, make_toy_benchmark))
    [value] = [value for knob, value in key_default_rows() if knob.startswith("surface density")]
    assert value == f"{gen:g} / {toy:g} pts/m2"
