import ast
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import commtopo
from commtopo.config import AppConfig, load_config, options
from commtopo.errors import ConfigError


def write_ini(directory, text):
    path = directory / "cfg.ini"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    return str(path)


def test_percent_is_read_verbatim(tmp_path):
    cfg = load_config(write_ini(tmp_path, "[agents]\napi_key = ab%cd\n"), env={})
    assert cfg.api_key == "ab%cd"


@pytest.mark.parametrize(
    "text, needle",
    [
        ("[agents]\nthis line has no equals sign\n", "parsing errors"),
        (b"[agents]\nmodel = \xff\n", "can't decode"),
    ],
    ids=["line-without-value", "not-utf8"],
)
def test_unreadable_file_is_one_line_config_error_naming_the_file(tmp_path, text, needle):
    path = write_ini(tmp_path, text)
    with pytest.raises(ConfigError) as info:
        load_config(path, env={})
    message = str(info.value)
    assert path in message and needle in message and "\n" not in message


# Strings that survive an INI line unchanged: no line breaks or other
# control characters, no surrounding whitespace.  Characters INI syntax
# gives a meaning to ('%' for interpolation among them) are drawn often.
INI_TEXT = st.text(
    st.sampled_from("%()$#;:=[] ") | st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
    max_size=20,
).filter(lambda s: s == s.strip())


def value_strategy(current):
    kind = float if current is None else type(current)
    return {
        str: INI_TEXT,
        int: st.integers(-10**12, 10**12),
        float: st.floats(allow_nan=False),
    }[kind]


def ini_value(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ini_values_round_trip(data):
    written = []
    lines = []
    for section, (target, names) in options(AppConfig()).items():
        lines.append(f"[{section}]")
        for name in names:
            value = data.draw(value_strategy(getattr(target, name)), label=f"{section}.{name}")
            lines.append(f"{name} = {ini_value(value)}")
            written.append((section, name, value))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load_config(write_ini(Path(tmp), "\n".join(lines) + "\n"), env={})
    table = options(cfg)
    for section, name, value in written:
        got = getattr(table[section][0], name)
        assert got == value and type(got) is type(value), (section, name)


def test_every_option_is_read_outside_config():
    # an option nothing reads is a setting that does nothing
    package = Path(commtopo.__file__).parent
    read = {
        node.attr
        for path in package.glob("*.py")
        if path.name != "config.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    names = {name for _, names in options(AppConfig()).values() for name in names}
    assert sorted(names - read) == []
