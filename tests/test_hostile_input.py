"""Hostile input generated from the parameter declarations.

Every value the command line reads is declared once: a ``Param`` of ``cli.COMMANDS`` or a
wedge geometry field of ``config._geometry()``.  Each ``Param.kind`` has one strategy of
hostile texts, and each text goes through ``cli.main`` as a flag, as a ``key=value``
config and as a JSON config.  Whatever the value, ``main`` returns 0, 1 or 2, lets no
exception escape, and writes an ``error:`` line when it returns 1.  Hostile keys come from
the same declarations: another command's key, a key in the wrong section or spelling, or one
key given twice.  A config holding one exits 1 with one ``error:`` line and no table.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprsim.cli import COMMANDS, main
from eprsim.config import Param, _geometry, make_geometry

from test_config_cli import SMALL_GEOMETRY

# the largest valid value drawn for each count: a larger one would run long or allocate much
CAPS = {"n": 2000, "grid": 3, "workers": 3, "samples_aperture": 2049, "samples_detector": 8193}
# above it a grid is rejected before any axis is built, so larger grids are safe to draw
GRID_LIMIT = 2**53 + 1
# what each command runs with besides the drawn value: audits on a small grid, and
# SMALL_GEOMETRY, so that a command that propagates does so quickly
BASE = {"audit": {"grid": "2"}}

# texts no kind takes, or takes only at an edge; written raw into a JSON config, the words
# and numbers among them are a JSON true, null, list, object, overflowing float and so on
ODD = st.sampled_from(["", " ", "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-320",
                       "-0.0", "true", "false", "null", "[]", "{}", "[0]", '"x"', "0x10", "１",
                       "2.5", "-1", "9" * 400, "-" + "9" * 400])
# no '=' (a key=value text could name another key) and no '/' (an out path stays put)
FREE = st.text(st.characters(blacklist_characters="=/", blacklist_categories=("Cs",)),
               max_size=6)
ANGLE = st.one_of(st.floats().map(repr), ODD, FREE,
                  st.sampled_from(["pi", "-pi/2", "3*pi/8", "2pi", "pi/0", "pi/0.0", "1e309",
                                   "pi/1e-320", "1e308*pi", "pi /4"]))


def _number(text: str) -> int | float | None:
    """The number an int or float parameter would read from ``text``, if any."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return None


def _within_cap(param: Param, text: str) -> bool:
    """Whether ``text`` is no valid count above ``param``'s cap."""
    value = _number(text)
    cap = CAPS.get(param.name)
    return (cap is None or value is None or not cap < value < math.inf
            or param.name == "grid" and value > GRID_LIMIT)


def _ints(param: Param):
    return st.one_of(st.integers(max_value=CAPS.get(param.name, 10**30)).map(str),
                     st.integers(GRID_LIMIT + 1, 10**30).map(str),
                     st.floats(-4, 4).map(repr), ODD, FREE).filter(
                         lambda text: _within_cap(param, text))


#: one strategy of hostile texts per ``Param.kind``
KINDS = {
    "int": _ints,
    "float": lambda param: st.one_of(st.floats().map(repr), st.integers().map(str), ODD, FREE),
    "angle": lambda param: ANGLE,
    "angles": lambda param: st.one_of(
        st.lists(ANGLE, max_size=5).map(",".join),
        st.lists(st.one_of(st.floats().map(repr), ODD), max_size=5).map(
            lambda texts: "[" + ",".join(texts) + "]")),
    "choice": lambda param: st.one_of(st.sampled_from(param.choices), ODD, FREE),
    "flag": lambda param: st.one_of(st.sampled_from(["true", "false", "True", "FALSE", "1"]),
                                    ODD, FREE),
    "text": lambda param: st.one_of(ODD, FREE, st.just("out.csv")),
}

#: (command, parameter, whether it is a geometry field) for every declared value
DECLARED = ([(name, param, False) for name, command in COMMANDS.items()
             for param in command.params]
            + [(name, param, True) for name, command in COMMANDS.items() if command.geometry
               for param in _geometry().values()])


@st.composite
def hostile(draw):
    """A declared value of some command and a hostile text for it."""
    name, param, geometry = draw(st.sampled_from(DECLARED))
    return name, param, geometry, draw(KINDS[param.kind](param))


def _as_written(param: Param, text: str, tmp) -> str:
    """``text`` as the command reads it: an out path lies under ``tmp``."""
    return os.path.join(tmp, text) if param.kind == "text" else text


def _settings(name: str, param: Param, geometry: bool, value: str,
              base=lambda text: text) -> tuple[dict, dict]:
    """The command's parameters and geometry: its base texts through ``base``, and
    ``value`` for the drawn one."""
    params = {key: base(text) for key, text in BASE.get(name, {}).items()}
    geom = ({key: base(str(number)) for key, number in SMALL_GEOMETRY.items()}
            if COMMANDS[name].geometry else {})
    (geom if geometry else params)[param.name] = value
    return params, geom


def _flags(name, param, geometry, text, tmp) -> list[str]:
    params, geom = _settings(name, param, geometry, _as_written(param, text, tmp))
    argv = [name]
    for key, value in params.items():
        declared = next(p for p in COMMANDS[name].params if p.name == key)
        option = declared.flag or "--" + key.replace("_", "-")
        if declared.kind != "flag":
            argv += [option, value]
        elif value.lower() == "true":
            argv.append(option)
        elif value.lower() != "false":
            argv.append(f"{option}={value}")
    for key, value in geom.items():
        argv += ["--geom", f"{key}={value}"]
    return argv


def _key_value(name, param, geometry, text, tmp) -> str:
    params, geom = _settings(name, param, geometry, _as_written(param, text, tmp))
    keys = {("parameters." if key == "bench" else "") + key: value
            for key, value in params.items()} | geom
    return f"bench={name}\n" + "".join(f"{key}={value}\n" for key, value in keys.items())


def _json(name, param, geometry, text, tmp, raw: bool) -> str:
    """A JSON config holding ``text`` as the JSON value it spells when ``raw`` and that
    value is no string, else as a JSON string of the text as written."""
    try:
        spelt = raw and not isinstance(json.loads(text), str)
    except ValueError:
        spelt = False
    value = text if spelt else json.dumps(_as_written(param, text, tmp))
    params, geom = _settings(name, param, geometry, value, json.dumps)
    sections = (f'"{section}": {{'
                + ", ".join(f"{json.dumps(key)}: {value}" for key, value in values.items()) + "}"
                for section, values in (("parameters", params), ("geometry", geom)))
    return f'{{"bench": {json.dumps(name)}, {", ".join(sections)}}}'


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return str(tmp_path_factory.mktemp("hostile"))


def assert_handled(argv: list[str]) -> None:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert any(line.startswith("error: ") for line in stderr.getvalue().splitlines()), argv


def assert_config_handled(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert_handled(["run", "--config", path])


EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True)
# a JSON value of each kind but a string and a small number: a bool, null, a list, an
# object, a float past the largest double and an int past it
JSON_SPECIALS = ["true", "null", "[]", "{}", "1e400", "9" * 400]
JSON_SPECIAL_IDS = ["true", "null", "list", "object", "1e400", "400-digit-int"]


class TestHostileInput:
    @EXAMPLES
    @given(hostile())
    def test_flag(self, tmp, case):
        assert_handled(_flags(*case, tmp))

    @EXAMPLES
    @given(hostile())
    def test_key_value_config(self, tmp, case):
        assert_config_handled(os.path.join(tmp, "run.cfg"), _key_value(*case, tmp))

    @EXAMPLES
    @given(hostile(), st.booleans())
    def test_json_config(self, tmp, case, raw):
        assert_config_handled(os.path.join(tmp, "run.json"), _json(*case, tmp, raw))

    @pytest.mark.parametrize("special", JSON_SPECIALS, ids=JSON_SPECIAL_IDS)
    def test_json_special_as_every_declared_value(self, tmp, special):
        for name, param, geometry in DECLARED:
            if _within_cap(param, special):
                assert_config_handled(os.path.join(tmp, "special.json"),
                                      _json(name, param, geometry, special, tmp, raw=True))


# every geometry field as a text the base run takes: SMALL_GEOMETRY's, else the default
GEOMETRY_TEXTS = {key: repr(value)
                  for key, value in dataclasses.asdict(make_geometry(SMALL_GEOMETRY)).items()}


def _text(param: Param) -> str:
    """A text ``param`` takes, which its command's base run takes too."""
    if param.kind == "text":
        return os.devnull  # were the key taken, the table would go nowhere
    if param.default is not None:
        return str(param.default)
    return "2" if param.kind == "int" else "0.5"


def _declared(name: str) -> list[tuple[str, str, str]]:
    """Each key command ``name`` declares as (section, key, a text it takes)."""
    command = COMMANDS[name]
    return ([("parameters", param.name, _text(param)) for param in command.params]
            + [("geometry", key, text) for key, text in GEOMETRY_TEXTS.items()
               if command.geometry])


def _spellings(section: str, key: str) -> list[tuple[str, str]]:
    """Each (section, key) that names ``key`` of ``section``: bare (but for the inner bench,
    as the bare key is the command's own), prefixed, and a member of the section's object."""
    return [("", key)] * (key != "bench") + [("", f"{section}.{key}"), (section, key)]


def _hostile_keys(name: str) -> dict[str, list[list[tuple[str, str, str]]]]:
    """For each kind of hostile key, configs of command ``name`` that hold one: each a list
    of (section, key, text) members added to its base config.  A section of "" is the top
    level; a key=value config writes a member of "parameters" or "geometry" prefixed."""
    command = COMMANDS[name]
    declared = _declared(name)
    own = {key for _, key, _ in declared}
    base = set(BASE.get(name, {})) | (set(SMALL_GEOMETRY) if command.geometry else set())
    others = {param.name: _text(param) for other in COMMANDS.values()
              for param in other.params if param.name not in own}
    swapped = {"parameters": "geometry", "geometry": "parameters"}
    prefixed = [(section, key) for section in ("", "parameters", "geometry")
                for key in ("", "parameters", "geometry", "parameters.", "geometry.")]
    return {
        "another command's parameter": [
            [(*spelt, text)] for key, text in others.items()
            for spelt in _spellings("parameters", key)],
        "geometry on a command without it": [
            [(*spelt, text)] for key, text in GEOMETRY_TEXTS.items() if not command.geometry
            for spelt in _spellings("geometry", key)],
        "swapped, doubled or empty prefix": [
            [member] for section, key, text in declared for member in [
                (swapped[section], key, text), ("", f"{swapped[section]}.{key}", text),
                (section, f"{section}.{key}", text), ("", f"{section}.{section}.{key}", text)]
        ] + [[(section, key, "1")] for section, key in prefixed],
        "case or whitespace": [
            [(spelt_section, variant, text)]
            for section, key, text in [("", "bench", name), *declared]
            for spelt_section, spelt in (_spellings(section, key) if section else [("", key)])
            for variant in (spelt.upper(), spelt.capitalize(), spelt + " ", spelt + "\t",
                            spelt[:1] + " " + spelt[1:])],
        "one key through two spellings": [
            [(*first, text), (*second, text)] for section, key, text in declared
            if key not in base
            for first, second in itertools.combinations(_spellings(section, key), 2)],
        "a repeated member": [
            [(*spelt, text)] * 2 for section, key, text in declared
            for spelt in _spellings(section, key)] + [[("", "bench", name)]],
    }


def _config(name: str, hostile: list[tuple[str, str, str]], form: str) -> str:
    """Command ``name``'s base config with the ``hostile`` members after its own, as a
    key=value or a JSON config; a JSON object keeps a member given twice."""
    members = [("", "bench", name), *(("parameters", key, text)
                                      for key, text in BASE.get(name, {}).items())]
    if COMMANDS[name].geometry:
        members += [("geometry", key, str(value)) for key, value in SMALL_GEOMETRY.items()]
    members += hostile
    if form == "key=value":
        return "".join(f"{section}{'.' * bool(section)}{key}={text}\n"
                       for section, key, text in members)

    def obj(section: str) -> str:
        return "{" + ", ".join(f"{json.dumps(key)}: {json.dumps(text)}"
                               for spelt, key, text in members if spelt == section) + "}"

    return obj("")[:-1] + "".join(f', "{section}": {obj(section)}'
                                  for section in ("parameters", "geometry")) + "}"


#: (command, kind of hostile key, members) for every hostile key
HOSTILE_KEYS = [(name, kind, hostile) for name in COMMANDS
                for kind, cases in _hostile_keys(name).items() for hostile in cases]


def assert_rejected(path: str, text: str) -> None:
    """``run --config`` of ``text`` exits 1 with one ``error:`` line and no table."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", "--config", path])
    assert (code, stdout.getvalue()) == (1, ""), text
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (text, lines)


class TestHostileKeys:
    """Keys no command declares, or declares in another place or spelling, generated from
    the declarations: each config is rejected whole, in either form."""

    @EXAMPLES
    @given(st.sampled_from(sorted({kind for _, kind, _ in HOSTILE_KEYS})).flatmap(
        lambda kind: st.sampled_from([case for case in HOSTILE_KEYS if case[1] == kind])),
        st.sampled_from(["key=value", "json"]))
    def test_config(self, tmp, case, form):
        name, _, hostile = case
        assert_rejected(os.path.join(tmp, "keys.cfg"), _config(name, hostile, form))

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_every_repeated_json_member(self, tmp, name):
        # json.loads alone keeps the last of a repeated name and drops the others unseen
        for hostile in _hostile_keys(name)["a repeated member"]:
            assert_rejected(os.path.join(tmp, "repeated.json"), _config(name, hostile, "json"))
