"""Run configuration: parameter declarations and parsing.

A run is described either by CLI flags or by a config file in one of two
equivalent forms: a JSON object, or line-oriented ``key=value`` text
(``#`` starts a comment).  Both are checked against the same ``Param``
declarations (``eprsim.cli.COMMANDS``), so a key means what its flag
means.  Angles accept plain decimals or pi-fraction literals such as
``pi/4``, ``3*pi/8``, ``-pi/2``, ``2pi``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # make_geometry loads it: a command without wedge geometry never does
    from .wedge import WedgeGeometry

_PI_LITERAL = re.compile(
    r"""^\s*(?P<sign>[+-])?\s*
        (?:(?P<num>\d+(?:\.\d+)?)\s*\*?\s*)?   # optional leading factor
        pi
        (?:\s*/\s*(?P<den>\d+(?:\.\d+)?))?     # optional divisor
        \s*$""",
    re.VERBOSE,
)

class ConfigError(argparse.ArgumentTypeError, ValueError):
    """Flags or config text that cannot be turned into a runnable command.

    As an ArgumentTypeError it keeps its message when a flag's type raises it.
    """


def parse_angle(text: str | float, key: str = "angle") -> float:
    """Angle in radians from a decimal or pi-fraction literal."""
    m = _PI_LITERAL.match(str(text))
    if m:
        value = math.pi
        if m.group("num"):
            value *= float(m.group("num"))
        if m.group("den"):
            den = float(m.group("den"))
            if den == 0:
                raise ConfigError(f"{key}: division by zero in {text!r}")
            value /= den
        return -value if m.group("sign") == "-" else value
    try:  # JSON true, null, a list or an object is no angle, nor an int past a double
        return float(None if isinstance(text, bool) or not isinstance(text, (str, int, float))
                     else text)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"{key}: cannot parse angle {text!r}; use a decimal or a "
            f"pi fraction like 'pi/4' or '3*pi/8'"
        ) from None


@dataclass(frozen=True)
class Param:
    """One subcommand parameter, declared once for flags and config files.

    ``name`` is the config key and the parsed attribute; the flag is
    ``--name`` with ``-`` for ``_`` unless ``flag`` names another.
    ``kind`` is one of angle, int, float, choice, flag (a boolean), text,
    or angles (four comma-separated angles).  argparse coerces a string
    default like a flag value, so ``"pi/2"`` reads well in ``--help``.
    """

    name: str
    kind: str
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] = ()
    minimum: int | None = None
    flag: str | None = None

    def coerce(self, raw) -> object:
        """The typed value of a flag or config value; errors name the key."""
        name = self.name
        if self.kind == "angle":
            return parse_angle(raw, name)
        if self.kind == "angles":
            parts = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
            if len(parts) != 4:
                raise ConfigError(f"{name}: expected 4 comma-separated values")
            return tuple(parse_angle(p, name) for p in parts)
        if self.kind == "flag":
            text = str(raw).lower()
            if text not in ("true", "false"):
                raise ConfigError(f"{name}: expected true or false, got {raw!r}")
            return text == "true"
        if self.kind == "text":
            if not isinstance(raw, str):
                raise ConfigError(f"{name}: expected a string, got {raw!r}")
            return raw
        if self.kind == "choice":
            if raw not in self.choices:
                raise ConfigError(f"{name}: expected one of {list(self.choices)}, got {raw!r}")
            return raw
        cast = int if self.kind == "int" else float
        try:
            if isinstance(raw, bool) or (cast is int and isinstance(raw, float)
                                         and not raw.is_integer()):
                raise TypeError  # int() would take JSON true or 2.5 for a count
            value = cast(raw)
        except (TypeError, ValueError, OverflowError):  # an int past a double overflows
            expected = "an integer" if cast is int else "a number"
            raise ConfigError(f"{name}: expected {expected}, got {raw!r}") from None
        if self.minimum is not None and not value >= self.minimum:  # NaN fails too
            raise ConfigError(f"{name}: must be >= {self.minimum}, got {value}")
        return value


@cache
def _geometry() -> dict[str, Param]:
    """One Param per wedge geometry field: the sample counts are integers, the rest numbers."""
    return {f.name: Param(f.name, "int" if f.type in (int, "int") else "float")
            for f in dataclasses.fields(make_geometry())}


@dataclass(frozen=True)
class Command:
    """A subcommand's handler, help line and parameters, and whether it
    takes wedge geometry overrides (``--geom``)."""

    handler: Callable
    help: str
    params: tuple[Param, ...]
    geometry: bool = False


def _command(bench: str) -> Command:
    from .cli import COMMANDS  # the table sits with its handlers; cli imports this module

    if bench not in COMMANDS:
        raise ConfigError(f"unknown bench {bench!r}; expected one of {sorted(COMMANDS)}")
    return COMMANDS[bench]


def _coerce_geometry(key: str, raw) -> object:
    if key not in _geometry():
        raise ConfigError(f"unknown geometry field {key!r}; expected one of {sorted(_geometry())}")
    return _geometry()[key].coerce(raw)


def _coerce_key(bench: str, command: Command, group: str, name: str, raw) -> object:
    """One value of a ``parameters`` or ``geometry`` key of ``bench``, checked and coerced."""
    if group == "geometry":
        if not command.geometry:
            raise ConfigError(f"bench {bench!r} takes no geometry fields")
        return _coerce_geometry(name, raw)
    for param in command.params:
        if param.name == name:
            return param.coerce(raw)
    raise ConfigError(f"unknown parameter {name!r} for bench {bench!r}; "
                      f"expected one of {sorted(p.name for p in command.params)}")


def geometry_item(item: str) -> tuple[str, object]:
    """One ``--geom KEY=VALUE`` flag, coerced as the config key would be."""
    key, sep, raw = item.partition("=")
    if not sep:
        raise ConfigError(f"--geom expects key=value, got {item!r}")
    return key.strip(), _coerce_geometry(key.strip(), raw.strip())


def make_geometry(fields=None) -> WedgeGeometry:
    """The wedge geometry with ``fields`` (a dict or key, value pairs) overriding defaults."""
    from .wedge import WedgeGeometry
    try:
        return WedgeGeometry(**dict(fields or ()))
    except ValueError as exc:
        raise ConfigError(f"bad geometry: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """A subcommand name, its parameters (``out`` and ``format`` included),
    and geometry overrides."""

    bench: str
    parameters: dict = field(default_factory=dict)
    geometry: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        command = _command(self.bench)
        for group in ("parameters", "geometry"):
            object.__setattr__(self, group, {
                key: _coerce_key(self.bench, command, group, key, raw)
                for key, raw in getattr(self, group).items()})


def _assemble(entries: list[tuple[str, object, str | None]]) -> RunConfig:
    bench = next((str(raw) for key, raw, _ in entries if key == "bench"), None)
    if bench is None:
        raise ConfigError("missing required key 'bench'")
    command = _command(bench)
    param_keys = {pre + param.name for param in command.params for pre in ("", "parameters.")}
    fields: dict = {"parameters": {}, "geometry": {}}
    seen: set[tuple[str, str]] = set()
    for key, raw, line in entries:
        if key == "bench":
            group, name = key, key
        elif key.startswith("geometry.") or key not in param_keys and key in _geometry():
            group, name = "geometry", key.removeprefix("geometry.")
        else:
            group, name = "parameters", key.removeprefix("parameters.")
        try:
            if (group, name) in seen:
                raise ConfigError(f"duplicate key {key!r}")
            seen.add((group, name))
            if group != "bench":
                fields[group][name] = _coerce_key(bench, command, group, name, raw)
        except ConfigError as exc:
            if not line:
                raise
            raise ConfigError(f"{exc} (line {line!r})") from None
    return RunConfig(bench=bench, **fields)


def _members(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members; a name given twice is an error, as a repeated key is."""
    members: dict = {}
    for key, value in pairs:
        if key in members:
            raise ConfigError(f"duplicate key {key!r}")
        members[key] = value
    return members


def parse_config(text: str) -> RunConfig:
    """Parse config text in either the JSON or the key=value form."""
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        import json  # imported here: only a JSON config needs it
        try:
            doc = json.loads(text, object_pairs_hook=_members)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("JSON config must be an object")
        entries = []
        for key, raw in doc.items():
            if key in ("geometry", "parameters"):
                if not isinstance(raw, dict):
                    raise ConfigError(f"{key!r} must be an object")
                entries.extend((f"{key}.{k}", v, None) for k, v in raw.items())
            else:
                entries.append((key, raw, None))
        return _assemble(entries)
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        # One or more whitespace-separated key=value pairs per line.
        for token in body.split():
            if "=" not in token:
                raise ConfigError(f"line {lineno}: expected key=value, got {token!r}")
            key, _, raw = token.partition("=")
            entries.append((key.strip(), raw.strip(), f"{lineno}: {token}"))
    return _assemble(entries)
