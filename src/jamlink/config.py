"""Flat key-value experiment config files.

Grammar, line by line:

  - blank lines and lines starting with ``#`` are ignored;
  - everything else must read ``section.key = value`` (one dot minimum,
    spaces around ``=`` optional);
  - values are kept as strings here; the harness coerces them.

The format is deliberately flat so configs diff line-by-line.
"""

import re

from .errors import ConfigError

__all__ = ["parse_config_text", "load_config", "coerce"]

_LINE = re.compile(r"^(?P<key>[A-Za-z_][\w]*(?:\.[A-Za-z_][\w]*)+)\s*=\s*(?P<value>.*)$")

_BOOL = {"true": True, "yes": True, "on": True, "1": True,
         "false": False, "no": False, "off": False, "0": False}


def parse_config_text(text, source="<config>"):
    """Parse config text into an ordered {dotted key: raw string} dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE.match(line)
        if not m:
            raise ConfigError(
                f"{source}:{lineno}: expected 'section.key = value', got {raw!r}")
        key = m.group("key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = m.group("value").strip()
    return out


def load_config(path):
    """Read and parse a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def coerce(raw, kind, key):
    """Convert a raw string value to ``int``/``float``/``bool``/``str``/``list``.

    ``kind='list'`` splits on commas and strips items.  Errors carry the
    offending key for actionable messages.
    """
    try:
        if kind == "int":
            # integer literals exactly; "1e6" through float, not truncated
            try:
                return int(raw)
            except ValueError:
                val = float(raw)
            if not val.is_integer():
                raise ValueError(raw)
            return int(val)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            return _BOOL[raw.lower()]
        if kind == "list":
            return [item.strip() for item in raw.split(",") if item.strip()]
        if kind == "str":
            return raw
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from exc
    raise ConfigError(f"unknown coercion kind {kind!r} for key {key!r}")
