"""Exception types shared across the package, and the one check of the
constraints that the config dataclasses declare next to their fields."""

import dataclasses
import functools
import operator
import sys
import typing


class ConfigError(ValueError):
    """Invalid configuration: bad dimensions, rates, or experiment settings."""


class DataError(ValueError):
    """Unusable data: schema violations, empty datasets, degenerate ranges."""


class DivergenceError(RuntimeError):
    """A training loss became NaN or infinite."""


def constrained(default=dataclasses.MISSING, **rules):
    """A config field whose ``metadata`` holds its constraints, which
    :func:`check_fields` enforces: ``ge``, ``gt`` and ``le`` bounds (on each
    element of a tuple), ``one_of`` (allowed values), ``nonempty`` and
    ``unique`` (no entry twice). An unset (None) optional field is not checked."""
    return dataclasses.field(default=default, metadata=rules)


def finite(x) -> bool:
    """Whether the number ``x`` is neither NaN nor infinite, and as an integer fits a float."""
    return abs(x) <= sys.float_info.max


_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<=")}
field_types = functools.cache(typing.get_type_hints)  # a config class's field types, resolved once per class


def _holds_floats(hint) -> bool:
    return hint is float or any(map(_holds_floats, typing.get_args(hint)))


@functools.cache
def _field_checks(cls) -> list[tuple[str, bool, dict]]:
    """(name, whether it holds floats, constraints) of each of ``cls``'s fields that has a check."""
    hints = field_types(cls)
    return [
        (f.name, floats, f.metadata)
        for f in dataclasses.fields(cls)
        if (floats := _holds_floats(hints[f.name])) or f.metadata
    ]


def check_fields(config) -> None:
    """Raise a :class:`ConfigError` naming the first field of the dataclass
    instance ``config`` that breaks its declared constraints, or that holds a
    float (alone or in a tuple) that is not :func:`finite`."""
    for name, floats, rules in _field_checks(type(config)):
        value = getattr(config, name)
        if value is None:
            continue
        items = value if isinstance(value, (tuple, list)) else (value,)
        shown = list(value) if isinstance(value, tuple) else value
        if floats and not all(map(finite, items)):
            raise ConfigError(f"{name} must be a finite number, got {shown}")
        for op, (holds, sign) in _BOUNDS.items():
            if op in rules and not all(holds(x, rules[op]) for x in items):
                raise ConfigError(f"{name} must be {sign} {rules[op]}, got {shown}")
        if "one_of" in rules and value not in rules["one_of"]:
            raise ConfigError(f"{name} must be one of {rules['one_of']}, got {value!r}")
        if rules.get("nonempty") and not value:
            raise ConfigError(f"{name} must not be empty")
        repeated = sorted({x for x in items if items.count(x) > 1}) if rules.get("unique") else None
        if repeated:
            raise ConfigError(f"{name} lists {repeated} more than once")
