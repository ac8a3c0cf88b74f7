"""One typed codec for every serialized dataclass.

A class's declaration says how it becomes JSON and back: each field's
type, read with :func:`typing.get_type_hints`, and the bounds its value
must meet, in ``dataclasses.field(metadata={...})`` under ``minimum``,
``exclusive_minimum``, ``maximum`` or ``choices``.  Field types may be
``int``, ``float``, ``bool``, ``str``, a dataclass, ``list[T]``,
``tuple[T, ...]``, ``tuple[A, B]``, or any of them ``| None``.

The one rule for how a field becomes JSON: fields appear in declaration
order, each as the value it holds (a dataclass as its own object, a
list or tuple as a list), and a field whose value and default are both
None is left out.  Reading back, an omitted field takes its default and
an int read into a float field becomes a float; neither takes a bool.
Each class's plan is derived once.  Nothing from ``repro`` is imported
here, because ``fp/accumulator.py`` and ``core/config.py`` use it.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from typing import Any, Callable, NamedTuple, TypeVar

T = TypeVar("T")

# Where a value sits, for error messages: the dotted path given to
# from_dict, or (where its container sits, its field name or list
# index).  It is spelled out only when a value fails.
Where = str | tuple[Any, str | int]

# (value, where it sits) -> the value as its field stores it.  Raises
# ValueError naming where.
Step = Callable[[Any, Where], Any]

_BOUNDS = frozenset({"minimum", "exclusive_minimum", "maximum", "choices"})
_SCALARS: dict[type, type | tuple[type, ...]] = {
    int: int, float: (int, float), bool: bool, str: str
}
_MISSING = object()


def to_dict(obj: Any) -> dict:
    """The JSON form of a dataclass instance, ready for ``json.dumps``."""
    return _plan(type(obj)).encode(obj)


def from_dict(cls: type[T], data: Any, path: str) -> T:
    """Build and check a ``cls`` from its JSON form.

    Args:
        cls: the dataclass to build.
        data: a dict as :func:`to_dict` writes it.
        path: dotted name of ``data`` in error messages, or ``""``.

    Raises:
        ValueError: naming the dotted field, on anything but an object
            of known fields with values of their types within bounds,
            or on an instance ``cls`` rejects.
    """
    return _plan(cls).decode(data, path)


def check(obj: Any) -> None:
    """Check every scalar field of ``obj`` against its type and bounds,
    storing a float field's int as a float (``600`` and ``600.0`` make
    one config and one cache key).  Raises ``ValueError``."""
    _plan(type(obj)).check(obj)


def _dotted(where: Where) -> str:
    """The dotted name of a :data:`Where`."""
    if isinstance(where, str):
        return where
    outer, key = where
    prefix = _dotted(outer)
    if isinstance(key, int):
        return f"{prefix}[{key}]"
    return f"{prefix}.{key}" if prefix else key


def _scalar(kind: type, meta: typing.Mapping[str, Any]) -> Step:
    """The check of one ``int``, ``float``, ``bool`` or ``str`` value."""
    accepted = _SCALARS[kind]

    def valid(value: Any, where: Where) -> Any:
        if type(value) is not kind:
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(
                    f"{_dotted(where)} must be {kind.__name__}, "
                    f"got {value!r}"
                )
            if kind is float:
                value = float(value)
        return value

    if not meta:
        return valid
    minimum = meta.get("minimum")
    above = meta.get("exclusive_minimum")
    maximum = meta.get("maximum")
    choices = meta.get("choices")

    # Written as "not within" so that NaN fails every numeric bound.
    def bounded(value: Any, where: Where) -> Any:
        value = valid(value, where)
        if minimum is not None and not value >= minimum:
            rule = f">= {minimum}"
        elif above is not None and not value > above:
            rule = f"> {above}"
        elif maximum is not None and not value <= maximum:
            rule = f"<= {maximum}"
        elif choices is not None and value not in choices:
            rule = "one of " + ", ".join(map(repr, choices))
        else:
            return value
        raise ValueError(f"{_dotted(where)} must be {rule}, got {value!r}")

    return bounded


class _Rule(NamedTuple):
    """How values of one field type are read and written."""

    decode: Step
    encode: Callable[[Any], Any] | None  # None: written as it is
    plain: type | None  # a value of this type is read as it is
    scalar: bool  # ``check`` applies ``decode`` to the field


def _rule(hint: Any, meta: typing.Mapping[str, Any]) -> _Rule:
    """The rule of one field type."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        rule = _rule(inner, meta)

        def optional(value: Any, where: Where) -> Any:
            return None if value is None else rule.decode(value, where)

        return rule._replace(decode=optional)
    if hint in _SCALARS:
        return _Rule(_scalar(hint, meta), None, None if meta else hint, True)
    if meta:
        raise TypeError(f"bounds apply to scalar fields only, not {hint!r}")
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        plan = _plan(hint)
        return _Rule(plan.decode, plan.encode, None, False)
    if origin not in (list, tuple) or not args:
        raise TypeError(f"no codec for field type {hint!r}")
    sequence: Callable[[list], Any] = tuple if origin is tuple else list
    variadic = origin is list or args[-1] is ...
    items = [_rule(arg, {}) for arg in (args[:1] if variadic else args)]
    shape = "a list" if variadic else f"a list of {len(items)} items"

    def decode(value: Any, where: Where) -> Any:
        if not isinstance(value, (list, tuple)) or not (
            variadic or len(value) == len(items)
        ):
            raise ValueError(f"{_dotted(where)} must be {shape}, got {value!r}")
        steps = items * len(value) if variadic else items
        return sequence([
            element if type(element) is step.plain
            else step.decode(element, (where, index))
            for index, (step, element) in enumerate(zip(steps, value))
        ])

    def encode(value: Any) -> list:
        steps = items * len(value) if variadic else items
        return [
            element if step.encode is None or element is None
            else step.encode(element)
            for step, element in zip(steps, value)
        ]

    return _Rule(decode, encode, None, False)


class _Plan:
    """How one dataclass's fields become JSON and back."""

    def __init__(self, cls: Any) -> None:
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        self.cls = cls
        self.names = tuple(f.name for f in fields)
        self.known = frozenset(self.names)
        self.size = len(self.names)
        self.rules: dict[str, _Rule] = {}
        # (name, the type read as it is, its decode, required) of each
        # field, in declaration order.
        self.reads: list[tuple[str, type | None, Step, bool]] = []
        for f in fields:
            if not _BOUNDS.issuperset(f.metadata):
                raise TypeError(f"{cls.__name__}.{f.name}: unknown bound")
            rule = self.rules[f.name] = _rule(hints[f.name], f.metadata)
            required = f.default is f.default_factory is dataclasses.MISSING
            self.reads.append((f.name, rule.plain, rule.decode, required))
        self.encodes = [
            (name, rule.encode) for name, rule in self.rules.items()
            if rule.encode is not None
        ]
        # The fields to_dict leaves out when their value is None.
        self.omissible = [f.name for f in fields if f.default is None]

    def encode(self, obj: Any) -> dict:
        """See :func:`to_dict`."""
        # A dataclass's __init__ sets its fields in declaration order.
        data = obj.__dict__.copy()
        if len(data) != self.size:  # it holds more than its fields
            data = {name: data[name] for name in self.names}
        for name, encode in self.encodes:
            value = data[name]
            if value is not None:
                data[name] = encode(value)
        for name in self.omissible:
            if data[name] is None:
                del data[name]
        return data

    def decode(self, data: Any, where: Where) -> Any:
        """See :func:`from_dict`."""
        if not isinstance(data, dict) or not self.known.issuperset(data):
            raise ValueError(self._refusal(data, where))
        kwargs: dict[str, Any] = {}
        for name, plain, decode, required in self.reads:
            value = data.get(name, _MISSING)
            if type(value) is plain:
                kwargs[name] = value
            elif value is not _MISSING:
                kwargs[name] = decode(value, (where, name))
            elif required:
                raise ValueError(f"{_dotted((where, name))} is required")
        try:
            return self.cls(**kwargs)
        except ValueError as exc:
            raise ValueError(
                f"{_dotted(where) or self.cls.__name__} is not a valid "
                f"{self.cls.__name__}: {exc}"
            ) from None

    def _refusal(self, data: Any, where: Where) -> str:
        """Why ``data`` is not an object of this class's fields."""
        label = _dotted(where) or self.cls.__name__
        if not isinstance(data, dict):
            return (
                f"{label} must be an object of {self.cls.__name__} "
                f"fields, got {type(data).__name__}"
            )
        unknown = ", ".join(sorted(map(repr, set(data) - self.known)))
        return (
            f"{label} has unknown field(s) {unknown}; known fields: "
            f"{', '.join(self.names)}"
        )

    def check(self, obj: Any) -> None:
        """See :func:`check`."""
        for name, rule in self.rules.items():
            if rule.scalar:
                value = getattr(obj, name)
                stored = rule.decode(value, name)
                if stored is not value:
                    object.__setattr__(obj, name, stored)


@functools.cache
def _plan(cls: Any) -> _Plan:
    """The plan of one dataclass, derived on first use."""
    return _Plan(cls)
