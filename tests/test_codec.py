"""The codec's own rules, on small dataclasses of its supported types.

Round trips of the real classes and the pinned cache bytes are in
``tests/harness/test_contracts.py``; wire errors in
``tests/service/test_wire.py``.
"""

import json
from dataclasses import dataclass, field

import pytest

from repro import codec
from repro.core.config import AcceleratorConfig


@dataclass
class Leaf:
    x: float
    label: str = "leaf"


@dataclass
class Tree:
    leaf: Leaf
    leaves: list[Leaf] = field(default_factory=list)
    pair: tuple[str, int] = ("a", 1)
    spare: Leaf | None = None
    count: int = field(default=1, metadata={"minimum": 0, "maximum": 9})


def test_nested_round_trip_through_json():
    tree = Tree(Leaf(1.5), [Leaf(2.5, "b")], ("c", 3), Leaf(4.0), 5)
    data = json.loads(json.dumps(codec.to_dict(tree)))
    assert codec.from_dict(Tree, data, "tree") == tree


def test_none_at_a_none_default_is_left_out_and_read_back():
    tree = Tree(Leaf(1.5))
    data = codec.to_dict(tree)
    assert list(data) == ["leaf", "leaves", "pair", "count"]
    assert codec.from_dict(Tree, {**data, "spare": None}, "") == tree


def test_only_fields_are_written_in_declaration_order():
    leaf = Leaf(1.5)
    leaf.note = "an attribute, not a field"
    assert list(codec.to_dict(leaf).items()) == [("x", 1.5), ("label", "leaf")]


def test_int_in_a_float_field_reads_as_float():
    leaf = codec.from_dict(Leaf, {"x": 2}, "")
    assert type(leaf.x) is float
    # So does one given in-process, so 600 and 600.0 make one key.
    assert type(AcceleratorConfig(clock_mhz=600).clock_mhz) is float


@pytest.mark.parametrize(
    "data,message",
    [
        ({}, r"^tree\.leaf is required$"),
        ({"leaf": {"x": True}}, r"^tree\.leaf\.x must be float, got True$"),
        ({"leaf": {"x": 1.0}, "leaves": [{"x": "no"}]},
         r"^tree\.leaves\[0\]\.x must be float"),
        ({"leaf": {"x": 1.0}, "pair": ["a"]},
         r"^tree\.pair must be a list of 2 items"),
        ({"leaf": {"x": 1.0}, "count": 10}, r"^tree\.count must be <= 9"),
        ({"leaf": {"x": 1.0}, "count": float("nan")},
         r"^tree\.count must be int"),
        ({"leaf": [1.0]}, r"^tree\.leaf must be an object of Leaf fields"),
        ({"leaf": {"x": 1.0, "y": 2}}, r"^tree\.leaf has unknown field"),
    ],
)
def test_errors_name_the_dotted_field(data, message):
    with pytest.raises(ValueError, match=message):
        codec.from_dict(Tree, data, "tree")


def test_nan_fails_a_float_bound():
    with pytest.raises(ValueError, match="clock_mhz must be > 0"):
        AcceleratorConfig(clock_mhz=float("nan"))


def test_declaration_mistakes_fail_when_first_used():
    @dataclass
    class Typo:
        n: int = field(default=1, metadata={"minimun": 0})

    @dataclass
    class BoundedList:
        items: list[int] = field(default_factory=list, metadata={"maximum": 1})

    @dataclass
    class Unsupported:
        table: dict = field(default_factory=dict)

    for cls, message in (
        (Typo, "unknown bound"),
        (BoundedList, "scalar fields only"),
        (Unsupported, "no codec"),
    ):
        with pytest.raises(TypeError, match=message):
            codec.to_dict(cls())
