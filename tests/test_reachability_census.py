"""The field census of ``tests/reachability.py --knobs``, run over small in-memory sources."""

from __future__ import annotations

import reachability

DEFINITIONS = '''
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple


@dataclass
class Base:
    by_subclass: int = 1
    unset: int = 2
    assigned: int = 3
    results: list = field(default_factory=list)
    factory_setting: frozenset = field(default_factory=frozenset)
    kind: ClassVar[str] = "base"


@dataclass
class Sub(Base):
    extra: int = 4


class Row(NamedTuple):
    first: int
    by_cls: int = 0

    @classmethod
    def make(cls, first):
        return cls(first, 1)


class Whole(NamedTuple):
    a: int = 0
    b: int = 0


@dataclass(frozen=True)
class Replaced:
    x: int = 0
    y: int = 0
'''

PROGRAM = '''
from dataclasses import replace
from functools import partial

Sub(by_subclass=5)
build_whole = partial(tuple.__new__, Whole)
replace(Replaced(), x=1)
thing.assigned = 6
'''


def census() -> set[tuple[str, str]]:
    found = reachability.setters([DEFINITIONS, PROGRAM])
    return {owner_field for _path, owner_field in reachability.unset_fields({"defs.py": DEFINITIONS}, found)}


def test_the_census_lists_exactly_the_unset_settings():
    assert census() == {("Base", "unset"), ("Base", "factory_setting"), ("Sub", "extra"), ("Replaced", "y")}


def test_a_subclass_constructor_keyword_sets_its_base_field():
    assert ("Base", "by_subclass") not in census()


def test_positional_cls_tuple_new_replace_and_assignment_set_a_field():
    unset = census()
    assert ("Row", "by_cls") not in unset
    assert {("Whole", "a"), ("Whole", "b")}.isdisjoint(unset)
    assert ("Replaced", "x") not in unset
    assert ("Base", "assigned") not in unset


def test_result_fields_class_variables_and_required_fields_are_not_reported():
    unset = census()
    assert {("Base", "results"), ("Base", "kind"), ("Row", "first")}.isdisjoint(unset)


def test_a_field_no_source_sets_is_reported_through_its_subclass_too():
    found = reachability.setters([DEFINITIONS])
    fields = reachability.fields_of({"defs.py": DEFINITIONS})
    assert [f[:2] for f in fields["Sub"]][:2] == [("Base", "by_subclass"), ("Base", "unset")]
    assert not reachability.is_set(found, fields, "Base", "by_subclass")
    assert reachability.is_set(reachability.setters(["Sub(0)"]), fields, "Base", "by_subclass")
