"""The field census of ``tests/reachability.py --knobs`` and the ``--check`` ratchet's
comparison, run over small in-memory sources."""

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


SOURCE = '''
def clamp(value, low):
    if value < low:
        return low
    for step in range(value):
        if step < 0:
            continue
        if step > 99:
            continue
    return value
'''


def statements(source: str, ran: set[int]) -> list[tuple[str, str]]:
    """The census keys of ``source``'s unrun statements, its one function entered."""
    entered = {next(i for i, line in enumerate(source.splitlines(), 1) if line.startswith("def "))}
    return [(name, text) for name, _line, text, _size in reachability.unrun_rows(source, entered, ran)]


def test_a_statement_is_keyed_by_its_function_and_text_not_its_line():
    ran = {3, 5, 6, 8, 10}  # every line but the early return and the two ``continue``
    keys = statements(SOURCE, ran)
    assert keys == [("clamp", "return low"), ("clamp", "continue"), ("clamp", "continue")]
    # Three lines inserted above the function move every line number and no key.
    assert statements("import os\n\n\n" + SOURCE, {line + 3 for line in ran}) == keys


def found(**lists) -> dict:
    return {key: lists.get(key, []) for key in reachability.LISTS}


CENSUS = {
    "legend": {"edge case": "a guard no output meets"},
    "unreached": [["a.py", "f", "edge case"]],
    "lines": [["a.py", "clamp", "continue", "edge case"], ["a.py", "clamp", "continue", "edge case"]],
    "fields": [["a.py", "C.x", "edge case"]],
}


def test_the_ratchet_passes_when_the_file_holds_exactly_the_lists():
    listed = found(
        unreached=[("a.py", "f")],
        lines=[("a.py", "clamp", "continue")] * 2,
        fields=[("a.py", "C.x")],
    )
    assert reachability.compare(CENSUS, listed) == []


def test_the_ratchet_refuses_an_entry_the_file_lacks():
    listed = found(
        unreached=[("a.py", "f"), ("a.py", "g")],
        lines=[("a.py", "clamp", "continue")] * 3,
        fields=[("a.py", "C.x")],
    )
    problems = reachability.compare(CENSUS, listed)
    assert problems == [
        'unreached: new, add it with its reason: ["a.py", "g", "REASON"]',
        'lines: new, add it with its reason: ["a.py", "clamp", "continue", "REASON"]',
    ]


def test_the_ratchet_refuses_an_entry_no_list_prints():
    listed = found(unreached=[("a.py", "f")], lines=[("a.py", "clamp", "continue")])
    problems = reachability.compare(CENSUS, listed)
    assert problems == [
        'lines: gone, delete it: ["a.py", "clamp", "continue"]',
        'fields: gone, delete it: ["a.py", "C.x"]',
    ]


def test_the_ratchet_refuses_a_reason_the_legend_lacks():
    census = {**CENSUS, "unreached": [["a.py", "f", "no reason"]]}
    listed = found(unreached=[("a.py", "f")], lines=[("a.py", "clamp", "continue")] * 2, fields=[("a.py", "C.x")])
    assert reachability.compare(census, listed) == [
        "unreached: reason 'no reason' is not in the legend: [\"a.py\", \"f\", \"no reason\"]"
    ]
