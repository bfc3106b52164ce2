import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ifmsim import (
    Arm,
    ConfigurationError,
    ElementKind,
    Obstruction,
    OpticalElement,
    PhotonMode,
    householder,
    parse_layout,
    propagate_analytic,
    serialize_layout,
    square_layout,
    with_obstruction,
)
from ifmsim.data import read_text


def test_bundled_plain_layout_parses_clean():
    doc = parse_layout(read_text("mzi.ifm"))
    assert doc.layout is not None
    assert doc.diagnostics == []
    layout = doc.layout
    assert sorted(layout.vertices) == ["L11", "L12", "L21", "L22"]
    kinds = {v: e.kind.value for v, e in layout.elements.items()}
    assert kinds == {"L11": "beamsplitter", "L12": "mirror",
                     "L21": "mirror", "L22": "beamsplitter"}
    assert layout.obstruction is None
    assert layout == square_layout()


def test_bundled_bomb_layout_parses_clean():
    doc = parse_layout(read_text("mzi_bomb.ifm"))
    assert doc.layout is not None and doc.diagnostics == []
    assert doc.layout.obstruction is not None
    assert doc.layout.obstruction.arm == "lower"
    assert doc.layout.obstruction.efficiency == 1.0
    assert doc.layout == with_obstruction(square_layout(), "lower", 1.0)


@pytest.mark.parametrize("name", ["mzi.ifm", "mzi_bomb.ifm"])
def test_round_trip_byte_identity(name):
    text = read_text(name)
    doc = parse_layout(text)
    assert serialize_layout(doc.layout) == text
    # and serializing twice is deterministic
    assert serialize_layout(doc.layout) == serialize_layout(doc.layout)


def test_round_trip_structural_identity_on_variations():
    base = square_layout(arm_length=2.25, momentum_magnitude=3.5, width=0.01)
    lower, upper = base.arms[("L11", "L12")], base.arms[("L11", "L21")]
    variants = [
        base,
        with_obstruction(base, "upper", 0.5),
        with_obstruction(base, "lower", 0.125),
        replace(base, detectors={"D1": "b", "D2": "a"}),
        # the input-side arms swapped between their keys: an arm is where it is keyed
        replace(base, arms={**base.arms, ("L11", "L12"): replace(upper, length=2.5),
                            ("L11", "L21"): lower}),
    ]
    for layout in variants:
        text = serialize_layout(layout)
        doc = parse_layout(text)
        assert doc.errors == []
        assert doc.layout == layout
        assert serialize_layout(doc.layout) == text


def test_efficiency_preserved_in_decimal_form():
    text = serialize_layout(with_obstruction(square_layout(), "lower", 0.5))
    assert "bomb arm lower efficiency 0.5" in text
    assert parse_layout(text).layout.obstruction.efficiency == 0.5


def test_comments_and_blank_lines_ignored():
    text = read_text("mzi.ifm")
    noisy = "# header comment\n\n" + text.replace(
        "vertex L11 0 0 0", "vertex L11 0 0 0   # origin")
    doc = parse_layout(noisy)
    assert doc.diagnostics == []
    assert doc.layout == square_layout()


def test_unknown_directive_positioned():
    doc = parse_layout("telescope L11 normal 1 0 0\n")
    assert doc.layout is None
    messages = [(d.line, d.column, d.severity) for d in doc.diagnostics]
    assert (1, 1, "error") in messages
    assert any("telescope" in d.message for d in doc.errors)


def test_degenerate_normal_positioned():
    text = read_text("mzi.ifm").replace(
        "mirror L12 normal 0.70710678118654746 -0.70710678118654746 0",
        "mirror L12 normal 0 0 0")
    doc = parse_layout(text)
    assert doc.layout is None
    hits = [d for d in doc.errors if "degenerate normal" in d.message]
    assert len(hits) == 1
    assert hits[0].line == 6  # the mirror line in the canonical file
    assert hits[0].column == 19  # first normal component token


MIS_STEERING = [
    ("mirror L12 normal 0.70710678118654746 -0.70710678118654746 0",
     "mirror L12 normal 1 0 0", 6, 19, "mirror at L12 does not steer its branch"),
    ("beamsplitter L11 normal 0.70710678118654746 -0.70710678118654746 0",
     "beamsplitter L11 normal 1 0 0", 5, 25,
     "beamsplitter normal at L11 does not steer the reflected branch"),
    ("beamsplitter L22 normal 0.70710678118654746 -0.70710678118654746 0",
     "beamsplitter L22 normal 1 0 0", 8, 25, "the beamsplitter cannot merge"),
    ("source momentum 1 0 0", "source momentum 1 1 0", 13, 17,
     "source momentum must point along exactly one arm"),
    ("vertex L22 1 1 0", "vertex L22 1 0 0", 4, 8, "vertices L12 and L22 coincide"),
]


@pytest.mark.parametrize("old, new, line, column, message", MIS_STEERING)
def test_mis_steering_positioned_at_its_directive(old, new, line, column, message):
    doc = parse_layout(read_text("mzi.ifm").replace(old, new))
    assert doc.layout is None
    assert [(d.line, d.column) for d in doc.errors] == [(line, column)]
    assert message in doc.errors[0].message


def test_malformed_number_positioned():
    doc = parse_layout("vertex L11 0 zero 0\n")
    hits = [d for d in doc.errors if "not a number" in d.message]
    assert hits and hits[0].line == 1 and hits[0].column == 14


def test_scanning_continues_past_errors():
    doc = parse_layout("telescope x\nvertex L11 0 a 0\narm L11 L12 length -1\n")
    assert doc.layout is None
    assert len(doc.errors) >= 3


def test_duplicate_definitions_rejected():
    text = read_text("mzi.ifm")
    doc = parse_layout(text + "vertex L11 9 9 9\n")
    assert any("already defined" in d.message for d in doc.errors)
    doc = parse_layout(text + "mirror L12 normal 1 0 0\n")
    assert any("already defined" in d.message for d in doc.errors)
    doc = parse_layout(text + "source momentum 1 0 0 polarization 0 0 1 width 0.1\n")
    assert any("already defined" in d.message for d in doc.errors)


def test_missing_pieces_reported():
    doc = parse_layout("vertex L11 0 0 0\n")
    wanted = ("missing vertex L12", "missing beamsplitter at vertex L22",
              "missing arm L11->L21", "missing source")
    for needle in wanted:
        assert any(needle in d.message for d in doc.errors), needle


def test_non_unit_normal_warns_but_builds():
    text = read_text("mzi.ifm").replace(
        "beamsplitter L11 normal 0.70710678118654746 -0.70710678118654746 0",
        "beamsplitter L11 normal 2 -2 0")
    doc = parse_layout(text)
    # warning-severity diagnostics do not block the layout
    assert doc.layout is not None
    assert doc.errors == []
    assert len(doc.warnings) == 1 and "normalized" in doc.warnings[0].message
    normal = doc.layout.elements["L11"].reflection.normal
    np.testing.assert_allclose(normal, [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0],
                               atol=1e-15)
    assert propagate_analytic(doc.layout).p_d1 == pytest.approx(1.0, abs=1e-12)


def test_huge_normal_warns_and_builds():
    # |n|^2 overflows a double here; the layout still gets the diagonal mirror
    text = read_text("mzi.ifm").replace(
        "mirror L12 normal 0.70710678118654746 -0.70710678118654746 0",
        "mirror L12 normal 1e200 -1e200 0")
    doc = parse_layout(text)
    assert doc.layout is not None and doc.errors == []
    assert [(d.line, d.column) for d in doc.warnings] == [(6, 19)]
    assert "normal has length 1.41421e+200; normalized to unit" in doc.warnings[0].message
    normal = doc.layout.elements["L12"].reflection.normal
    np.testing.assert_allclose(normal, [1 / math.sqrt(2), -1 / math.sqrt(2), 0.0],
                               atol=1e-15)
    assert propagate_analytic(doc.layout).p_d1 == pytest.approx(1.0, abs=1e-12)


def test_bomb_label_validation():
    text = read_text("mzi.ifm")
    doc = parse_layout(text + "bomb arm nowhere\n")
    assert any("unknown arm label" in d.message for d in doc.errors)
    doc = parse_layout(text + "bomb arm lower_exit\n")
    hits = [d for d in doc.errors if "not an input-side arm" in d.message]
    assert hits and "lower" in hits[0].message and "upper" in hits[0].message


def test_bomb_efficiency_range_checked():
    text = read_text("mzi.ifm")
    doc = parse_layout(text + "bomb arm lower efficiency 1.5\n")
    assert any("[0, 1]" in d.message for d in doc.errors)


def test_arm_validation():
    text = read_text("mzi.ifm")
    doc = parse_layout(text + "arm L12 L21 length 1\n")
    assert any("not part of the square" in d.message for d in doc.errors)
    doc = parse_layout(text.replace("arm L11 L12 length 1 label lower",
                                    "arm L11 L12 length 0 label lower"))
    assert any("positive" in d.message for d in doc.errors)
    doc = parse_layout(text.replace("arm L11 L21 length 1 label upper",
                                    "arm L11 L21 length 1 label lower"))
    assert any("already used" in d.message for d in doc.errors)


def test_unlabeled_arm_gets_endpoint_label():
    text = read_text("mzi.ifm").replace("arm L11 L12 length 1 label lower",
                                        "arm L11 L12 length 1")
    doc = parse_layout(text)
    assert doc.errors == []
    assert doc.layout.arms[("L11", "L12")].label == "L11_L12"


def test_detector_defaults_and_overrides():
    text = read_text("mzi.ifm")
    stripped = "\n".join(l for l in text.splitlines() if not l.startswith("detector"))
    doc = parse_layout(stripped + "\n")
    assert doc.layout.detectors == {"D1": "a", "D2": "b"}
    doc = parse_layout(stripped + "\ndetector D1 port b\n")
    assert doc.layout.detectors == {"D1": "b", "D2": "a"}
    # swapping the detectors swaps which one sits on the bright port
    report = propagate_analytic(doc.layout)
    assert report.p_d2 == pytest.approx(1.0, abs=1e-12)
    doc = parse_layout(stripped + "\ndetector D1 port b\ndetector D2 port b\n")
    assert any("already assigned" in d.message for d in doc.errors)


def test_detector_directive_validation():
    text = read_text("mzi.ifm")
    doc = parse_layout(text.replace("detector D1 port a", "detector D7 port a"))
    assert any("must be D1 or D2" in d.message for d in doc.errors)
    doc = parse_layout(text.replace("detector D1 port a", "detector D1 port c"))
    assert any("must be a or b" in d.message for d in doc.errors)


def test_extra_vertex_warns():
    doc = parse_layout(read_text("mzi.ifm") + "vertex X9 5 5 5\n")
    assert doc.layout is not None
    assert any("outside the square topology" in d.message for d in doc.warnings)


def test_extra_vertex_is_dropped():
    text = read_text("mzi.ifm")
    doc = parse_layout(text + "vertex X9 5 5 5\n")
    assert "X9" not in doc.layout.vertices
    assert doc.layout == parse_layout(text).layout
    assert serialize_layout(doc.layout) == text


REFUSED_VALUES = [
    # (replaced text, replacement, position of the refused value token)
    ("arm L11 L12 length 1", "arm L11 L12 length -1", (9, 20)),
    ("source momentum 1 0 0", "source momentum 0 0 0", (13, 17)),
    ("vertex L12 1 0 0", "vertex L12 1 0 x", (2, 16)),
    ("mirror L12 normal 0.70710678118654746 -0.70710678118654746 0",
     "mirror L12 normal 0 0 0", (6, 19)),
]


@pytest.mark.parametrize("old, new, position", REFUSED_VALUES,
                         ids=["arm-length", "momentum", "vertex", "normal"])
def test_refused_value_is_not_also_reported_missing(old, new, position):
    doc = parse_layout(read_text("mzi.ifm").replace(old, new))
    assert doc.layout is None
    assert [(d.line, d.column) for d in doc.errors] == [position]


def test_packet_width_rule_is_the_layouts(square):
    doc = parse_layout(read_text("mzi.ifm").replace("width 0.050000000000000003", "width 0"))
    with pytest.raises(ConfigurationError) as info:
        replace(square, source_width=0.0)
    assert info.value.at == ("width", None)
    assert [str(d) for d in doc.errors] == [f"13:48: error: {info.value}"]


def test_source_validation():
    text = read_text("mzi.ifm")
    doc = parse_layout(text.replace(
        "source momentum 1 0 0 polarization 0 0 1 width 0.050000000000000003",
        "source momentum 0 0 0 polarization 0 0 1 width 0.05"))
    assert any("momentum must be nonzero" in d.message for d in doc.errors)
    doc = parse_layout(text.replace(
        "source momentum 1 0 0 polarization 0 0 1 width 0.050000000000000003",
        "source momentum 1 0 0 polarization 1 0 0 width 0.05"))
    assert any("transverse" in d.message for d in doc.errors)
    doc = parse_layout(text.replace(
        "source momentum 1 0 0 polarization 0 0 1 width 0.050000000000000003",
        "source momentum 1 0 0 polarization 0 0 2 width 0.05"))
    assert doc.errors == [] and len(doc.warnings) == 1


def test_malformed_arity_reported():
    doc = parse_layout("vertex L11 0 0\n")
    assert any("expected" in d.message for d in doc.errors)
    doc = parse_layout("arm L11 L12 span 1\n")
    assert any("keyword 'length'" in d.message for d in doc.errors)


KEYWORDS = {"normal", "length", "label", "momentum", "polarization", "width", "arm",
            "efficiency", "port"}


def _keyword_tokens():
    """(file, line, column, keyword) for every keyword token of the bundled
    layouts: all of mzi.ifm, and the bomb line of mzi_bomb.ifm."""
    for name in ("mzi.ifm", "mzi_bomb.ifm"):
        for lineno, line in enumerate(read_text(name).splitlines(), start=1):
            if name == "mzi_bomb.ifm" and not line.startswith("bomb "):
                continue
            for index, match in enumerate(re.finditer(r"\S+", line)):
                if index and match.group() in KEYWORDS:
                    yield name, lineno, match.start() + 1, match.group()


KEYWORD_TOKENS = list(_keyword_tokens())


def test_keyword_tokens_cover_every_keyword():
    assert {keyword for *_, keyword in KEYWORD_TOKENS} == KEYWORDS


@pytest.mark.parametrize("name, line, column, keyword", KEYWORD_TOKENS,
                         ids=[f"{n}:{l}:{c}" for n, l, c, _ in KEYWORD_TOKENS])
def test_wrong_keyword_is_the_lines_only_error(name, line, column, keyword):
    lines = read_text(name).splitlines()
    text = lines[line - 1]
    lines[line - 1] = text[:column - 1] + "nrm" + text[column - 1 + len(keyword):]
    doc = parse_layout("\n".join(lines) + "\n")
    assert doc.layout is None
    # refused at that token, and its piece is not also reported missing
    assert [str(d) for d in doc.errors] == [
        f"{line}:{column}: error: expected keyword {keyword!r}, found 'nrm'"]


TWO_FAULT_LINES = [
    # (replaced text, replacement, the line's one diagnostic): a line is checked
    # for its arity, then for a second definition of its piece, then for its
    # keywords, and only then are its values read
    (None, "mirror L12 normal 0 0 0",
     "16:8: error: element at vertex 'L12' already defined on line 6"),
    (None, "mirror L12 normal 2 0 0",
     "16:8: error: element at vertex 'L12' already defined on line 6"),
    (None, "arm L11 L12 length -1", "16:1: error: arm L11->L12 already defined on line 9"),
    (None, "source mom 1 0 0 polarization 0 0 1 width 1",
     "16:1: error: source already defined on line 13"),
    (None, "detector D1 prt a", "16:10: error: detector D1 already defined on line 14"),
    ("source momentum 1 0 0 polarization", "source momentum x 0 0 pol",
     "13:23: error: expected keyword 'polarization', found 'pol'"),
    ("arm L11 L12 length 1 label lower", "arm L11 L12 length x lbl lower",
     "9:22: error: expected keyword 'label', found 'lbl'"),
    ("detector D1 port a", "detector D3 prt a",
     "14:13: error: expected keyword 'port', found 'prt'"),
]


@pytest.mark.parametrize("old, new, diagnostic", TWO_FAULT_LINES,
                         ids=["duplicate-zero-normal", "duplicate-non-unit-normal",
                              "duplicate-bad-length", "duplicate-bad-keyword",
                              "duplicate-detector-bad-keyword", "keyword-and-value",
                              "keyword-and-length", "keyword-and-detector-name"])
def test_two_fault_line_reports_its_first_fault(old, new, diagnostic):
    text = read_text("mzi.ifm")
    text = text + new + "\n" if old is None else text.replace(old, new)
    doc = parse_layout(text)
    assert doc.layout is None
    assert [str(d) for d in doc.diagnostics] == [diagnostic]


def test_piece_redefined_after_a_refused_line_is_not_a_duplicate():
    # the refused line defined nothing, so the later line is the definition
    text = read_text("mzi.ifm").replace("vertex L12 1 0 0", "vertex L12 1 0 x")
    doc = parse_layout(text + "vertex L12 1 0 0\n")
    assert [str(d) for d in doc.diagnostics] == [
        "2:16: error: malformed vertex position component: 'x' is not a number"]


@pytest.mark.parametrize("old, new, line", [
    (None, "bomb arm lower 0.5", 16),
    (None, "bomb arm lower efficiency", 16),
    ("arm L11 L12 length 1 label lower", "arm L11 L12 length 1 lower", 9),
], ids=["bomb-value-without-keyword", "bomb-keyword-without-value", "arm-label-without-keyword"])
def test_incomplete_optional_tail_rejected(old, new, line):
    text = read_text("mzi.ifm")
    text = text + new + "\n" if old is None else text.replace(old, new)
    doc = parse_layout(text)
    assert doc.layout is None
    malformed = [d for d in doc.errors if d.message.startswith("malformed directive")]
    assert [(d.line, d.column) for d in malformed] == [(line, 1)]


def _constructor_message(make, *args):
    with pytest.raises(ValueError) as info:
        make(*args)
    return str(info.value)


VALUE_RULES = [
    # (replaced text, replacement, position of the value token, library call)
    ("arm L11 L12 length 1 label lower", "arm L11 L12 length 0 label lower", (9, 20),
     (Arm, 0.0, "lower")),
    (None, "bomb arm lower efficiency 1.5", (16, 27), (Obstruction, "lower", 1.5)),
    ("mirror L12 normal 0.70710678118654746 -0.70710678118654746 0",
     "mirror L12 normal 0 0 0", (6, 19), (householder, (0.0, 0.0, 0.0))),
    ("polarization 0 0 1", "polarization 1 0 0", (13, 17),
     (PhotonMode, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))),
]


@pytest.mark.parametrize("old, new, position, call", VALUE_RULES,
                         ids=["arm-length", "efficiency", "zero-normal", "transversality"])
def test_value_rules_are_the_library_constructors(old, new, position, call):
    text = read_text("mzi.ifm")
    text = text + new + "\n" if old is None else text.replace(old, new)
    doc = parse_layout(text)
    assert doc.layout is None
    # a refused directive may also leave its piece missing; the rule's own
    # diagnostic comes first
    first = doc.errors[0]
    assert ((first.line, first.column), first.message) == (
        position, _constructor_message(*call))


def _wrong_kind(square):
    splitter = square.elements["L11"]
    mirror = OpticalElement(ElementKind.MIRROR, splitter.reflection)
    return {"elements": {**square.elements, "L11": mirror}}


def _extra_element(square):
    extra = OpticalElement(ElementKind.MIRROR, householder((1.0, 0.0, 0.0)))
    return {"elements": {**square.elements, "X9": extra}}


STRUCTURE_RULES = [
    # (replaced text, replacement, position the parser reports, the same change
    # made to the layout's pieces)
    ("beamsplitter L11", "mirror L11", (5, 8), _wrong_kind),
    (None, "bomb arm nowhere", (16, 10), lambda sq: {"obstruction": Obstruction("nowhere")}),
    (None, "bomb arm lower_exit", (16, 10),
     lambda sq: {"obstruction": Obstruction("lower_exit")}),
    ("detector D2 port b", "detector D2 port a", (15, 18),
     lambda sq: {"detectors": {"D1": "a", "D2": "a"}}),
    (None, "arm L12 L21 length 1 label diagonal", (16, 1),
     lambda sq: {"arms": {**sq.arms, ("L12", "L21"): Arm(1.0, "diagonal")}}),
    (None, "mirror X9 normal 1 0 0", (16, 8), _extra_element),
]


@pytest.mark.parametrize("old, new, position, change", STRUCTURE_RULES,
                         ids=["wrong-kind", "unknown-bomb-label", "bomb-off-input-side",
                              "port-conflict", "arm-off-square", "element-off-square"])
def test_structure_rules_are_the_layouts(square, old, new, position, change):
    text = read_text("mzi.ifm")
    text = text + new + "\n" if old is None else text.replace(old, new)
    doc = parse_layout(text)
    with pytest.raises(ConfigurationError) as info:
        replace(square, **change(square))
    assert doc.layout is None
    assert [((d.line, d.column), d.message) for d in doc.errors] == [
        (position, str(info.value))]
