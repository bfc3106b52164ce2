"""Plain-text layout format.

One directive per line, `#` starts a comment, blank lines are ignored,
directive order is free:

    vertex <id> <x> <y> <z>
    beamsplitter <vertex> normal <x> <y> <z>
    mirror <vertex> normal <x> <y> <z>
    arm <from> <to> length <L> [label <name>]
    source momentum <x> <y> <z> polarization <x> <y> <z> width <sigma>
    bomb arm <label> [efficiency <e>]
    detector <D1|D2> port <a|b>

A line must match its usage with or without the bracketed tail: a tail
is given whole or not at all. Each directive builds its library object
(`householder` and `OpticalElement`, `Arm`, `PhotonMode`, `Obstruction`)
as it is read, so the value rules are the library's own and a refused
value is reported at its token.

Parsing never raises on bad input; problems come back as positioned
diagnostics (1-based line and column). Only error-severity diagnostics
block layout construction: a non-unit normal or polarization is
normalized with a warning, and unlabeled arms get `<from>_<to>` labels.
Missing detector lines default to D1 on port a and D2 on port b.

`serialize_layout` writes the canonical form: directives grouped as
vertices, elements, arms, source, bomb, detectors, each group sorted by
identifier, floats rendered with 17 significant digits. Serializing,
parsing, and serializing again reproduces the text byte for byte.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .interferometer import (
    ARM_PAIRS,
    INPUT_ARM_PAIRS,
    VERTEX_IDS,
    Arm,
    Layout,
    Obstruction,
    _EXPECTED_KINDS,
)
from .optics import _UNIT_TOL, OpticalElement, PhotonMode, householder

_TOKEN_RE = re.compile(r"\S+")


@dataclass
class Diagnostic:
    line: int
    column: int
    severity: str  # "error" or "warning"
    message: str

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity}: {self.message}"


@dataclass(eq=False)
class LayoutDocument:
    """Parse result: the input text, a layout if one could be built, diagnostics."""

    source: str
    layout: Layout | None
    diagnostics: list[Diagnostic]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]


@dataclass
class _Token:
    text: str
    line: int
    column: int


class _ParseState:
    def __init__(self):
        self.diagnostics: list[Diagnostic] = []
        # each record holds the directive's tokens and what the directive built
        self.vertices: dict[str, tuple[list[_Token], np.ndarray]] = {}
        self.elements: dict[str, tuple[list[_Token], OpticalElement]] = {}
        self.arms: dict[tuple[str, str], tuple[list[_Token], Arm]] = {}
        self.arm_labels: dict[str, tuple[str, str]] = {}
        self.source: tuple[list[_Token], PhotonMode, float] | None = None
        self.bomb: tuple[list[_Token], Obstruction] | None = None
        self.detectors: dict[str, tuple[list[_Token], str]] = {}

    def error(self, tok: _Token, message: str):
        self.diagnostics.append(Diagnostic(tok.line, tok.column, "error", message))

    def warning(self, tok: _Token, message: str):
        self.diagnostics.append(Diagnostic(tok.line, tok.column, "warning", message))

    def duplicate(self, tok: _Token, what: str, record):
        self.error(tok, f"{what} already defined on line {record[0][0].line}")

    def number(self, tok: _Token, what: str) -> float | None:
        try:
            value = float(tok.text)
        except ValueError:
            self.error(tok, f"malformed {what}: {tok.text!r} is not a number")
            return None
        if not math.isfinite(value):
            self.error(tok, f"{what} must be finite, got {tok.text!r}")
            return None
        return value

    def vector(self, toks: list[_Token], what: str) -> np.ndarray | None:
        parts = [self.number(t, f"{what} component") for t in toks]
        if any(p is None for p in parts):
            return None
        return np.array(parts, dtype=float)

    def keyword(self, tok: _Token, expected: str) -> bool:
        if tok.text != expected:
            self.error(tok, f"expected keyword {expected!r}, found {tok.text!r}")
            return False
        return True

    def build(self, tok: _Token, make, *args):
        """make(*args), or None with the ValueError it raised reported at tok."""
        try:
            return make(*args)
        except ValueError as exc:
            self.error(tok, str(exc))
            return None


def _parse_vertex(state: _ParseState, toks: list[_Token]):
    ident = toks[1]
    if ident.text in state.vertices:
        state.duplicate(ident, f"vertex {ident.text!r}", state.vertices[ident.text])
        return
    position = state.vector(toks[2:5], "vertex position")
    if position is not None:
        state.vertices[ident.text] = (toks, position)


def _parse_element(state: _ParseState, toks: list[_Token]):
    vertex = toks[1]
    if not state.keyword(toks[2], "normal"):
        return
    normal = state.vector(toks[3:6], "normal")
    if normal is None:
        return
    reflection = state.build(toks[3], householder, normal)
    if reflection is None:
        return
    length = math.sqrt(normal.dot(normal))  # np.linalg.norm, without its overhead
    if abs(length - 1.0) > _UNIT_TOL:
        state.warning(toks[3], f"normal has length {length:.6g}; normalized to unit")
    if vertex.text in state.elements:
        state.duplicate(vertex, f"element at vertex {vertex.text!r}",
                        state.elements[vertex.text])
        return
    element = OpticalElement(toks[0].text, reflection, vertex.text)
    state.elements[vertex.text] = (toks, element)


def _parse_arm(state: _ParseState, toks: list[_Token]):
    pair = (toks[1].text, toks[2].text)
    if not state.keyword(toks[3], "length"):
        return
    length = state.number(toks[4], "arm length")
    if length is None:
        return
    labelled = len(toks) == 7
    label_tok = toks[6] if labelled else toks[0]
    label = label_tok.text if labelled else f"{pair[0]}_{pair[1]}"
    arm = state.build(toks[4], Arm, *pair, length, label)
    if arm is None or (labelled and not state.keyword(toks[5], "label")):
        return
    if pair in state.arms:
        state.duplicate(toks[0], f"arm {pair[0]}->{pair[1]}", state.arms[pair])
        return
    if label in state.arm_labels:
        state.error(label_tok, f"arm label {label!r} already used")
        return
    state.arms[pair] = (toks, arm)
    state.arm_labels[label] = pair


def _parse_source(state: _ParseState, toks: list[_Token]):
    if state.source is not None:
        state.duplicate(toks[0], "source", state.source)
        return
    if not state.keyword(toks[1], "momentum"):
        return
    momentum = state.vector(toks[2:5], "momentum")
    if not state.keyword(toks[5], "polarization"):
        return
    polarization = state.vector(toks[6:9], "polarization")
    if not state.keyword(toks[9], "width"):
        return
    width = state.number(toks[10], "packet width")
    if momentum is None or polarization is None or width is None:
        return
    # PhotonMode takes a unit polarization only; the file may give any nonzero one
    pol_len = math.sqrt(polarization.dot(polarization))
    if pol_len == 0.0:
        state.error(toks[6], "polarization must be a nonzero vector")
        return
    if abs(pol_len - 1.0) > _UNIT_TOL:
        state.warning(toks[6], f"polarization has length {pol_len:.6g}; normalized to unit")
        polarization = polarization / pol_len
    mode = state.build(toks[2], PhotonMode, momentum, polarization)
    if mode is None:
        return
    if not width > 0.0:
        state.error(toks[10], f"packet width must be positive, got {toks[10].text}")
        return
    state.source = (toks, mode, width)


def _parse_bomb(state: _ParseState, toks: list[_Token]):
    if state.bomb is not None:
        state.duplicate(toks[0], "bomb", state.bomb)
        return
    if not state.keyword(toks[1], "arm"):
        return
    efficiency = 1.0
    if len(toks) == 5:
        if not state.keyword(toks[3], "efficiency"):
            return
        efficiency = state.number(toks[4], "efficiency")
        if efficiency is None:
            return
    obstruction = state.build(toks[-1], Obstruction, toks[2].text, efficiency)
    if obstruction is not None:
        state.bomb = (toks, obstruction)


def _parse_detector(state: _ParseState, toks: list[_Token]):
    name = toks[1]
    if name.text not in ("D1", "D2"):
        state.error(name, f"detector name must be D1 or D2, got {name.text!r}")
        return
    if not state.keyword(toks[2], "port"):
        return
    port = toks[3]
    if port.text not in ("a", "b"):
        state.error(port, f"detector port must be a or b, got {port.text!r}")
        return
    if name.text in state.detectors:
        state.duplicate(name, f"detector {name.text}", state.detectors[name.text])
        return
    state.detectors[name.text] = (toks, port.text)


# The grammar: directive name -> (usage, accepted token counts, handler). A
# line must match its usage exactly, with or without the bracketed tail.
_DIRECTIVES = {
    usage.split()[0]: (usage, (len(usage.partition("[")[0].split()), len(usage.split())),
                       handler)
    for usage, handler in (
        ("vertex <id> <x> <y> <z>", _parse_vertex),
        ("beamsplitter <vertex> normal <x> <y> <z>", _parse_element),
        ("mirror <vertex> normal <x> <y> <z>", _parse_element),
        ("arm <from> <to> length <L> [label <name>]", _parse_arm),
        ("source momentum <x> <y> <z> polarization <x> <y> <z> width <sigma>",
         _parse_source),
        ("bomb arm <label> [efficiency <e>]", _parse_bomb),
        ("detector <D1|D2> port <a|b>", _parse_detector),
    )
}


def _resolve(state: _ParseState, end_tok: _Token):
    """Cross-directive checks once every line has been scanned."""
    for vid in VERTEX_IDS:
        if vid not in state.vertices:
            state.error(end_tok, f"missing vertex {vid}")
    for vid, (toks, _) in state.vertices.items():
        if vid not in VERTEX_IDS:
            state.warning(toks[1], f"vertex {vid!r} is outside the square topology; ignored")

    for vid, expected in _EXPECTED_KINDS.items():
        if vid not in state.elements:
            state.error(end_tok, f"missing {expected.value} at vertex {vid}")
            continue
        toks, element = state.elements[vid]
        if element.kind is not expected:
            state.error(toks[1],
                        f"vertex {vid} needs a {expected.value}, found a {element.kind.value}")
    for vid, (toks, _) in state.elements.items():
        if vid not in VERTEX_IDS:
            state.error(toks[1],
                        f"unexpected element at vertex {vid!r}; the square uses "
                        f"{', '.join(VERTEX_IDS)}")

    for pair in ARM_PAIRS:
        if pair not in state.arms:
            state.error(end_tok, f"missing arm {pair[0]}->{pair[1]}")
    for pair, (toks, _) in state.arms.items():
        for tok in toks[1:3]:
            if tok.text not in state.vertices:
                state.error(tok, f"unknown vertex {tok.text!r}")
        if pair not in ARM_PAIRS:
            state.error(toks[0],
                        f"arm {pair[0]}->{pair[1]} is not part of the square topology")

    if state.source is None:
        state.error(end_tok, "missing source directive")

    if state.bomb is not None:
        label_tok = state.bomb[0][2]
        pair = state.arm_labels.get(label_tok.text)
        if pair is None:
            state.error(label_tok, f"unknown arm label {label_tok.text!r}")
        elif pair not in INPUT_ARM_PAIRS:
            valid = sorted(state.arms[p][1].label for p in INPUT_ARM_PAIRS
                           if p in state.arms)
            state.error(label_tok,
                        f"bomb arm {label_tok.text!r} is not an input-side arm; "
                        f"valid labels: {valid}")

    ports = {"D1": "a", "D2": "b"}
    taken: dict[str, str] = {}
    for name in sorted(state.detectors):
        toks, port = state.detectors[name]
        if port in taken.values():
            state.error(toks[3], f"port {port!r} already assigned to another detector")
        else:
            taken[name] = port
    for name, port in taken.items():
        ports[name] = port
    if len(taken) == 1:
        (name, port), = taken.items()
        other = "D2" if name == "D1" else "D1"
        ports[other] = "b" if port == "a" else "a"
    return ports


def _fault_token(state: _ParseState, at, default: _Token) -> _Token:
    """Token of the directive a layout's geometry error names, else default."""
    if at is None:
        return default
    kind, vid = at
    if kind == "vertex":
        return state.vertices[vid][0][1]
    if kind == "element":
        return state.elements[vid][0][3]
    return state.source[0][2]


def _objects(records: dict) -> dict:
    return {key: record[1] for key, record in records.items()}


def parse_layout(text: str) -> LayoutDocument:
    """Parse layout text into a LayoutDocument; never raises on bad input."""
    state = _ParseState()
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        toks = [_Token(m.group(), lineno, m.start() + 1)
                for m in _TOKEN_RE.finditer(body)]
        if not toks:
            continue
        head = toks[0]
        spec = _DIRECTIVES.get(head.text)
        if spec is None:
            state.error(head, f"unknown directive {head.text!r}")
            continue
        usage, arities, handler = spec
        if len(toks) not in arities:
            state.error(head, f"malformed directive: expected {usage!r}")
            continue
        handler(state, toks)

    end_tok = _Token("", max(1, len(lines)), 1)
    ports = _resolve(state, end_tok)

    layout = None
    if not any(d.severity == "error" for d in state.diagnostics):
        _, source, width = state.source
        try:
            layout = Layout(vertices=_objects(state.vertices),
                            elements=_objects(state.elements), arms=_objects(state.arms),
                            source=source, source_width=width,
                            obstruction=state.bomb[1] if state.bomb else None,
                            detectors=ports)
        except ValueError as exc:
            state.error(_fault_token(state, getattr(exc, "at", None), end_tok), str(exc))
    return LayoutDocument(source=text, layout=layout, diagnostics=state.diagnostics)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _fmt_vec(vec) -> str:
    return " ".join(_fmt(x) for x in vec)


def serialize_layout(layout: Layout) -> str:
    """Canonical text form of a layout; stable under parse/serialize cycles."""
    out = []
    for vid in sorted(layout.vertices):
        out.append(f"vertex {vid} {_fmt_vec(layout.vertices[vid])}")
    for vid in sorted(layout.elements):
        element = layout.elements[vid]
        out.append(f"{element.kind.value} {vid} normal "
                   f"{_fmt_vec(element.reflection.normal)}")
    for arm in sorted(layout.arms.values(), key=lambda a: a.label):
        out.append(f"arm {arm.start} {arm.end} length {_fmt(arm.length)} "
                   f"label {arm.label}")
    source = layout.source
    out.append(f"source momentum {_fmt_vec(source.momentum)} "
               f"polarization {_fmt_vec(source.polarization)} "
               f"width {_fmt(layout.source_width)}")
    if layout.obstruction is not None:
        out.append(f"bomb arm {layout.obstruction.arm} "
                   f"efficiency {_fmt(layout.obstruction.efficiency)}")
    for name in sorted(layout.detectors):
        out.append(f"detector {name} port {layout.detectors[name]}")
    return "\n".join(out) + "\n"
