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
value is reported at its token. The square's structural rules are
`Layout`'s: once every line is read, the parser runs them on what it
built and reports each fault at the directive it names. A piece whose
directive was refused is not also reported missing, and a vertex off
the square is dropped with a warning.

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

from .interferometer import VERTEX_IDS, Arm, Layout, Obstruction, _structure_faults
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
        self.source: tuple[list[_Token], PhotonMode, float] | None = None
        self.bomb: tuple[list[_Token], Obstruction] | None = None
        self.detectors: dict[str, tuple[list[_Token], str]] = {}
        # the `ConfigurationError.at` of each piece a directive was given for;
        # one given but never recorded was refused, and its error is reported
        self.given: set = set()

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
    state.given.add(("vertex", ident.text))
    if ident.text in state.vertices:
        state.duplicate(ident, f"vertex {ident.text!r}", state.vertices[ident.text])
        return
    position = state.vector(toks[2:5], "vertex position")
    if position is not None:
        state.vertices[ident.text] = (toks, position)


def _parse_element(state: _ParseState, toks: list[_Token]):
    vertex = toks[1]
    state.given.add(("element", vertex.text))
    if not state.keyword(toks[2], "normal"):
        return
    normal = state.vector(toks[3:6], "normal")
    if normal is None:
        return
    reflection = state.build(toks[3], householder, normal)
    if reflection is None:
        return
    length = math.hypot(*normal)  # np.linalg.norm without its overhead, or overflow
    if abs(length - 1.0) > _UNIT_TOL:
        state.warning(toks[3], f"normal has length {length:.6g}; normalized to unit")
    if vertex.text in state.elements:
        state.duplicate(vertex, f"element at vertex {vertex.text!r}",
                        state.elements[vertex.text])
        return
    element = OpticalElement(toks[0].text, reflection)
    state.elements[vertex.text] = (toks, element)


def _parse_arm(state: _ParseState, toks: list[_Token]):
    pair = (toks[1].text, toks[2].text)
    state.given.add(("arm", pair))
    if not state.keyword(toks[3], "length"):
        return
    length = state.number(toks[4], "arm length")
    if length is None:
        return
    labelled = len(toks) == 7
    label = toks[6].text if labelled else f"{pair[0]}_{pair[1]}"
    arm = state.build(toks[4], Arm, length, label)
    if arm is None or (labelled and not state.keyword(toks[5], "label")):
        return
    if pair in state.arms:
        state.duplicate(toks[0], f"arm {pair[0]}->{pair[1]}", state.arms[pair])
        return
    state.arms[pair] = (toks, arm)


def _parse_source(state: _ParseState, toks: list[_Token]):
    state.given.add(("source", None))
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
    if mode is not None:
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
    if name.text in state.detectors:
        state.duplicate(name, f"detector {name.text}", state.detectors[name.text])
        return
    state.detectors[name.text] = (toks, toks[3].text)


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


def _resolve(state: _ParseState, end_tok: _Token) -> dict:
    """Cross-directive checks once every line has been scanned.

    Returns the layout's pieces as `Layout` keyword arguments, with
    vertices off the square dropped and the detector defaults filled in.
    The square's structural rules are `Layout`'s own; each fault they
    find is reported at its directive, or at end_tok when a piece is
    missing. A piece whose directive was refused is not reported missing.
    """
    for vid in [vid for vid in state.vertices if vid not in VERTEX_IDS]:
        toks, _ = state.vertices.pop(vid)
        state.warning(toks[1], f"vertex {vid!r} is outside the square topology; ignored")

    ports = {name: port for name, (_, port) in state.detectors.items()}
    if len(ports) == 1:
        (name, port), = ports.items()
        ports["D2" if name == "D1" else "D1"] = "b" if port == "a" else "a"
    _, source, width = state.source or (None, None, None)
    pieces = dict(vertices=_objects(state.vertices), elements=_objects(state.elements),
                  arms=_objects(state.arms), source=source, source_width=width,
                  obstruction=state.bomb[1] if state.bomb else None,
                  detectors=ports or {"D1": "a", "D2": "b"})
    for message, at in _structure_faults(**pieces):
        tok = _fault_token(state, at, end_tok)
        if tok is not None:
            state.error(tok, message)
    return pieces


# ConfigurationError position kind -> (parse-state records, token index)
_FAULT_TOKENS = {
    "vertex": ("vertices", 1),
    "element": ("elements", 3),
    "element vertex": ("elements", 1),
    "arm": ("arms", 0),
    "arm label": ("arms", 6),
    "bomb": ("bomb", 2),
    "detector": ("detectors", 3),
    "source": ("source", 2),
    "width": ("source", 10),
}


def _fault_token(state: _ParseState, at, default: _Token) -> _Token | None:
    """Token of the directive a layout error names, else default.

    None for a piece whose directive was refused: that directive already
    has its own error.
    """
    if at is None:
        return default
    kind, key = at
    records, index = _FAULT_TOKENS[kind]
    record = getattr(state, records)
    if key is not None:
        record = record.get(key)
    if record is None:
        return None if at in state.given else default
    toks = record[0]
    # an unlabeled arm's label comes from its directive as a whole
    return toks[index] if index < len(toks) else toks[0]


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
    pieces = _resolve(state, end_tok)

    layout = None
    if not any(d.severity == "error" for d in state.diagnostics):
        try:
            layout = Layout(**pieces)
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
    for (start, end), arm in sorted(layout.arms.items(), key=lambda item: item[1].label):
        out.append(f"arm {start} {end} length {_fmt(arm.length)} "
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
