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

Each line is checked in one fixed order, from the grammar table below:
1. its arity: the line must match its usage with or without the
   bracketed tail, so a tail is given whole or not at all;
2. a second definition of the piece it defines (a vertex, the element
   at a vertex, an arm, the source, the bomb, a detector), refused as
   already defined on the first line; a line that redefines a piece
   whose earlier line was refused is the piece's definition;
3. its keywords, the usage's plain words: the first wrong one is
   reported at its token;
4. its values. Each directive builds its library object (`householder`
   and `OpticalElement`, `Arm`, `PhotonMode`, `Obstruction`), so the
   value rules are the library's own and a refused value is reported
   at its token.
A line refused at one of the first three steps reports that one fault
and is not read further.

The square's structural rules are `Layout`'s: once every line is read,
the parser runs them on what it built and reports each fault at the
directive it names. A piece whose directive was refused is not also
reported missing, and a vertex off the square is dropped with a
warning.

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
from collections import defaultdict, namedtuple
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
        # the `ConfigurationError.at` of each piece a line defined -> (the
        # line's tokens, what it built, or None for a refused line)
        self.records: dict = {}

    def error(self, tok: _Token, message: str):
        self.diagnostics.append(Diagnostic(tok.line, tok.column, "error", message))

    def warning(self, tok: _Token, message: str):
        self.diagnostics.append(Diagnostic(tok.line, tok.column, "warning", message))

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

    def build(self, tok: _Token, make, *args):
        """make(*args), or None with the ValueError it raised reported at tok.

        Also None, with nothing more reported, when an argument is None: a
        value already refused.
        """
        if any(arg is None for arg in args):
            return None
        try:
            return make(*args)
        except ValueError as exc:
            self.error(tok, str(exc))
            return None


# Each handler reads a line whose arity and keywords are already checked and
# returns what it built, or None once it has reported why it could not.

def _parse_vertex(state: _ParseState, toks: list[_Token]):
    return state.vector(toks[2:5], "vertex position")


def _parse_element(state: _ParseState, toks: list[_Token]):
    normal = state.vector(toks[3:6], "normal")
    reflection = state.build(toks[3], householder, normal)
    if reflection is None:
        return None
    length = math.hypot(*normal)  # np.linalg.norm without its overhead, or overflow
    if abs(length - 1.0) > _UNIT_TOL:
        state.warning(toks[3], f"normal has length {length:.6g}; normalized to unit")
    return OpticalElement(toks[0].text, reflection)


def _parse_arm(state: _ParseState, toks: list[_Token]):
    length = state.number(toks[4], "arm length")
    label = toks[6].text if len(toks) == 7 else f"{toks[1].text}_{toks[2].text}"
    return state.build(toks[4], Arm, length, label)


def _parse_source(state: _ParseState, toks: list[_Token]):
    momentum = state.vector(toks[2:5], "momentum")
    polarization = state.vector(toks[6:9], "polarization")
    width = state.number(toks[10], "packet width")
    if momentum is None or polarization is None or width is None:
        return None
    # PhotonMode takes a unit polarization only; the file may give any nonzero one
    pol_len = math.sqrt(polarization.dot(polarization))
    if pol_len == 0.0:
        state.error(toks[6], "polarization must be a nonzero vector")
        return None
    if abs(pol_len - 1.0) > _UNIT_TOL:
        state.warning(toks[6], f"polarization has length {pol_len:.6g}; normalized to unit")
        polarization = polarization / pol_len
    mode = state.build(toks[2], PhotonMode, momentum, polarization)
    return None if mode is None else (mode, width)


def _parse_bomb(state: _ParseState, toks: list[_Token]):
    efficiency = state.number(toks[4], "efficiency") if len(toks) == 5 else 1.0
    return state.build(toks[-1], Obstruction, toks[2].text, efficiency)


def _parse_detector(state: _ParseState, toks: list[_Token]):
    name = toks[1].text
    if name not in ("D1", "D2"):
        state.error(toks[1], f"detector name must be D1 or D2, got {name!r}")
        return None
    return toks[3].text


_Directive = namedtuple("_Directive", "usage arities keywords piece repeat handler")


def _directive(usage, piece, repeat, handler) -> tuple[str, _Directive]:
    words = usage.replace("[", "").replace("]", "").split()
    keywords = tuple((i, word) for i, word in enumerate(words) if i and word[0] != "<")
    arities = (len(usage.partition("[")[0].split()), len(words))
    return words[0], _Directive(usage, arities, keywords, piece, repeat, handler)


# The grammar: directive name -> its usage, the `ConfigurationError.at` of the
# piece a line defines (from the line's tokens), the token index and name that
# a second definition of that piece is reported with, and the handler. A line
# must match its usage exactly, with or without the bracketed tail; the
# usage's plain words after the first are its keywords.
_DIRECTIVES = dict(_directive(*entry) for entry in (
    ("vertex <id> <x> <y> <z>", lambda t: ("vertex", t[1].text), (1, "vertex {1!r}"),
     _parse_vertex),
    ("beamsplitter <vertex> normal <x> <y> <z>", lambda t: ("element", t[1].text),
     (1, "element at vertex {1!r}"), _parse_element),
    ("mirror <vertex> normal <x> <y> <z>", lambda t: ("element", t[1].text),
     (1, "element at vertex {1!r}"), _parse_element),
    ("arm <from> <to> length <L> [label <name>]", lambda t: ("arm", (t[1].text, t[2].text)),
     (0, "arm {1}->{2}"), _parse_arm),
    ("source momentum <x> <y> <z> polarization <x> <y> <z> width <sigma>",
     lambda t: ("source", None), (0, "source"), _parse_source),
    ("bomb arm <label> [efficiency <e>]", lambda t: ("bomb", None), (0, "bomb"),
     _parse_bomb),
    ("detector <D1|D2> port <a|b>", lambda t: ("detector", t[1].text), (1, "detector {1}"),
     _parse_detector),
))


def _read_line(state: _ParseState, toks: list[_Token]):
    """Check one directive line in the grammar's order and record its piece."""
    head = toks[0]
    spec = _DIRECTIVES.get(head.text)
    if spec is None:
        state.error(head, f"unknown directive {head.text!r}")
        return
    if len(toks) not in spec.arities:
        state.error(head, f"malformed directive: expected {spec.usage!r}")
        return
    at = spec.piece(toks)
    earlier, built = state.records.get(at, (None, None))
    if built is not None:
        index, name = spec.repeat
        state.error(toks[index], f"{name.format(*[t.text for t in toks])} already defined "
                                 f"on line {earlier[0].line}")
        return
    for index, keyword in spec.keywords:
        if index < len(toks) and toks[index].text != keyword:
            state.error(toks[index], f"expected keyword {keyword!r}, found {toks[index].text!r}")
            state.records[at] = (toks, None)
            return
    state.records[at] = (toks, spec.handler(state, toks))


def _resolve(state: _ParseState, end_tok: _Token) -> dict:
    """Cross-directive checks once every line has been scanned.

    Returns the layout's pieces as `Layout` keyword arguments, with
    vertices off the square dropped and the detector defaults filled in.
    The square's structural rules are `Layout`'s own; each fault they
    find is reported at its directive, or at end_tok when a piece is
    missing. A piece whose directive was refused is not reported missing.
    """
    built = defaultdict(dict)
    for (kind, key), (toks, value) in state.records.items():
        if value is None:
            continue
        if kind == "vertex" and key not in VERTEX_IDS:
            state.warning(toks[1], f"vertex {key!r} is outside the square topology; ignored")
        else:
            built[kind][key] = value
    ports = built["detector"]
    if len(ports) == 1:
        (name, port), = ports.items()
        ports["D2" if name == "D1" else "D1"] = "b" if port == "a" else "a"
    source, width = built["source"].get(None, (None, None))
    pieces = dict(vertices=built["vertex"], elements=built["element"], arms=built["arm"],
                  source=source, source_width=width, obstruction=built["bomb"].get(None),
                  detectors=ports or {"D1": "a", "D2": "b"})
    for message, at in _structure_faults(**pieces):
        tok = _fault_token(state, at, end_tok)
        if tok is not None:
            state.error(tok, message)
    return pieces


# ConfigurationError position kind -> (the kind of the piece's record, token index)
_FAULT_TOKENS = {
    "vertex": ("vertex", 1),
    "element": ("element", 3),
    "element vertex": ("element", 1),
    "arm": ("arm", 0),
    "arm label": ("arm", 6),
    "bomb": ("bomb", 2),
    "detector": ("detector", 3),
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
    kind, index = _FAULT_TOKENS[at[0]]
    record = state.records.get((kind, at[1]))
    if record is None:
        return default
    toks, built = record
    if built is None:
        return None
    # an unlabeled arm's label comes from its directive as a whole
    return toks[index] if index < len(toks) else toks[0]


def parse_layout(text: str) -> LayoutDocument:
    """Parse layout text into a LayoutDocument; never raises on bad input."""
    state = _ParseState()
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        toks = [_Token(m.group(), lineno, m.start() + 1)
                for m in _TOKEN_RE.finditer(body)]
        if toks:
            _read_line(state, toks)

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
