"""Single-photon propagation through a square two-path interferometer.

Topology is fixed: a beamsplitter at L11 splits the source into two
localized branches, mirrors at L12 and L21 fold them, and a second
beamsplitter at L22 merges them into output ports a and b. The photon
amplitude on the two ports is one product of 2x2 two-port matrices,

    out = M_bs2 . M_mirror . diag(g_t, g_r) . M_bs1 . (1, 0)^T,

where t is the branch that keeps the source momentum at L11 and r the
branch the splitter reflects. Each branch factor
g_k = sqrt(1 - e_k) exp(i |p| (L_k - L_min)) holds the efficiency e_k of
an absorber on its input-side arm and its total path length L_k. Both
mirrors are the same matrix, each acting on the one branch it carries.

A layout checks its geometry once, when it is built: the source and
every reflection must steer momenta along the arms, and the L22 splitter
must be able to merge the arriving momenta. A call then only certifies
that the two branch packets are disjoint, forms the path phases and
takes the product; a fringe scan does so for a whole array of extra
lengths at once.

Conventions used throughout:
  * at each element the two-port column is (u, v) with u the component
    whose momentum passes the element unchanged and v the reflected one;
    elements act by the rotation [[c, s], [-s, c]] of `port_matrix`;
  * a mirror is the angle pi/2 case: the populated port hops to the
    other port, picking up -1 when it arrives on the reflected side;
  * output port a continues the momentum of the u input at L22, port b
    continues the v input;
  * reported amplitudes are quoted relative to free flight over the
    shortest path, i.e. the common phase exp(i |p| L_min) is divided
    out, so an empty balanced square yields amplitude exactly -1 at
    port a.

An obstruction on one of the input-side arms removes amplitude
coherently: the blocked branch keeps a factor sqrt(1 - e) and the weight
e |M_bs1[k, 0]|^2 is booked against the absorber.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError, integer
from .optics import (
    ElementKind,
    GaussianPacket,
    OpticalElement,
    PhotonMode,
    _Rebuilt,
    _read_only,
    householder,
    locality_check,
    packet_overlap,
    port_matrix,
    reflect_mode,
)

VERTEX_IDS = ("L11", "L12", "L21", "L22")
ARM_PAIRS = (("L11", "L12"), ("L11", "L21"), ("L12", "L22"), ("L21", "L22"))
INPUT_ARM_PAIRS = (("L11", "L12"), ("L11", "L21"))

_EXPECTED_KINDS = {
    "L11": ElementKind.BEAMSPLITTER,
    "L12": ElementKind.MIRROR,
    "L21": ElementKind.MIRROR,
    "L22": ElementKind.BEAMSPLITTER,
}

_DIR_TOL = 1e-9

# shots whose random words the sampler holds at once
SHOT_CHUNK = 65536


@dataclass(frozen=True)
class Arm:
    """Arm of the square, with its physical length and a label.

    A layout keys each arm by its (start, end) vertex pair.
    """

    length: float
    label: str

    def __post_init__(self):
        object.__setattr__(self, "length", float(self.length))
        if not self.length > 0.0:
            raise ConfigurationError(
                f"arm {self.label!r} must have positive length, got {self.length}"
            )


@dataclass(frozen=True)
class Obstruction:
    """Absorbing object on one arm; efficiency 1 removes the branch entirely."""

    arm: str
    efficiency: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "efficiency", float(self.efficiency))
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(
                f"obstruction efficiency must lie in [0, 1], got {self.efficiency}"
            )


@dataclass(eq=False)
class InteractionEvent:
    """Record of amplitude removed by the obstruction."""

    arm: str
    position: np.ndarray
    absorbed_weight: float


@dataclass(eq=False)
class DetectionReport:
    """Final probabilities, detector-side momenta, and the port-a amplitude."""

    p_d1: float
    p_d2: float
    p_absorbed: float
    momentum_d1: np.ndarray
    momentum_d2: np.ndarray
    amplitude_d1: complex
    event: InteractionEvent | None = None


def _structure_faults(vertices, elements, arms, source, source_width, obstruction,
                      detectors):
    """Yield (message, at) for every way the pieces fail to form the square.

    The faults come in a fixed order: a missing source or a packet width
    that is not positive, missing vertices, missing or wrong-kind
    elements, elements off the square, missing arms, arms off the square,
    repeated arm labels, the obstruction's arm, and the detectors. `at` is
    the `ConfigurationError` position of the piece at fault, missing or
    not, or None. `Layout` raises the first fault; the layout parser
    reports them all, each at its directive.
    """
    if source is None:
        yield "missing source", ("source", None)
    elif not source_width > 0.0:
        yield f"source packet width must be positive, got {source_width}", ("width", None)
    for vid in VERTEX_IDS:
        if vid not in vertices:
            yield f"missing vertex {vid}", ("vertex", vid)
    for vid, kind in _EXPECTED_KINDS.items():
        element = elements.get(vid)
        if element is None:
            yield f"missing {kind.value} at vertex {vid}", ("element", vid)
        elif element.kind is not kind:
            yield (f"vertex {vid} needs a {kind.value}, found a {element.kind.value}",
                   ("element vertex", vid))
    for vid in elements:
        if vid not in _EXPECTED_KINDS:
            yield (f"unexpected element at vertex {vid!r}; the square uses "
                   f"{', '.join(VERTEX_IDS)}", ("element vertex", vid))
    for pair in ARM_PAIRS:
        if pair not in arms:
            yield f"missing arm {pair[0]}->{pair[1]}", ("arm", pair)
    for pair in arms:
        if pair not in ARM_PAIRS:
            yield f"arm {pair[0]}->{pair[1]} is not part of the square topology", ("arm", pair)
    owners = {}
    for pair, arm in arms.items():
        first = owners.setdefault(arm.label, pair)
        if first != pair:
            yield (f"arm label {arm.label!r} already used by arm {first[0]}->{first[1]}; "
                   "arm labels must be unique", ("arm label", pair))
    if obstruction is not None:
        valid = sorted(arms[pair].label for pair in INPUT_ARM_PAIRS if pair in arms)
        if obstruction.arm not in owners:
            yield (f"unknown arm label {obstruction.arm!r}; valid labels: {valid}",
                   ("bomb", None))
        elif obstruction.arm not in valid:
            yield (f"bomb arm {obstruction.arm!r} is not an input-side arm; "
                   f"valid labels: {valid}", ("bomb", None))
    if set(detectors) != {"D1", "D2"}:
        yield f"detectors must map exactly D1 and D2, got {sorted(detectors)}", None
        return
    taken = {}
    for name in ("D1", "D2"):
        port = detectors[name]
        if port not in ("a", "b"):
            yield f"detector port must be a or b, got {port!r}", ("detector", name)
        elif port in taken:
            yield (f"port {port!r} already assigned to {taken[port]}; detectors must "
                   "cover ports a and b once each", ("detector", name))
        taken[port] = name


# what a layout's geometry fixes: the t and r vertices, their branch packets,
# the port matrices (merge rows and exit momenta in detector order) and |p|
_Geometry = namedtuple("_Geometry", "routing packets split mirror merge momenta p_mag")


@dataclass(frozen=True, eq=False)
class Layout(_Rebuilt):
    """Complete description of one interferometer configuration.

    vertices maps the four ids to positions; elements maps each vertex to
    its optical element; arms is keyed by (start, end); detectors maps
    D1/D2 to output ports a/b. Construction validates the structure and
    checks the geometry once. A layout is immutable all the way down:
    read-only mappings of frozen values, whose arrays are read-only
    copies, so `dataclasses.replace` builds a changed one.
    """

    vertices: Mapping[str, np.ndarray]
    elements: Mapping[str, OpticalElement]
    arms: Mapping[tuple[str, str], Arm]
    source: PhotonMode
    source_width: float
    obstruction: Obstruction | None = None
    detectors: Mapping[str, str] = field(default_factory=lambda: {"D1": "a", "D2": "b"})
    _geometry: _Geometry = field(init=False, repr=False)

    def __post_init__(self):
        vertices = {k: _read_only(v) for k, v in self.vertices.items()}
        for name, value in (("vertices", vertices), ("elements", self.elements),
                            ("arms", self.arms), ("detectors", self.detectors)):
            object.__setattr__(self, name, MappingProxyType(dict(value)))
        object.__setattr__(self, "source_width", float(self.source_width))
        for message, at in _structure_faults(self.vertices, self.elements, self.arms,
                                             self.source, self.source_width,
                                             self.obstruction, self.detectors):
            raise ConfigurationError(message, at=at)  # the first fault
        for vid in VERTEX_IDS:
            position = self.vertices[vid]
            if position.shape != (3,) or not all(map(math.isfinite, position.tolist())):
                raise ConfigurationError(f"vertex {vid} position must be a finite 3-vector, "
                                         f"got {position}", at=("vertex", vid))
        object.__setattr__(self, "_geometry", _resolve_geometry(self))

    def __eq__(self, other):
        if not isinstance(other, Layout):
            return NotImplemented
        return (
            set(self.vertices) == set(other.vertices)
            and all(np.array_equal(self.vertices[k], other.vertices[k]) for k in self.vertices)
            and self.elements == other.elements
            and self.arms == other.arms
            and self.source == other.source
            and self.source_width == other.source_width
            and self.obstruction == other.obstruction
            and self.detectors == other.detectors
        )


@dataclass
class ShotCounts:
    """Tallies from repeated single-photon runs."""

    d1: int
    d2: int
    absorbed: int

    @property
    def total(self) -> int:
        return self.d1 + self.d2 + self.absorbed


def square_layout(arm_length: float = 1.0, momentum_magnitude: float = 1.0,
                  width: float = 0.05) -> Layout:
    """Balanced square in the xy plane, source traveling along +x.

    All four elements share the diagonal normal (1, -1, 0)/sqrt(2), which
    swaps the +x and +y directions; the polarization sits along z and is
    untouched by every reflection.
    """
    p = float(momentum_magnitude)
    if not p > 0.0:
        raise ValueError(f"momentum magnitude must be positive, got {p}")
    vertices = {"L11": (0.0, 0.0, 0.0), "L12": (arm_length, 0.0, 0.0),
                "L21": (0.0, arm_length, 0.0), "L22": (arm_length, arm_length, 0.0)}
    elements = {
        vid: OpticalElement(_EXPECTED_KINDS[vid], householder((1.0, -1.0, 0.0)))
        for vid in VERTEX_IDS
    }
    arms = {
        ("L11", "L12"): Arm(arm_length, "lower"),
        ("L11", "L21"): Arm(arm_length, "upper"),
        ("L12", "L22"): Arm(arm_length, "lower_exit"),
        ("L21", "L22"): Arm(arm_length, "upper_exit"),
    }
    source = PhotonMode(momentum=(p, 0.0, 0.0), polarization=(0.0, 0.0, 1.0))
    return Layout(vertices=vertices, elements=elements, arms=arms,
                  source=source, source_width=width)


def with_obstruction(layout: Layout, arm: str, efficiency: float = 1.0) -> Layout:
    """New layout with an absorber on the named input-side arm.

    The original layout is left untouched. The arm must be one of the two
    arms leaving L11; anything else is a configuration error.
    """
    return replace(layout, obstruction=Obstruction(arm=arm, efficiency=efficiency))


def _unit_direction(layout: Layout, start: str, end: str) -> np.ndarray:
    d = layout.vertices[end] - layout.vertices[start]
    n = math.sqrt(d.dot(d))  # np.linalg.norm, without its overhead
    if n == 0.0:
        raise ConfigurationError(f"vertices {start} and {end} coincide", at=("vertex", end))
    return d / n


def _aligned(a: np.ndarray, b: np.ndarray) -> bool:
    # same test as np.allclose(a, b, rtol=0, atol=_DIR_TOL) at a fraction of its cost
    return all(abs(x) <= _DIR_TOL for x in (a - b).tolist())


def _apply(matrix: np.ndarray, columns: np.ndarray) -> np.ndarray:
    # 2x2 matrix times each column of a (2, n) stack, written out elementwise
    # so that a column rounds the same whatever n is (matmul does not)
    return matrix[:, :1] * columns[0] + matrix[:, 1:] * columns[1]


def _resolve_geometry(layout: Layout) -> _Geometry:
    """Check that the layout steers both branches through the square, once."""
    source = layout.source
    p_mag = source.energy
    bs1 = layout.elements["L11"]

    # t keeps the source momentum at L11, r is the branch the splitter reflects
    p_hat = source.momentum / p_mag
    directions = {v: _unit_direction(layout, "L11", v) for v in ("L12", "L21")}
    matches = [v for v, d in directions.items() if _aligned(d, p_hat)]
    if len(matches) != 1:
        raise ConfigurationError(
            "source momentum must point along exactly one arm leaving L11; arm "
            f"directions are {directions['L12']} and {directions['L21']}", at=("source", None))
    t_vertex = matches[0]
    r_vertex = "L21" if t_vertex == "L12" else "L12"

    reflected_mode = reflect_mode(bs1.reflection, source)
    if not _aligned(reflected_mode.momentum / p_mag, directions[r_vertex]):
        raise ConfigurationError(
            "beamsplitter normal at L11 does not steer the reflected branch "
            f"along the arm toward {r_vertex}", at=("element", "L11"))
    routing = ((t_vertex, source), (r_vertex, reflected_mode))

    # branch envelopes sit at the midpoints of the two input-side arms
    packets = tuple(GaussianPacket(0.5 * (layout.vertices["L11"] + layout.vertices[vertex]),
                                   layout.source_width, mode) for vertex, mode in routing)

    exit_momenta = []
    for vertex, mode in routing:
        k = layout.elements[vertex].reflection.matrix @ mode.momentum
        if not _aligned(k / p_mag, _unit_direction(layout, vertex, "L22")):
            raise ConfigurationError(f"mirror at {vertex} does not steer its branch "
                                     "along the arm toward L22", at=("element", vertex))
        exit_momenta.append(k)
    # the mirrors swap ports, so r reaches L22 on u and t on v
    k_v, k_u = exit_momenta
    miss = layout.elements["L22"].reflection.matrix @ k_v - k_u
    if math.sqrt(miss.dot(miss)) > _DIR_TOL * p_mag:
        raise ConfigurationError(
            "branches reach L22 with momenta the beamsplitter cannot merge "
            "into shared output ports", at=("element", "L22"))

    order = ["ab".index(layout.detectors[d]) for d in ("D1", "D2")]
    # both mirrors have the same angle, so one port matrix acts on (t, r)
    arrays = (port_matrix(bs1), port_matrix(layout.elements[t_vertex]),
              port_matrix(layout.elements["L22"])[order], np.array([k_u, k_v])[order])
    return _Geometry((t_vertex, r_vertex), packets, *map(_read_only, arrays), p_mag)


def _transfer(layout: Layout, extra_lower: np.ndarray, locality_tolerance: float):
    """Evaluate the port amplitudes of a built layout.

    extra_lower holds extra lengths added to the L11->L12 arm. Returns the
    (2, n) amplitudes at D1 and D2, one column per extra length, the
    momenta arriving at D1 and D2, and the absorber event, if any.
    """
    geometry = layout._geometry
    first, second = geometry.packets
    if not locality_check(first, second, locality_tolerance):
        raise ConfigurationError(
            f"branch packets overlap {packet_overlap(first, second):.3e} at width "
            f"{layout.source_width}; treating the branches as independently "
            "localized needs arm separations well beyond the packet width"
        )

    lengths = [layout.arms[("L11", vertex)].length + (extra_lower if vertex == "L12" else 0.0)
               + layout.arms[(vertex, "L22")].length for vertex in geometry.routing]
    l_min = np.minimum(*lengths)
    columns = []
    event = None
    obstruction = layout.obstruction
    for vertex, packet, amplitude, length in zip(geometry.routing, geometry.packets,
                                                 geometry.split[:, 0], lengths):
        label = layout.arms[("L11", vertex)].label
        if obstruction is not None and obstruction.arm == label:
            event = InteractionEvent(label, packet.center.copy(),
                                     float(obstruction.efficiency * abs(amplitude) ** 2))
            amplitude *= math.sqrt(1.0 - obstruction.efficiency)
        # quote amplitudes relative to free flight over the shortest path
        columns.append(amplitude * np.exp(1j * geometry.p_mag * (length - l_min)))
    out = _apply(geometry.merge, _apply(geometry.mirror, np.array(columns)))
    return out, geometry.momenta.copy(), event


def propagate_analytic(layout: Layout, locality_tolerance: float = 1e-6) -> DetectionReport:
    """Exact single-photon propagation of a layout.

    Certifies branch locality at the given tolerance (the layout checked
    its steering when it was built), and returns probabilities that sum
    to one with the absorbed weight.
    """
    amplitudes, momenta, event = _transfer(layout, np.zeros(1), locality_tolerance)
    p_d1, p_d2 = np.abs(amplitudes[:, 0]) ** 2
    return DetectionReport(
        p_d1=float(p_d1),
        p_d2=float(p_d2),
        p_absorbed=0.0 if event is None else event.absorbed_weight,
        momentum_d1=momenta[0],
        momentum_d2=momenta[1],
        amplitude_d1=complex(amplitudes[0, 0]),
        event=event,
    )


def fringe_scan(layout: Layout, mismatch_range, steps: int,
                locality_tolerance: float = 1e-6) -> np.ndarray:
    """Sweep an extra length on the L11->L12 arm and tabulate port powers.

    Returns an array of rows (delta_l, p_d1, p_d2). For the balanced
    square this traces p_d1 = cos^2(|p| delta_l / 2). A layout holding an
    obstruction cannot show clean fringes, so that is rejected.
    """
    if layout.obstruction is not None:
        raise ConfigurationError(
            "fringe scan needs an unobstructed interferometer; remove the absorber first"
        )
    steps = integer(steps, "steps")
    if steps < 2:
        raise ValueError(f"a fringe scan needs at least 2 steps, got {steps}")
    lo, hi = (float(x) for x in mismatch_range)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("mismatch range must be finite")
    delta_l = np.linspace(lo, hi, steps)
    amplitudes, _, _ = _transfer(layout, delta_l, locality_tolerance)
    return np.column_stack((delta_l, (np.abs(amplitudes) ** 2).T))


def _sample_batches(layout: Layout, n_shots: int, seed: int,
                    batch_size: int) -> list[tuple[int, ShotCounts]]:
    """The rows of `shot_batches`, drawing SHOT_CHUNK shots' words at a time.

    One Philox stream serves the whole call, so memory stays bounded
    whatever the batch size; a batch that spans windows collects its
    counts from each of them. `run_shots` calls this rather than
    `shot_batches`, so replacing either public function leaves the other
    intact.
    """
    n_shots = integer(n_shots, "shot count")
    if n_shots < 1:
        raise ValueError(f"shot count must be positive, got {n_shots}")
    batch_size = integer(batch_size, "batch size")
    if batch_size < 1:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    seed = integer(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit key in [0, 2**64), got {seed}")
    report = propagate_analytic(layout)
    starts = np.arange(0, n_shots, batch_size)
    below = np.zeros((2, len(starts)), dtype=np.int64)
    # for a 53-bit k, k * 2**-53 < t exactly when k < L = ceil(t * 2**53), and
    # for a word w, k = w >> 11 < L exactly when w <= L * 2**11 - 1, so words
    # are compared unshifted; L = 0 admits no word and is not compared
    cuts = []
    for row, t in zip(below, (report.p_d1, report.p_d1 + report.p_d2)):
        limit = min(math.ceil(t * 2.0**53), 2**53)
        if limit:
            cuts.append((row, np.uint64((limit << 11) - 1)))
    words = np.random.Philox(key=seed)
    for start in range(0, n_shots, SHOT_CHUNK):
        stop = min(start + SHOT_CHUNK, n_shots)
        raw = words.random_raw(stop - start)
        first, last = start // batch_size, (stop - 1) // batch_size + 1
        for row, cut in cuts:
            if last - first == 1:  # always so for run_shots
                row[first] += np.count_nonzero(raw <= cut)
            else:
                # the first batch may have begun in an earlier window
                row[first:last] += np.add.reduceat(
                    raw <= cut, np.maximum(starts[first:last] - start, 0))
    sizes = np.minimum(batch_size, n_shots - starts).tolist()
    return [(start, ShotCounts(d1, d12 - d1, size - d12))
            for start, d1, d12, size in zip(starts.tolist(), *below.tolist(), sizes)]


def shot_batches(layout: Layout, n_shots: int, seed: int,
                 batch_size: int) -> list[tuple[int, ShotCounts]]:
    """Counts per batch of shots, as (start index, counts) rows.

    Shot s reads word s of the 64-bit output stream of a Philox4x64-10
    generator keyed by the seed, that is word s mod 4 of counter block
    s // 4, so the outcome of every shot is fixed by (seed, s) alone. Its
    top 53 bits k give u = k * 2**-53: the photon reaches D1 when
    u < p_d1, D2 when p_d1 <= u < p_d1 + p_d2, and is absorbed otherwise.
    The seed is the 64-bit Philox key itself and must lie in [0, 2**64).
    Splitting the same run into different batch sizes permutes nothing:
    concatenating rows reproduces `run_shots` exactly.
    """
    return _sample_batches(layout, n_shots, seed, batch_size)


def run_shots(layout: Layout, n_shots: int, seed: int) -> ShotCounts:
    """Monte Carlo detector tallies for repeated single-photon runs.

    Outcomes follow the exact probabilities of `propagate_analytic` via a
    counter-based generator; see `shot_batches` for the per-shot scheme.
    The tallies are the one batch that holds every shot.
    """
    return _sample_batches(layout, n_shots, seed, n_shots)[0][1]
