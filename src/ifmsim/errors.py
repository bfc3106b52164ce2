"""Exception types and the integer-argument check shared across the package."""

import operator

import numpy as np


class ConfigurationError(ValueError):
    """Raised when a layout or run configuration cannot be simulated as given.

    When one piece of a layout is at fault, missing or not, `at` names
    it: ("vertex", vertex id) and ("element", vertex id) for the vertex
    position and the element's normal, ("element vertex", vertex id) for
    the vertex an element is placed at, ("arm", (start, end)) and
    ("arm label", (start, end)) for an arm and its label, ("bomb", None)
    for the obstruction's arm label, ("detector", name) for a detector's
    port, and ("source", None) and ("width", None) for the source
    momentum and its packet width. Otherwise (a fault of the layout as a
    whole) it is None.
    """

    def __init__(self, *args, at=None):
        super().__init__(*args)
        self.at = at


class DivergenceError(ValueError):
    """Raised when a requested quantity diverges for the given parameters.

    Typical triggers: relative velocity beta reaching 1, or a soft-photon
    energy window whose lower edge is zero (the emitted-photon count grows
    without bound as the window opens toward zero energy).
    """


def integer(value, name: str) -> int:
    """value as an int; a float or a bool is refused rather than truncated.

    Python and numpy integers are accepted (numpy 1.x would index a
    numpy bool with a warning, so it is refused with bool). The
    ValueError names the parameter.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {type(value).__name__} {value!r}")
