"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Raised when a layout or run configuration cannot be simulated as given.

    When a layout's geometry is at fault, `at` names the directive:
    ("element", vertex id), ("vertex", vertex id) or ("source", None).
    Otherwise it is None.
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
