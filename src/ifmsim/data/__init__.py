"""Bundled golden layout files and JSON output schemas."""

from importlib import resources

BUNDLED_LAYOUTS = ("mzi.ifm", "mzi_bomb.ifm")


def data_path(name: str):
    """Traversable handle for a bundled data file."""
    return resources.files(__package__).joinpath(name)


def read_text(name: str) -> str:
    return data_path(name).read_text(encoding="utf-8")
