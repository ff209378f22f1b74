"""Hyperparameter axes with neighbor stepping, plus the mutation-probability grid.

Axes are data, not code: the engine loads an axis table from a line-oriented
file (``name | v1,v2,...,vk | default_index``) and the rest of the system only
ever sees ordered value sequences. Two tables ship with the package:
``table1`` (the canonical space, image resolutions 224/384) and ``desk`` (same
space with the resolution axis remapped to 16/32 for small-scale runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .rng import Rng

RESOLUTION_AXIS = "resolution"

MU_STEP = 0.02
MU_INIT = 0.20
MU_GRID: tuple[float, ...] = tuple(round(MU_STEP * i, 2) for i in range(1, 16))


class SpaceError(ValueError):
    pass


@dataclass(frozen=True)
class HparamAxis:
    """One tunable axis: an ordered, duplicate-free sequence of valid values."""

    name: str
    values: tuple
    default_index: int

    def __post_init__(self):
        if not self.values:
            raise SpaceError(f"axis {self.name!r} has no values")
        kinds = {type(v) for v in self.values}
        if kinds == {bool}:
            ordered = all(not a and b for a, b in zip(self.values, self.values[1:]))
        elif kinds <= {int, float}:
            ordered = all(a < b for a, b in zip(self.values, self.values[1:]))
        else:
            raise SpaceError(f"axis {self.name!r} mixes value types: {kinds}")
        if not ordered:
            raise SpaceError(f"axis {self.name!r} values must be strictly increasing")
        if not 0 <= self.default_index < len(self.values):
            raise SpaceError(f"axis {self.name!r} default index out of range")

    @property
    def default(self):
        return self.values[self.default_index]

    def index_of(self, value) -> int:
        for i, v in enumerate(self.values):
            if v == value and type(v) is type(value):
                return i
        raise SpaceError(f"value {value!r} is not in axis {self.name!r}")

    def neighbors(self, value) -> tuple:
        """Adjacent members of the sequence: one at the edges, two elsewhere."""
        i = self.index_of(value)
        out = []
        if i > 0:
            out.append(self.values[i - 1])
        if i < len(self.values) - 1:
            out.append(self.values[i + 1])
        return tuple(out)


class SearchSpace:
    """An ordered collection of axes; axis order is the file order."""

    def __init__(self, axes: list[HparamAxis]):
        if not axes:
            raise SpaceError("search space needs at least one axis")
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise SpaceError("duplicate axis names")
        self.axes: dict[str, HparamAxis] = {a.name: a for a in axes}

    def axis(self, name: str) -> HparamAxis:
        try:
            return self.axes[name]
        except KeyError:
            raise SpaceError(f"unknown axis {name!r}") from None

    def axis_names(self) -> list[str]:
        return list(self.axes)

    def default_config(self) -> dict:
        return {name: axis.default for name, axis in self.axes.items()}

    def validate_config(self, config: dict) -> None:
        if set(config) != set(self.axes):
            missing = set(self.axes) - set(config)
            extra = set(config) - set(self.axes)
            raise SpaceError(f"config axes mismatch (missing={missing}, extra={extra})")
        for name, value in config.items():
            self.axes[name].index_of(value)

    def neighbor_values(self, name: str, value) -> tuple:
        return self.axis(name).neighbors(value)

    def step_value(self, name: str, value, rng: Rng):
        """Uniform choice among the value's neighbors on the named axis."""
        options = self.axis(name).neighbors(value)
        return rng.choice(options)


MU_AXIS = HparamAxis("mu", MU_GRID, MU_GRID.index(MU_INIT))


def mu_neighbors(value: float) -> tuple[float, ...]:
    """Adjacent members of the mutation-probability grid."""
    return MU_AXIS.neighbors(value)


def on_mu_grid(value: float) -> bool:
    return value in MU_AXIS.values


def parse_value(token: str):
    token = token.strip()
    if token == "True":
        return True
    if token == "False":
        return False
    try:
        if "." not in token and "e" not in token and "E" not in token:
            return int(token)
        return float(token)
    except ValueError:
        raise SpaceError(f"cannot parse axis value {token!r}") from None


def format_value(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, int):
        return str(value)
    return repr(value)


def parse_axis_line(line: str) -> HparamAxis:
    parts = [p.strip() for p in line.split("|")]
    if len(parts) != 3:
        raise SpaceError(f"malformed axis line: {line!r}")
    name, values_text, default_text = parts
    if not name or any(ch.isspace() for ch in name):
        raise SpaceError(f"axis name must be whitespace-free: {name!r}")
    values = tuple(parse_value(tok) for tok in values_text.split(","))
    try:
        default_index = int(default_text)
    except ValueError:
        raise SpaceError(f"malformed default index in: {line!r}") from None
    return HparamAxis(name=name, values=values, default_index=default_index)


def format_axis_line(axis: HparamAxis) -> str:
    values = ",".join(format_value(v) for v in axis.values)
    return f"{axis.name} | {values} | {axis.default_index}"


def parse_space(text: str) -> SearchSpace:
    axes = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        axes.append(parse_axis_line(line))
    return SearchSpace(axes)


def load_space(path) -> SearchSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_space(fh.read())


def load_builtin_space(name: str) -> SearchSpace:
    """Load a table shipped with the package (``table1`` or ``desk``)."""
    ref = resources.files("evograft").joinpath(f"spaces/{name}.axes")
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SpaceError(f"no builtin space named {name!r}") from None
    return parse_space(text)
