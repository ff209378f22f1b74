import math

import pytest

from evograft.rng import Rng
from evograft.search_space import (MU_GRID, MU_INIT, HparamAxis, SpaceError,
                                   format_axis_line, load_builtin_space, mu_neighbors,
                                   on_mu_grid, parse_axis_line, parse_space)

CANONICAL = {
    "learning_rate": ([0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01,
                       0.02, 0.05, 0.1, 0.2, 0.5], 0.01),
    "warmup_ratio": ([0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3], 0.1),
    "momentum": ([0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.98, 0.99], 0.9),
    "nesterov": ([False, True], False),
    "crop_area_min": ([0.05, 0.5, 0.95, 1.0], 1.0),
    "crop_aspect_min": ([0.5, 0.75, 1.0], 1.0),
    "flip": ([False, True], False),
    "brightness_delta": ([0.0, 0.01, 0.02, 0.05, 0.1, 0.2], 0.0),
    "contrast_delta": ([0.0, 0.01, 0.02, 0.05, 0.1, 0.2], 0.0),
    "saturation_delta": ([0.0, 0.01, 0.02, 0.05, 0.1, 0.2], 0.0),
    "hue_delta": ([0.0, 0.01, 0.02, 0.05, 0.1, 0.2], 0.0),
    "quality_delta": ([0.0, 0.01, 0.02, 0.05, 0.1, 0.2], 0.0),
    "resolution": ([224, 384], 384),
}


def test_canonical_table_contents(table1_space):
    assert table1_space.axis_names() == list(CANONICAL)
    for name, (values, default) in CANONICAL.items():
        axis = table1_space.axis(name)
        assert list(axis.values) == values
        assert axis.default == default


def test_desk_profile_only_remaps_resolution(desk_space, table1_space):
    for name in table1_space.axis_names():
        if name == "resolution":
            assert list(desk_space.axis(name).values) == [16, 32]
            assert desk_space.axis(name).default == 32
        else:
            assert desk_space.axis(name).values == table1_space.axis(name).values


def test_default_config_disables_preprocessing(table1_space):
    cfg = table1_space.default_config()
    assert cfg["learning_rate"] == 0.01
    assert cfg["flip"] is False
    assert cfg["crop_area_min"] == 1.0
    for axis in ("brightness_delta", "contrast_delta", "saturation_delta",
                 "hue_delta", "quality_delta"):
        assert cfg[axis] == 0.0
    table1_space.validate_config(cfg)


def test_neighbor_values(table1_space):
    assert set(table1_space.axis("learning_rate").neighbors(0.01)) == {0.005, 0.02}
    assert set(table1_space.axis("warmup_ratio").neighbors(0.0)) == {0.01}
    assert set(table1_space.axis("resolution").neighbors(384)) == {224}
    with pytest.raises(SpaceError):
        table1_space.axis("momentum").neighbors(0.999)


def test_step_value_single_neighbor_cases(table1_space):
    rng = Rng(0, "step")
    assert table1_space.step_value("nesterov", False, rng) is True
    assert table1_space.step_value("resolution", 224, rng) == 384


def test_step_value_frequency_split():
    # momentum 0.9 has neighbors 0.85 and 0.95; each should appear half the time
    space = load_builtin_space("table1")
    rng = Rng(77, "freq")
    n = 10_000
    hits = sum(1 for _ in range(n) if space.step_value("momentum", 0.9, rng) == 0.85)
    assert abs(hits / n - 0.5) < 0.02


def test_stepping_is_closed_over_every_axis(table1_space):
    rng = Rng(5, "closure")
    for name in table1_space.axis_names():
        axis = table1_space.axis(name)
        value = axis.default
        for _ in range(200):
            value = table1_space.step_value(name, value, rng)
            assert value in axis.values


def test_step_always_returns_a_neighbor(table1_space):
    rng = Rng(6, "neigh")
    for name in table1_space.axis_names():
        axis = table1_space.axis(name)
        for value in axis.values:
            assert table1_space.step_value(name, value, rng) in axis.neighbors(value)


def test_mu_grid_definition():
    assert MU_GRID[0] == 0.02 and MU_GRID[-1] == 0.30
    assert len(MU_GRID) == 15
    assert all(abs(b - a - 0.02) < 1e-12 for a, b in zip(MU_GRID, MU_GRID[1:]))
    assert on_mu_grid(MU_INIT)


def test_mu_neighbors():
    assert set(mu_neighbors(0.20)) == {0.18, 0.22}
    assert mu_neighbors(0.02) == (0.04,)
    assert mu_neighbors(0.30) == (0.28,)
    with pytest.raises(SpaceError):
        mu_neighbors(0.03)


def test_mu_stepping_stays_on_grid():
    rng = Rng(8, "mu")
    value = MU_INIT
    for _ in range(1000):
        value = rng.choice(mu_neighbors(value))
        assert on_mu_grid(value)


def test_axis_line_round_trip(table1_space):
    for axis in table1_space.axes.values():
        assert parse_axis_line(format_axis_line(axis)) == axis


def test_axis_validation_rejects_bad_tables():
    with pytest.raises(SpaceError):
        parse_axis_line("bad | 3,2,1 | 0")
    with pytest.raises(SpaceError):
        parse_axis_line("dup | 1,1,2 | 0")
    with pytest.raises(SpaceError):
        parse_axis_line("oob | 1,2 | 5")
    with pytest.raises(SpaceError):
        parse_space("")
    with pytest.raises(SpaceError, match="axis 'empty' has no values"):
        HparamAxis("empty", (), 0)
    with pytest.raises(SpaceError, match="axis 'mix' mixes value types"):
        parse_axis_line("mix | 1,True | 0")
    with pytest.raises(SpaceError, match="axis name must be whitespace-free: 'two words'"):
        parse_axis_line("two words | 1,2 | 0")
    with pytest.raises(SpaceError, match="no builtin space named 'nope'"):
        load_builtin_space("nope")


def test_boolean_axes_are_two_element_sequences(table1_space):
    for name in ("nesterov", "flip"):
        assert list(table1_space.axis(name).values) == [False, True]


def test_validate_config_rejects_missing_and_foreign_values(table1_space):
    cfg = table1_space.default_config()
    cfg["learning_rate"] = 0.015
    with pytest.raises(SpaceError):
        table1_space.validate_config(cfg)
    cfg = table1_space.default_config()
    del cfg["flip"]
    with pytest.raises(SpaceError):
        table1_space.validate_config(cfg)


def test_mu_grid_values_are_exact_two_decimal_floats():
    for g in MU_GRID:
        assert math.isclose(g, round(g, 2), rel_tol=0, abs_tol=0)
