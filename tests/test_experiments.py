import errno
import hashlib
import importlib
import math
import os
import pickle
import re
import runpy
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from oirsvlc import (
    ConfigError,
    DegenerateGeometryError,
    ExperimentConfig,
    OirsGrid,
    OirsVlcError,
    SceneConfig,
    ShapeError,
    SingularSystemError,
    ZeroReferenceError,
    build_csi_tensor,
    interpolate_full,
    mmse_estimate,
    dumps,
    load_config,
    loads,
    nmse,
    nmse_db,
    run_coherence,
    run_fig4,
    run_noise_sweep,
    run_overhead_report,
    taylor_coeffs,
    trial_statistics,
)
from oirsvlc import estimator, experiments
from oirsvlc.cli import main as cli_main
from oirsvlc.experiments import (
    config_hash,
    resolve_output_dir,
    write_coherence_csv,
    write_fig4_csv,
    write_noise_sweep_csv,
    write_overhead_csv,
)

from channel_oracle import powered_statistics

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ROOT / "bench" / "configs" / "smoke.cfg"   # the fast config of criterion 9
FAST = load_config(SMOKE)


def test_nmse_identities():
    # at 1e-200 the plain sum of squares underflows to 0, at 1e200 it overflows
    for scale in (1.0, 1e-200, 1e200):
        truth = np.arange(1.0, 7.0).reshape(2, 3) * scale
        assert nmse(truth, truth) == 0.0
        assert nmse(np.zeros_like(truth), truth) == pytest.approx(1.0, rel=1e-15)
        assert nmse(2 * truth, truth) == pytest.approx(1.0, rel=1e-15)


def test_nmse_errors():
    with pytest.raises(ZeroReferenceError):
        nmse(np.ones((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        nmse(np.ones((2, 2)), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        nmse(np.ones(4), np.ones((2, 2)))
    with pytest.raises(ShapeError):         # one trial at a time
        nmse(np.ones((3, 2, 2)), np.ones((2, 2)))
    with pytest.raises(OirsVlcError, match="exceeds the float range"):
        nmse(np.full(4, 1e200), np.ones(4))


_NMSE_ENTRY = st.floats(-1e3, 1e3, allow_subnormal=False)
# a truth and an estimate of one shape, 0-d included
_NMSE_PAIR = hnp.array_shapes(min_dims=0, max_dims=3, max_side=8).flatmap(
    lambda shape: st.tuples(*[hnp.arrays(float, shape, elements=_NMSE_ENTRY)] * 2))


@example(pair=(np.array(28.917546928863203), np.array(170.54570591764423)), scale=1.0)
@settings(max_examples=200, deadline=None)
@given(pair=_NMSE_PAIR, scale=st.sampled_from((1.0, 1e-200, 1e200)))
def test_nmse_keeps_the_bits_of_the_plain_formula(pair, scale):
    # the CSV cells are these bits, so however nmse holds its temporaries it
    # equals the two-temporary formula exactly. Where the truth's sum of
    # squares leaves the normal range (always at 1e-200, mostly at 1e200) the
    # formula runs on both tensors divided by max |truth|. A 0-d pair times
    # `scale` is two numpy scalars, whose ** 2 calls libm pow and can miss
    # the exact square by a bit, so the formula runs on arrays of one or more dims
    truth, est = (x * scale for x in pair)
    assume(np.any(truth))
    with np.errstate(over="ignore", under="ignore"):
        e, r = np.atleast_1d(est, truth)
        if not np.finfo(float).tiny <= float(np.sum(r ** 2)) < np.inf:
            scaled = float(np.max(np.abs(r)))
            e, r = e / scaled, r / scaled
        expected = float(np.sum((e - r) ** 2)) / float(np.sum(r ** 2))
    assume(np.isfinite(expected))
    assert nmse(est, truth) == expected


def test_nmse_db_floor():
    assert nmse_db(0.0) == -300.0
    assert nmse_db(1e-40) == -300.0
    assert nmse_db(0.1) == pytest.approx(-10.0)


def test_empty_config_is_default_desk_setup():
    cfg = loads("")
    assert cfg == ExperimentConfig()
    assert cfg.grid_rows == cfg.grid_cols == 24
    assert cfg.pilot_slots == 100
    assert len(cfg.led_positions) == 2 and len(cfg.pd_positions) == 2
    assert cfg.grid_reflectivity == 0.9
    scene = cfg.scene
    assert scene.n_leds == 2 and scene.n_pds == 2
    assert scene.grid.n_elements == 576


# the end of a study-link rejection, which names no key of its own
_STUDY_LINK = ("the study link is set by coherence.led, coherence.element, coherence.pd, "
               "scene.led_normal and scene.pd_normal")


# the keys listed at the end of the messages of checks that read several keys
_GRID_IN_ROOM = ("scene.grid.center, scene.grid.rows, scene.grid.cols, scene.grid.pitch_m and "
                 "scene.room")
_ON_APERTURE = (", scene.grid.center, scene.grid.rows, scene.grid.cols, scene.grid.pitch_m and "
                "scene.grid.element_size_m")
_LAYOUT = ("sweep.spacings, scene.grid.rows, scene.grid.cols, scene.led_positions and "
           "scene.pd_positions")
_DARK = ("scene.fov_semi_angle_rad, coherence.pd, coherence.element and scene.pd_normal")
_BEAM = ("scene.lambertian_order, scene.led_normal, coherence.led and coherence.element")


def test_config_rejects_unknown_and_invalid_keys():
    with pytest.raises(ConfigError, match="nonsense"):
        loads("nonsense = 1")
    with pytest.raises(ConfigError, match="sweep.sigmas"):
        loads("sweep.sigmas = 0.1, -0.5")
    with pytest.raises(ConfigError, match="sweep.trials"):
        loads("sweep.trials = 0")
    with pytest.raises(ConfigError, match="pilots.slots"):
        loads("pilots.slots = abc")
    with pytest.raises(ConfigError, match=r"^scene\.grid\.pitch_m: not a number: 'abc'$"):
        loads("scene.grid.pitch_m = abc")
    with pytest.raises(ConfigError, match="duplicate"):
        loads("seed = 1\nseed = 2")
    with pytest.raises(ConfigError, match="key = value"):
        loads("just some words")
    # each of these used to pass loads() and fail only mid-run. A row with a
    # third item is a check that reads several keys: it names one, and its
    # message ends by listing every key it reads
    table = [
        ("sweep.sigmas = 0, nan", "sweep.sigmas"),
        ("pilots.power = inf", "pilots.power"),
        ("scene.room = 4, inf, 3", "scene.room"),
        ("scene.grid.pitch_m = -1", "scene.grid.pitch_m"),
        ("scene.grid.element_size_m = 0.2", "scene.grid.element_size_m",
         "scene.grid.element_size_m and scene.grid.pitch_m"),
        ("pilots.slots = 1", "pilots.slots", "pilots.slots and scene.led_positions"),
        ("sweep.spacings = 30", "sweep.spacings", _LAYOUT),
        ("sweep.spacings = 0", "sweep.spacings"),
        # the baseline always runs first, and a repeat solved its row again
        ("sweep.spacings = 1, 2", "sweep.spacings"),
        ("sweep.spacings = 2, 3, 2", "sweep.spacings"),
        ("scene.grid.rows = 1\nscene.grid.cols = 3", "sweep.spacings", _LAYOUT),
        ("scene.grid.rows = 0", "scene.grid.rows"),
        ("scene.grid.cols = 0", "scene.grid.cols"),
        ("scene.room = 4, -4, 3", "scene.room"),
        ("scene.led_positions = 1, 2, 3.5", "scene.led_positions",
         "scene.led_positions and scene.room"),
        ("scene.pd_positions = 1.8, 2, 0; 2.2, 4.5, 0", "scene.pd_positions",
         "scene.pd_positions and scene.room"),
        ("scene.grid.center = 2, -0.5, 1.5", "scene.grid.center", _GRID_IN_ROOM),
        ("scene.lambertian_order = 0.5", "scene.lambertian_order"),
        ("scene.fov_semi_angle_rad = 3", "scene.fov_semi_angle_rad"),
        ("scene.fov_semi_angle_rad = 0", "scene.fov_semi_angle_rad"),
        ("coherence.led = 1, 5, 3", "coherence.led", "coherence.led and scene.room"),
        ("coherence.pd = 2, 2, -1", "coherence.pd", "coherence.pd and scene.room"),
        ("coherence.element = 9, 9, 9", "coherence.element", "coherence.element and scene.room"),
        ("coherence.element = 1, 2, 3", "coherence"),        # on the LED
        ("coherence.pd = 1, 2, 1.5", "coherence"),            # on the element
        ("scene.led_normal = 0, 0, 1", "coherence"),          # faces away from it
        # on an element center, and on an aperture off the center
        ("scene.led_positions = 2.05, 0, 1.55; 2.1, 2, 3\ntruth.model = point",
         "scene.led_positions", "scene.led_positions" + _ON_APERTURE),
        ("scene.pd_positions = 1.8, 2, 0; 1.96, 0, 1.46", "scene.pd_positions",
         "scene.pd_positions" + _ON_APERTURE),
        ("scene.gain_mode = absolute", "scene.gain_mode"),
        ("scene.pd_side_m = 0", "scene.pd_side_m"),
        ("scene.led_normal = 0, 0, -2", "scene.led_normal"),
        ("seed = -1", "seed"),
        ("scene.grid.reflectivity = 0", "scene.grid.reflectivity"),
        ("scene.grid.reflectivity = 1.5", "scene.grid.reflectivity"),
        ("scene.grid.center = 0.1, 0, 1.5", "scene.grid.center", _GRID_IN_ROOM),  # spills out
        ("scene.pd_normal = 0, 0.6, 0.6", "scene.pd_normal"),
        ("coherence.xi_c = 0", "coherence.xi_c"),
        ("coherence.angular_samples = 7", "coherence.angular_samples"),
        ("truth.model = exact", "truth.model"),
        ("truth.quadrature_order = 0", "truth.quadrature_order"),
        ("sweep.trials = -1", "sweep.trials"),
        ("output.dir =", "output.dir"),
        ("output.dir = a\tb", "output.dir"),          # control characters
        ("output.dir = out\x7f", "output.dir"),
        # past the pilot power's and sigma's ranges: the Gram entries P * (2p)^2
        # and the ridge term sigma^2 used to overflow, every row came out NaN,
        # or the sweep died after the truth build
        ("pilots.power = 1e160", "pilots.power"),
        ("sweep.sigmas = 0, 1e160", "sweep.sigmas"),
        # a pilot power of 1e-300 made the first cell's Gram matrix singular
        ("pilots.power = 1e-300", "pilots.power"),
        # each cell runs at sigma / p, so the default 1e-3 at p = 1e-6 is a
        # noise of 1000.0000000000001, past sigma's range; it used to load
        ("pilots.power = 1e-6", "sweep.sigmas", "sweep.sigmas and pilots.power"),
        # changed alone, each used to be named only by another key of its check
        ("scene.grid.rows = 40", "scene.grid.center", _GRID_IN_ROOM),
        ("scene.room = 2, 2, 2", "scene.led_positions", "scene.led_positions and scene.room"),
        # past the slot count's range: 10**7 slots would have asked a sweep for
        # a 23 GB pilot buffer, and 10**400 used to raise OverflowError
        ("pilots.slots = 10000000", "pilots.slots"),
        (f"pilots.slots = {10**160}", "pilots.slots"),
        (f"pilots.slots = {10**400}", "pilots.slots"),
        ("scene.grid.pitch_m = 0.01", "scene.grid.element_size_m",
         "scene.grid.element_size_m and scene.grid.pitch_m"),
        # past the coordinate range; squared in the norm, these used to
        # overflow into a RuntimeWarning
        ("scene.led_normal = 1e200, 0, 1", "scene.led_normal"),
        ("scene.pd_normal = 0, -1e300, 1e300", "scene.pd_normal"),
        ("coherence.led = 1e300, 2, 3", "coherence.led"),
        ("coherence.element = -1.7e308, 1.7e308, 1.7e308", "coherence.element"),
        # past the room's range: an end 1e170 m from the element in a room of
        # 1e200 used to overflow the leg's norm in the study link's Taylor
        # expansion, and an end at 1.7e308 a product in the aperture check
        ("scene.room = 1e200, 1e200, 1e200\ncoherence.led = 1e170, 2, 3", "scene.room"),
        ("scene.room = 1e200, 1e200, 1e200\ncoherence.pd = 1e170, 2, 0", "scene.room"),
        ("scene.room = 1.7e308, 1.7e308, 1.7e308\ncoherence.led = 1.7e308, 1.7e308, 1.7e308",
         "scene.room"),
        # one past the largest count: order^2 sub-points per element, that
        # many angles, that many trials per cell
        ("truth.quadrature_order = 65", "truth.quadrature_order"),
        ("coherence.angular_samples = 1000001", "coherence.angular_samples"),
        ("sweep.trials = 1000001", "sweep.trials"),
        # the PD's field of view misses the study link's 0.59 rad arrival: its
        # gain is 0, and d_c used to be reported for a link with no light
        ("scene.fov_semi_angle_rad = 0.3", "scene.fov_semi_angle_rad", _DARK),
        ("scene.fov_semi_angle_rad = 1e-300", "scene.fov_semi_angle_rad", _DARK),
        # inside the field of view, the beam cos(70 deg)^1000 underflows to 0:
        # the link is dark, and the field of view used to be blamed
        ("scene.lambertian_order = 1000\nscene.led_normal = 0, 0.9396926207859083, "
         "-0.3420201433256688", "scene.lambertian_order", _BEAM),
        # past the PD side's range: the gain constant rho (m + 1) pd_side^2 / (2 pi)
        # overflowed (a bare OverflowError at 1e200; NaN fig4 rows at 1e154) or
        # underflowed to 0; at 9e153 it is 2.3e307, and the sweep's NMSE squares
        # overflowed to NaN
        ("scene.gain_mode = lambertian\nscene.pd_side_m = 1e200", "scene.pd_side_m"),
        ("scene.gain_mode = lambertian\nscene.pd_side_m = 1e154", "scene.pd_side_m"),
        ("scene.gain_mode = lambertian\nscene.pd_side_m = 1e-200", "scene.pd_side_m"),
        ("scene.gain_mode = lambertian\nscene.pd_side_m = 9e153", "scene.pd_side_m"),
        # past the Lambertian order's and the pitch's ranges, these used to raise
        # a RuntimeWarning: inf times the zeros of an outer product in the study
        # link's growth-rate coefficients, and in the grid's corner centers
        ("scene.lambertian_order = 8.98846567431158e+307", "scene.lambertian_order"),
        ("scene.grid.pitch_m = 1.563211421619405e+307", "scene.grid.pitch_m"),
        # past the threshold's range: fig4 used to exit 0 with d_c_m=inf in its CSV
        ("coherence.xi_c = 1e308", "coherence.xi_c"),
    ]
    for text, key, *reads in table:
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: ") as raised:
            loads(text)
        assert str(raised.value).endswith(_STUDY_LINK) == (key == "coherence")
        assert ("; the check reads " in str(raised.value)) == bool(reads)
        assert str(raised.value).endswith(f"; the check reads {reads[0]}" if reads else "")
    # a new key fails here until the table has a row for it
    assert {key for _, key, *_ in table} >= set(experiments._SCHEMA)
    # text that loads() cannot give back: it strips values and splits lines
    for value in (" out", "out ", "out\n", "a\nb", "a\rb", "a\x85b", "a\u2028b"):
        with pytest.raises(ConfigError, match="^output.dir: "):
            ExperimentConfig(output_dir=value)


def test_constructor_and_replace_check_the_config():
    # a config made without loads() is checked as a loaded file is
    for make, key in [(lambda: replace(ExperimentConfig(), trials=0), "sweep.trials"),
                      (lambda: ExperimentConfig(pilot_slots=1), "pilots.slots"),
                      (lambda: replace(ExperimentConfig(), grid_rows=0), "scene.grid.rows")]:
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            make()
    # a count that is not an int (loads() always parses one) used to pass, or
    # fail with a bare TypeError
    for changes, key in [({"trials": 2.5}, "sweep.trials"),
                         ({"spacings": (2.5,)}, "sweep.spacings"),
                         ({"spacings": (2, True)}, "sweep.spacings"),
                         ({"pilot_slots": 100.5}, "pilots.slots"),
                         ({"angular_samples": 16.5}, "coherence.angular_samples"),
                         ({"quadrature_order": 2.5}, "truth.quadrature_order"),
                         ({"grid_rows": 24.0}, "scene.grid.rows"),
                         ({"grid_cols": 24.0}, "scene.grid.cols"),
                         ({"master_seed": 1.0}, "seed"),
                         ({"trials": True}, "sweep.trials")]:
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            ExperimentConfig(**changes)


# every declared range: its key, its ends, the changes that set a value, and
# the changes that let each end load, or None where another check refuses it
_RANGES = [
    ("truth.quadrature_order", 1, 64, lambda v: {"quadrature_order": v}, {}, {}),
    ("coherence.angular_samples", 8, 10**6, lambda v: {"angular_samples": v}, {}, {}),
    ("sweep.trials", 1, 10**6, lambda v: {"trials": v}, {}, {}),
    ("pilots.slots", 1, 10**4, lambda v: {"pilot_slots": v},
     {"led_positions": ((1.9, 2.0, 3.0),)}, {}),
    ("coherence.xi_c", 1e-6, 1.0, lambda v: {"xi_c": v}, {}, {}),
    ("scene.room", 1e-6, 1e4, lambda v: {"room": (4.0, v, 3.0)}, None, {}),
    ("scene.grid.pitch_m", 1e-6, 1e4, lambda v: {"grid_pitch": v}, {"grid_element_size": 1e-6},
     {"grid_rows": 2, "grid_cols": 2, "grid_center": (5e3, 0.0, 5e3), "room": (1e4, 4.0, 1e4),
      "spacings": (2,)}),
    ("scene.pd_side_m", 1e-6, 1e4, lambda v: {"pd_side": v, "gain_mode": "lambertian"}, {}, {}),
    ("scene.grid.reflectivity", 1e-3, 1.0, lambda v: {"grid_reflectivity": v}, {}, {}),
    ("scene.lambertian_order", 1.0, 1e3, lambda v: {"lambertian_order": v}, {}, {}),
    ("pilots.power", 1e-6, 1e6, lambda v: {"pilot_power": v}, {"sigmas": (0.0, 1e-4)}, {}),
    ("sweep.sigmas", 0.0, 1e3, lambda v: {"sigmas": (v,)}, {}, {}),
    # coordinates: an end must lie in the room as well
    ("coherence.led", -1e4, 1e4, lambda v: {"coherence_led": (v, 2.0, 3.0)}, None,
     {"room": (1e4, 4.0, 3.0)}),
    ("scene.grid.center", -1e4, 1e4, lambda v: {"grid_center": (2.0, 0.0, v)}, None, None),
]


def test_each_declared_range_accepts_its_ends_and_refuses_past_them():
    # a range accepts each end that no other check refuses, and its key refuses
    # one step past either end: one count, or one float, past it. A count is
    # bounded by the work it implies: order^2 sub-points per element, that many
    # angles, trials per cell, and a (chunk, Nt, slots) pilot buffer
    for key, lo, hi, put, *changes in _RANGES:
        for end, extra in zip((lo, hi), changes):
            if extra is not None:
                config = ExperimentConfig(**put(end) | extra)
                assert all(getattr(config, name) == value for name, value in put(end).items())
        past = [lo - 1, hi + 1, 2**70] if type(lo) is int else \
            [math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
        for value in past:
            with pytest.raises(ConfigError, match=f"^{re.escape(key)}: ") as raised:
                ExperimentConfig(**put(value))
            assert str(raised.value).endswith(f"must lie in [{lo}, {hi}]"), str(raised.value)
    assert {key for key, *_ in _RANGES} >= set(experiments._BOUNDS) - {"seed"}
    assert ExperimentConfig(master_seed=2**70).master_seed == 2**70       # a seed has no maximum
    # a study-link leg shorter than 1e-6 m has no Taylor expansion; at
    # x = 0 the leg is exactly the element's x
    study = replace(ExperimentConfig().single_link, led_positions=((0.0, 2.0, 3.0),),
                    led_normal=(1.0, 0.0, 0.0))

    def at(x):
        return replace(study, grid=replace(study.grid, center=(x, 2.0, 3.0)))
    taylor_coeffs(at(1e-6))
    with pytest.raises(DegenerateGeometryError, match="within 1e-06 m of the LED"):
        taylor_coeffs(at(math.nextafter(1e-6, 0.0)))


_GRID = dict(center=(2.0, 0.0, 1.5), axis_u=(1.0, 0.0, 0.0), axis_v=(0.0, 0.0, 1.0), rows=4,
             cols=4, element_size=0.05, element_pitch=0.1)
_ONE = dict(_GRID, rows=1, cols=1)


# one call per rejection of OirsGrid and SceneConfig, and the fields it
# reads, the rejected field first; a scene change is applied to the default
# MIMO scene, a grid change to a 4 x 4 grid on its wall
_REJECTIONS = [
    ({"axis_u": (2.0, 0.0, 0.0)}, ("axis_u",)),
    ({"axis_v": (0.0, 0.0, 2.0)}, ("axis_v",)),
    ({"axis_v": (1.0, 0.0, 0.0)}, ("axis_u", "axis_v")),
    ({"rows": 0}, ("rows",)),
    ({"cols": 0}, ("cols",)),
    ({"element_pitch": 0.0}, ("element_pitch",)),
    ({"element_size": 0.2}, ("element_size", "element_pitch")),
    ({"room": (4.0, 0.0, 3.0)}, ("room",)),
    ({"led_positions": np.zeros((0, 3))}, ("led_positions",)),
    ({"pd_positions": np.zeros((1, 2))}, ("pd_positions",)),
    ({"led_normal": (0.0, 0.0, 2.0)}, ("led_normal",)),
    ({"pd_normal": (0.0, 0.0, 0.5)}, ("pd_normal",)),
    ({"lambertian_order": 0.5}, ("lambertian_order",)),
    ({"fov_semi_angle": 0.0}, ("fov_semi_angle",)),
    ({"led_positions": ((1.0, 5.0, 3.0),)}, ("led_positions", "room")),
    ({"pd_positions": ((1.0, 2.0, -1.0),)}, ("pd_positions", "room")),
    ({"grid": _GRID | {"center": (0.1, 0.0, 1.5)}},
     ("center", "axis_u", "axis_v", "rows", "cols", "element_pitch", "room")),
    ({"grid": _ONE | {"center": (2.0, -0.5, 1.5)}}, ("center", "room")),      # its corner
    ({"led_positions": ((2.0, 0.0, 1.5),), "grid": _GRID | {"center": (2.05, 0.0, 1.55)}},
     ("led_positions", "center", "axis_u", "axis_v", "rows", "cols", "element_pitch",
      "element_size")),
    ({"pd_positions": ((2.0, 0.0, 1.5),), "grid": _GRID | {"center": (2.05, 0.0, 1.55)}},
     ("pd_positions", "center", "axis_u", "axis_v", "rows", "cols", "element_pitch",
      "element_size")),
]


def _rejected(changes):
    """The error of the default MIMO scene (or of a 4 x 4 grid) with `changes`."""
    scene = ExperimentConfig().scene
    grid = {k: v for k, v in changes.items() if k in _GRID}
    try:
        if grid:
            OirsGrid(**_GRID | grid)
        else:
            replace(scene, **{k: OirsGrid(**v) if k == "grid" else v for k, v in changes.items()})
    except (ValueError, OirsVlcError) as exc:
        return exc
    raise AssertionError(f"{changes} was accepted")


def test_every_field_a_scene_check_reads_has_a_key_in_both_scene_maps():
    # a scene rejection carries the fields its check read; each field of
    # either scene type has an entry in both maps (a key, or None where the
    # build places it), so no new check can reach a field that names no key
    names = {f.name for cls in (OirsGrid, SceneConfig) for f in fields(cls) if f.init} - {"grid"}
    for keys in (experiments._MIMO, {**experiments._MIMO, **experiments._STUDY}):
        assert set(keys) == names
        assert {key for key in keys.values() if key} <= set(experiments._SCHEMA)
    for changes, reads in _REJECTIONS:
        exc = _rejected(changes)
        assert exc.fields == reads, (changes, exc)
        # a forked child of the sweep sends its exception back through pickle
        again = pickle.loads(pickle.dumps(exc))
        assert (type(again), str(again), again.fields) == (type(exc), str(exc), exc.fields)
    assert {reads[0] for _, reads in _REJECTIONS} == names       # every field has a check


# each key that sets a MIMO scene field: the SceneConfig or OirsGrid field it
# sets, and a valid value other than its default
_MIMO_KEYS = {
    "scene.room": ("room", "4, 4.5, 3"),
    "scene.grid.rows": ("rows", "20"),
    "scene.grid.cols": ("cols", "20"),
    "scene.grid.center": ("center", "2, 0, 1.4"),
    "scene.grid.pitch_m": ("element_pitch", "0.09"),
    "scene.grid.element_size_m": ("element_size", "0.04"),
    "scene.led_positions": ("led_positions", "1.8, 2, 3; 2.2, 2, 3"),
    "scene.led_normal": ("led_normal", "0, -0.6, -0.8"),
    "scene.lambertian_order": ("lambertian_order", "2"),
    "scene.pd_positions": ("pd_positions", "1.7, 2, 0; 2.3, 2, 0"),
    "scene.pd_normal": ("pd_normal", "0, -0.6, 0.8"),
    "scene.fov_semi_angle_rad": ("fov_semi_angle", "1.4"),
}


def test_each_mimo_key_sets_its_scene_field_and_no_other():
    # the scene map is derived from the keys declared on the config fields:
    # a key declared with another scene field would build the scene wrongly
    def values(scene):
        return {**{f.name: getattr(scene, f.name) for f in fields(SceneConfig)
                   if f.init and f.name != "grid"},
                **{f.name: getattr(scene.grid, f.name) for f in fields(OirsGrid) if f.init}}

    assert set(_MIMO_KEYS) == {key for key in experiments._MIMO.values() if key}
    default = values(ExperimentConfig().scene)
    for key, (name, text) in _MIMO_KEYS.items():
        scene = values(loads(f"{key} = {text}").scene)
        changed = {n for n in default if not np.array_equal(scene[n], default[n])}
        assert changed == {name}, (key, changed)


def test_huge_grid_fails_without_building_its_elements():
    # the room check reads the four corner elements: 10**5 rows at 0.1 m
    # pitch used to build 2.4 M element positions (a 190 MB peak) to refuse
    # them, and counts past numpy's index range fail by name
    tracemalloc.start()
    try:
        for rows, key in ((10**5, "scene.grid.center"), (2**70, "scene.grid.rows"),
                          (10**400, "scene.grid.rows")):
            with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
                ExperimentConfig(grid_rows=rows)
        assert tracemalloc.get_traced_memory()[1] < 1e6
    finally:
        tracemalloc.stop()


def test_large_grid_loads_without_building_its_schedule():
    # the layout check and the overhead table count the blocks of each scheme
    # without building their indices: 2000 x 2000 elements at 1 mm pitch used
    # to peak at 256 MB of allocations to load
    tracemalloc.start()
    try:
        config = ExperimentConfig(grid_rows=2000, grid_cols=2000, grid_pitch=0.001,
                                  grid_element_size=0.0005)
        rows = run_overhead_report(config)
        assert tracemalloc.get_traced_memory()[1] < 1e6
    finally:
        tracemalloc.stop()
    assert [(spacing, params) for spacing, params, _ in rows] == \
        [(1, 4 * 10**6 * 4), (2, 10**6 * 4), (3, 666**2 * 4), (4, 500**2 * 4)]


def test_config_round_trip():
    cfg = replace(ExperimentConfig(), sigmas=(0.0, 2.5e-4), spacings=(2, 4),
                  master_seed=99, output_dir="elsewhere",
                  led_positions=((1.8, 2.0, 3.0), (2.2, 2.0, 3.0)))
    again = loads(dumps(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    # a value that dumps() could not write back as itself is refused when the
    # config is made; an int in a float field is written as a float
    for changes, key in [({"spacings": [2, 3], "sigmas": [0.0, 1e-4]}, "sweep.sigmas"),
                         ({"spacings": [2, 3]}, "sweep.spacings"),
                         ({"sigmas": [0.0, 1e-4]}, "sweep.sigmas"),
                         ({"sigmas": ()}, "sweep.sigmas"),
                         ({"led_positions": [[1.9, 2.0, 3.0], [2.1, 2.0, 3.0]]},
                          "scene.led_positions"),
                         ({"led_positions": ([1.9, 2.0, 3.0], (2.1, 2.0, 3.0))},
                          "scene.led_positions"),
                         ({"room": np.array([4.0, 4.0, 3.0])}, "scene.room"),
                         ({"output_dir": Path("out")}, "output.dir"),
                         ({"xi_c": "0.04"}, "coherence.xi_c"),
                         # an int that no float holds, which would read back as
                         # another value, and sequences where numbers belong
                         ({"lambertian_order": 2**53 + 1}, "scene.lambertian_order"),
                         ({"sigmas": ((1e-4, 2e-4),)}, "sweep.sigmas"),
                         ({"room": ((4.0, 4.0, 3.0),) * 3}, "scene.room"),
                         # ragged: numpy used to raise its "inhomogeneous shape"
                         ({"sigmas": (1e-4, (1, 2))}, "sweep.sigmas"),
                         ({"room": (4, (4, 4), 3)}, "scene.room"),
                         ({"led_positions": ((1.9, (2.0,), 3.0), (2.1, 2.0, 3.0))},
                          "scene.led_positions"),
                         # a value dumps() cannot write at all, and 1-element arrays
                         # where numbers belong
                         ({"master_seed": 10**5000}, "seed"),
                         ({"sigmas": (np.array([1e-4]),)}, "sweep.sigmas"),
                         ({"room": (np.array([4.0]), 4.0, 3.0)}, "scene.room"),
                         ({"sigmas": (0, 1)}, None),
                         ({"lambertian_order": 1}, None),
                         ({"room": (4, 4, 3)}, None),
                         ({"coherence_led": (1, 2, 3)}, None),
                         ({"spacings": ()}, None)]:
        try:
            cfg = ExperimentConfig(**changes)
        except ConfigError as exc:
            assert key is not None and str(exc).startswith(f"{key}: "), (changes, exc)
            continue
        assert key is None, changes
        again = loads(dumps(cfg))
        assert again == cfg and config_hash(again) == config_hash(cfg), changes


def test_every_float_key_refuses_nan_infinities_and_ints_past_the_float_range():
    # NaN reads back as another value, and an int past the float range has no
    # float to write; an infinity reads back as itself, so a declared range
    # refuses it. Each is refused with its key named, as a key's first number
    def first_number(default, x):
        return (first_number(default[0], x),) + default[1:] if type(default) is tuple else x
    for key, (name, parser) in experiments._SCHEMA.items():
        default = getattr(ExperimentConfig, name)
        if parser in (experiments._parse_int, experiments._parse_ints, experiments._parse_text):
            continue
        for value in (math.nan, math.inf, -math.inf, 10**400, -10**400):
            with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
                ExperimentConfig(**{name: first_number(default, value)})


def test_a_config_holds_its_values_as_loads_reads_them():
    # a value that dumps() writes back as an equal one is held as loads()
    # reads it, so a run computes with its footer's config. Kept as given, a
    # numpy int of pilot slots overflowed PCG64.advance mid-sweep, a 0-d array
    # of grid rows could not be hashed, a Fraction could not be a range() end,
    # and a Fraction Lambertian order gave other rows than its reloaded config
    for changes in [{"grid_rows": np.int64(24)}, {"grid_rows": np.array(24)},
                    {"pilot_slots": np.int64(100)}, {"trials": Fraction(100)},
                    {"master_seed": np.uint32(7)}, {"lambertian_order": Fraction(2)},
                    {"xi_c": np.float64(0.04)}, {"pilot_power": True},
                    {"spacings": np.array([2])}, {"room": (4, np.int64(4), 3.0)},
                    {"led_positions": ((1.9, 2, np.float64(3.0)), (2.1, 2.0, 3.0))}]:
        config = ExperimentConfig(**changes)
        assert repr(config) == repr(loads(dumps(config))), changes


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(), st.text(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028#=;,ab/")))
def test_config_round_trip_keeps_every_accepted_output_dir(output_dir):
    try:
        config = ExperimentConfig(output_dir=output_dir)
    except ConfigError as exc:
        assert str(exc).startswith("output.dir: ")
        return
    assert loads(dumps(config)) == config


# the ends of every float range, and one step past each
_ENDS = sorted({x for _, lo, hi, *_ in _RANGES if type(lo) is float
                for x in (lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))})


def _numbers(default):
    """Values for a float field: its default (as an int where it is one),
    floats near it, ints (also ones that no float holds), numpy float and int
    scalars, -0.0, subnormals, nan, inf, the ends of every range and one step
    past them, floats of any size, and a pair where a number belongs (which
    makes the sequence it is drawn into ragged)."""
    near = st.floats(*sorted((0.5 * default, 1.5 * default))) if default else st.just(0.0)
    exact = st.sampled_from([default, int(default)] if default == int(default) else [default])
    return st.one_of(exact, near, st.integers(-3, 30), st.integers(2**53 + 1, 2**80),
                     st.one_of(exact, near).map(np.float64), st.integers(-3, 30).map(np.int64),
                     st.just(-0.0), st.floats(-2.2e-308, 2.2e-308),
                     st.sampled_from([np.nan, np.inf, -np.inf]), st.sampled_from(_ENDS),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.tuples(exact, exact))


def _counts(default):
    """Values for a count field: near its default, as an int or a numpy int,
    and small and very large ints."""
    near = st.integers(default - 3, default + 3)
    return st.one_of(near, near.map(np.int64), st.integers(-3, 30), st.integers(2**60, 2**70))


def _tuples(item, lengths):
    """Tuples of `item`s with a length from `lengths`, or the same as a list."""
    return st.sampled_from(lengths).flatmap(lambda n: st.tuples(*[item] * n)) \
        .flatmap(lambda t: st.sampled_from([t, list(t)]))


def _vec3(default):
    ints = tuple(int(v) if v == int(v) else v for v in default)
    return st.one_of(st.sampled_from([default, ints, list(ints)]),
                     _tuples(st.one_of(*[_numbers(v) for v in default]), (3, 3, 3, 0, 1, 2)))


# parser -> strategy for a value of its shape, given the field's default;
# a text field takes any text or one of the words its checks know
_SHAPES = {
    experiments._parse_float: _numbers,
    experiments._parse_int: _counts,
    experiments._parse_vec3: _vec3,
    experiments._parse_vec3_list: lambda d: _tuples(st.one_of(*[_vec3(v) for v in d]),
                                                    (len(d), 0, 1, 3)),
    experiments._parse_floats: lambda d: _tuples(st.one_of(st.sampled_from(d), _numbers(1e-4)),
                                                 (2, 0, 1, 4)),
    experiments._parse_ints: lambda d: _tuples(st.one_of(st.sampled_from(d), _counts(3)),
                                               (2, 0, 1, 4)),
}
_TEXT = st.one_of(st.sampled_from(["unit", "lambertian", "point", "quadrature", "out", ""]),
                  st.text(), st.text(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028#=;,ab/"))


@st.composite
def _key_and_value(draw):
    key = draw(st.sampled_from(sorted(experiments._SCHEMA)))
    name, parser = experiments._SCHEMA[key]
    shape = _SHAPES.get(parser, lambda default: _TEXT)
    return key, name, draw(shape(getattr(ExperimentConfig, name)))


@settings(max_examples=400, deadline=None)
@given(_key_and_value())
def test_config_round_trip_keeps_every_accepted_value(key_name_value):
    # one key of the default config takes a value of its shape. Whatever the
    # constructor accepts, dumps() writes back as itself; whatever it refuses
    # is named by that key, or listed at the end of the message among the
    # keys of a check that reads several, or, for the study link, among the
    # keys of the "coherence" message
    key, name, value = key_name_value
    try:
        config = ExperimentConfig(**{name: value})
    except ConfigError as exc:
        named, _, message = str(exc).partition(": ")
        listed = re.split(", | and ", message.rpartition("; the check reads ")[2]) \
            if "; the check reads " in message else []
        assert named == key or key in listed \
            or (named == "coherence" and str(exc).endswith(_STUDY_LINK) and key in _STUDY_LINK), \
            (key, value, str(exc))
        return
    again = loads(dumps(config))
    assert again == config and config_hash(again) == config_hash(config)


def test_config_hash_is_the_sha256_of_dumps():
    for cfg in (ExperimentConfig(), FAST):
        assert config_hash(cfg) == hashlib.sha256(dumps(cfg).encode()).hexdigest()


def test_load_config_file_and_comments(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment\nseed = 5\n\nsweep.trials = 3\n")
    cfg = load_config(path)
    assert cfg.master_seed == 5 and cfg.trials == 3


def test_single_link_scene_alignment():
    scene = ExperimentConfig().single_link
    grid = scene.grid
    # the one-element surface is oriented by the reflection law
    from oirsvlc import alignment_normal
    assert_allclose(grid.normal, alignment_normal(scene.led_positions[0], grid.center,
                                                  scene.pd_positions[0]), atol=1e-12)
    assert abs(grid.axis_u @ grid.axis_v) <= 1e-12
    assert_allclose(grid.center, (1, 2, 1.5))


def test_run_fig4_anchor_and_taylor_window():
    rows, d_c = run_fig4(FAST)
    assert len(rows) == 201
    shifts = np.array([r[0] for r in rows])
    point = np.array([r[1] for r in rows])
    quad = np.array([r[2] for r in rows])
    taylor = np.array([r[3] for r in rows])
    mid = np.argwhere(shifts == 0.0).item()
    assert point[mid] == 1.0 and quad[mid] == 1.0 and taylor[mid] == 1.0
    near = np.abs(shifts) <= 0.1
    assert np.max(np.abs(taylor[near] - point[near])) <= 1e-3
    # sanity: the aperture average stays close to the point model
    assert np.max(np.abs(quad - point)) <= 1e-2
    assert d_c == pytest.approx(run_coherence(FAST).d_c, rel=1e-12)


def test_run_fig4_point_curve_unimodal():
    rows, _ = run_fig4(FAST)
    point = np.array([r[1] for r in rows])
    peak = int(np.argmax(point))
    assert 0 < peak < len(point) - 1
    assert np.all(np.diff(point[: peak + 1]) >= 0)
    assert np.all(np.diff(point[peak:]) <= 0)


def test_run_overhead_report_values():
    rows = run_overhead_report(ExperimentConfig())
    table = {spacing: (params, flops) for spacing, params, flops in rows}
    assert table[1][0] == 576 * 4            # no subsampling
    assert table[2][0] == 576                # a quarter of the parameters
    assert table[3][0] == 256
    assert table[4][0] == 144
    assert table[2][1] == 345600
    assert table[1][1] == 576 * 100 * 4 * 6


def test_run_noise_sweep_schema_and_exact_recovery_row():
    rows = run_noise_sweep(replace(FAST, truth_model="point"))
    assert len(rows) == len(FAST.sigmas) * (len(FAST.spacings) + 1)
    assert [r[1] for r in rows[:2]] == [1, 2]      # baseline first, then spacings
    by = {(r[0], r[1]): r[2] for r in rows}
    assert by[(0.0, 1)] <= -180.0
    assert all(r[3] == FAST.trials for r in rows)


# The sweep's processes: 8 x 8 grid, a dense and a spacing-2 cell at each of
# two sigmas, 8 trials per cell
SWEEP = replace(ExperimentConfig(), grid_rows=8, grid_cols=8, trials=8, sigmas=(0.0, 1e-4),
                spacings=(2,), pilot_slots=16, angular_samples=16)


def _seed(spacing, i_sigma, trial):
    """The seed of a trial of SWEEP's (sigma, spacing) cell."""
    return (SWEEP.master_seed, spacing, i_sigma, trial)


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _zero_pilots(monkeypatch, bad_seeds, log=None):
    """Make the trials of `bad_seeds` read what all-zero pilots give: all-zero
    Gram matrices and cross terms, singular at sigma = 0. Each such trial
    appends the pid of its process to `log`, if given."""
    def statistics(h_blocks, seed, *args):
        if seed in bad_seeds and log is not None:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
        for b, gram, cross in trial_statistics(h_blocks, seed, *args):
            yield (b, 0.0 * gram, 0.0 * cross) if seed in bad_seeds else (b, gram, cross)

    monkeypatch.setattr(estimator, "trial_statistics", statistics)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_run_noise_sweep_rows_do_not_depend_on_cpu_count(cpus, monkeypatch):
    # each trial draws from its own seed stream, however the trials are
    # split: with 5 trials the shares of 2, 3 and 4 processes are uneven, and
    # every row keeps the bits of the one-process sweep
    config = replace(FAST, trials=5, sigmas=(0.0, 1e-4, 1e-3))
    real_fork = os.fork

    def no_fork():
        raise AssertionError("the sweep forked")

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    reference = run_noise_sweep(config)
    monkeypatch.setattr(os, "fork", real_fork)
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert run_noise_sweep(config) == reference


def test_a_pilot_power_runs_each_cell_at_sigma_over_p(monkeypatch):
    # pilots of mean p scale G by p^2 and the noise term by p: the sweep's
    # cells at power p, run at sigma / p, give each trial the NMSE of Phase II
    # with pilots on [0, 2p] at sigma. p = 1 is the same computation
    config = replace(FAST, trials=4, sigmas=(1e-4, 1e-3))
    truth = build_csi_tensor(config.scene, config.quadrature_order)
    for power in (1e-3, 0.5, 1.0, 2.0, 1e3):
        got = list(experiments._sweep_errors(replace(config, pilot_power=power), truth, 0, 1))
        with monkeypatch.context() as patch:
            patch.setattr(estimator, "trial_statistics", powered_statistics(power))
            want = list(experiments._sweep_errors(config, truth, 0, 1))
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            if power == 1.0:
                assert np.array_equal(g, w)
            assert_allclose(g, w, rtol=1e-9, atol=0)


def _sweep_truth(config, monkeypatch):
    """The truth that a one-trial `run_noise_sweep` of `config` hands to `run_algorithm1`."""
    seen = []
    real = experiments.run_algorithm1

    def record(scene, truth, *args, **kwargs):
        seen.append(truth)
        return real(scene, truth, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_algorithm1", record)
    run_noise_sweep(replace(config, trials=1, sigmas=(0.0,)))
    assert all(t is seen[0] for t in seen)
    return seen[0]


def test_the_lambertian_sweep_truth_is_c_times_the_unit_truth(monkeypatch):
    # C = rho (m + 1) A_pd / (2 pi) multiplies the unit truth, and only the
    # sweep reads it; unit mode passes the built, read-only truth, uncopied
    config = replace(FAST, grid_reflectivity=0.5, lambertian_order=2.0, pd_side=0.1)
    unit = _sweep_truth(config, monkeypatch)
    assert np.array_equal(unit, build_csi_tensor(config.scene, config.quadrature_order))
    assert not unit.flags.writeable
    lamb = _sweep_truth(replace(config, gain_mode="lambertian"), monkeypatch)
    assert_allclose(lamb, unit * 0.5 * 3.0 * 0.1**2 / (2 * math.pi), rtol=1e-12, atol=0)


def test_gain_mode_changes_sweep_nmse_only_under_noise():
    # sigma is absolute in gain units: the modes agree at sigma = 0, while at
    # sigma = 1e-4 the far smaller "lambertian" gains (C = 7.2e-4) drown in
    # the noise. A lambertian run is the unit one at sigma / C up to the
    # ridge term sigma^2, which moves the noisy rows by 0.09 dB here
    c = 0.9 * 2.0 * 0.05**2 / (2 * math.pi)
    lamb = run_noise_sweep(replace(FAST, gain_mode="lambertian"))
    unit = run_noise_sweep(FAST)
    scaled = run_noise_sweep(replace(FAST, sigmas=(0.0, 1e-4 / c)))
    for l_row, u_row, s_row in zip(lamb, unit, scaled):
        if l_row[0] == 0.0:
            assert l_row == pytest.approx(u_row, rel=1e-9, abs=1e-9)
        else:
            assert l_row[2] - u_row[2] > 20.0
            assert abs(l_row[2] - s_row[2]) < 0.2


def test_csv_files_footer_and_summary(tmp_path):
    cfg = FAST
    report = run_coherence(cfg)
    path = tmp_path / "coherence.csv"
    write_coherence_csv(cfg, report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "angle_rad,length_m"
    assert lines[-2].startswith(f"# d_c_m={report.d_c}")
    assert lines[-1] == f"# config_sha256={config_hash(cfg)} seed={cfg.master_seed}"

    rows, d_c = run_fig4(cfg)
    fig4_path = tmp_path / "fig4.csv"
    write_fig4_csv(cfg, rows, d_c, fig4_path)
    lines = fig4_path.read_text().splitlines()
    assert lines[0] == "shift_m,gain_point_norm,gain_quad_norm,gain_taylor_norm"
    assert len(lines) == 1 + 201 + 2

    write_noise_sweep_csv(cfg, [(0.0, 1, -300.0, 2)], tmp_path / "n.csv")
    assert (tmp_path / "n.csv").read_text().splitlines()[0] == \
        "sigma,spacing,nmse_db,trials"

    write_overhead_csv(cfg, run_overhead_report(cfg), tmp_path / "o.csv")
    assert (tmp_path / "o.csv").read_text().splitlines()[0] == \
        "spacing,csi_params,flops_estimate"


def test_resolve_output_dir_precedence(monkeypatch):
    cfg = replace(ExperimentConfig(), output_dir="from_config")
    monkeypatch.delenv("OIRS_OUT_DIR", raising=False)
    assert resolve_output_dir(cfg) == "from_config"
    monkeypatch.setenv("OIRS_OUT_DIR", "from_env")
    assert resolve_output_dir(cfg) == "from_env"
    assert resolve_output_dir(cfg, "from_flag") == "from_flag"


def test_cli_seed_changes_noise_sweep(tmp_path):
    out_a = tmp_path / "s1"
    out_b = tmp_path / "s2"
    cli_main(["noise-sweep", "--config", str(SMOKE), "--seed", "1", "--out", str(out_a)])
    cli_main(["noise-sweep", "--config", str(SMOKE), "--seed", "2", "--out", str(out_b)])
    assert (out_a / "noise_sweep.csv").read_bytes() != \
        (out_b / "noise_sweep.csv").read_bytes()


def test_cli_zero_gain_scene_raises_and_writes_nothing(tmp_path, monkeypatch):
    # every MIMO element lies outside the 0.62 rad field of view, which still
    # takes in the study link's 0.59 rad arrival: NMSE is undefined, and the
    # sweep stops in this process after its truth build, before it forks or
    # draws a pilot, though two CPUs are reported, naming the keys that set
    # the truth. At 0.05 rad the study link is dark too, and the config fails
    # at load
    calls, forks = [], []
    real, real_fork = estimator.trial_statistics, os.fork
    monkeypatch.setattr(estimator, "trial_statistics", lambda *a: calls.append(1) or real(*a))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    _cpus(monkeypatch, 2)
    cfg = tmp_path / "dark.cfg"
    dark = re.escape("scene.fov_semi_angle_rad, with scene.lambertian_order, scene.led_normal, "
                     "scene.led_positions, scene.pd_positions and scene.pd_normal: truth tensor")
    for fov, error, match in (
            (0.62, ZeroReferenceError, f"^{dark} .*outside a LED beam or the PD field of view$"),
            (0.05, ConfigError, "^scene.fov_semi_angle_rad: ")):
        cfg.write_text(SMOKE.read_text() + f"scene.fov_semi_angle_rad = {fov}\n")
        with pytest.raises(error, match=match):
            cli_main(["noise-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert calls == [] and forks == []
        assert not (tmp_path / "out" / "noise_sweep.csv").exists()


# a narrow beam (m = 300) turned 30 degrees from the vertical, away from the
# grid's wall: the largest truth gain of an 8 x 8 grid is 1.2e-196, and the
# squares of the gains sum to 0
_DIM_BEAM = "scene.lambertian_order = 300\nscene.led_normal = 0, 0.5, -0.8660254037844386\n"


def test_cli_infinite_nmse_raises_and_writes_nothing(tmp_path, monkeypatch):
    # the dim beam loads, but at sigma 1e-4 the squared error of its gains,
    # scaled by the truth, overflows in nmse. The sweep used to write inf rows
    # and exit 0, then to solve every cell before the write refused them; the
    # first overflowing trial now stops it, in the third of its four cells,
    # and the message names that cell
    calls = []
    real = experiments.run_algorithm1
    monkeypatch.setattr(experiments, "run_algorithm1",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    cfg = tmp_path / "dim.cfg"
    cfg.write_text(SMOKE.read_text() + _DIM_BEAM)
    with pytest.raises(OirsVlcError,
                       match=r"^sigma=0\.0001, spacing=1: the NMSE exceeds the float range$"):
        cli_main(["noise-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert len(calls) == 3
    assert not (tmp_path / "out" / "noise_sweep.csv").exists()
    # a NaN is refused too, in any column, before the file is opened
    path = tmp_path / "n.csv"
    with pytest.raises(OirsVlcError, match="sigma is nan in the row that starts nan;"):
        write_noise_sweep_csv(FAST, [(0.0, 1, -300.0, 2), (float("nan"), 2, -3.0, 2)], path)
    assert not path.exists()


def test_cli_tiny_gain_constant_sweeps_like_unit_gains(tmp_path):
    # the dim beam's gains square to 0, in unit mode and scaled by the
    # lambertian mode's C = 0.11 alike: the noiseless NMSE, which does not
    # depend on C, must still be scored. Only sigma = 0 runs: at sigma 1e-4
    # the NMSE of these gains lies past the float range
    text = ("scene.grid.rows = 8\nscene.grid.cols = 8\nsweep.trials = 2\nsweep.sigmas = 0\n"
            "sweep.spacings = 2\npilots.slots = 10\n" + _DIM_BEAM)
    rows = {}
    for name, extra in (("unit", ""), ("tiny", "scene.gain_mode = lambertian\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text + extra)
        assert cli_main(["noise-sweep", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        lines = (tmp_path / name / "noise_sweep.csv").read_text().splitlines()
        rows[name] = [[float(cell) for cell in line.split(",")] for line in lines[1:3]]
    assert rows["unit"][0][:2] == [0.0, 1.0] and rows["unit"][1][:2] == [0.0, 2.0]
    assert_allclose(rows["tiny"], rows["unit"], rtol=1e-9, atol=0)


def test_cli_negative_seed_raises_and_writes_nothing(tmp_path, monkeypatch):
    # --seed is checked like a config key, before the truth build and any pass
    calls = []
    real = experiments.run_algorithm1
    monkeypatch.setattr(experiments, "run_algorithm1",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    with pytest.raises(ConfigError, match="^seed: "):
        cli_main(["noise-sweep", "--config", str(SMOKE), "--seed", "-1",
                  "--out", str(tmp_path / "out")])
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_cli_checks_the_config_once(tmp_path, monkeypatch):
    # --seed goes into the load, so the file and the seed are checked together
    calls = []
    real = experiments._validate
    monkeypatch.setattr(experiments, "_validate", lambda config: calls.append(1) or real(config))
    assert cli_main(["overhead", "--config", str(SMOKE), "--seed", "11",
                     "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_cli_output_dir_fails_before_the_sweep(tmp_path, monkeypatch):
    # the output directory is created before any compute, so a path under a
    # regular file fails at once
    calls = []
    real = experiments.run_algorithm1
    monkeypatch.setattr(experiments, "run_algorithm1",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    (tmp_path / "f").write_text("")
    with pytest.raises(OSError):
        cli_main(["noise-sweep", "--config", str(SMOKE),
                  "--out", str(tmp_path / "f" / "sub")])
    assert calls == []


# bench/child.py still traces these, though the package no longer has them
STALE_TRACED = {("estimator", "design_layout"), ("channel", "point_gain")}


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def test_cli_led_on_an_element_fails_at_load_and_writes_nothing(tmp_path):
    # the gain of that LED at that element is 0 / 0: without -W error numpy
    # only warns, so the check must stop the run before any gain is computed
    cfg = tmp_path / "led_on_element.cfg"
    cfg.write_text("scene.led_positions = 2.05, 0, 1.55; 2.1, 2, 3\n"
                   "truth.model = point\nsweep.trials = 1\n")
    env = _src_env()
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run([sys.executable, "-m", "oirsvlc.cli", "noise-sweep", "--config",
                          str(cfg), "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode != 0
    assert "ConfigError: scene.led_positions: " in run.stderr
    assert not (tmp_path / "out").exists()


def test_noise_sweep_forks_cleanly_under_warnings_as_errors(tmp_path):
    # Python 3.12+ warns when a process with more than one thread forks. With
    # BLAS free to start its own threads, the smoke sweep still runs under
    # -W error and writes the bytes of a run with BLAS pinned to one thread
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    free = {k: v for k, v in _src_env().items() if k not in pins}
    written = []
    for name, flags, env in (("free", ["-W", "error"], free),
                             ("pinned", [], {**free, **dict.fromkeys(pins, "1")})):
        run = subprocess.run([sys.executable, *flags, "-m", "oirsvlc.cli", "noise-sweep",
                              "--config", str(SMOKE), "--out", str(tmp_path / name)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert "multi-threaded" not in run.stderr
        written.append((tmp_path / name / "noise_sweep.csv").read_bytes())
    assert written[0] == written[1]


def test_readme_config_block_is_the_default_config():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    assert loads(blocks[0]) == ExperimentConfig()


def test_readme_quickstart_runs(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    run = subprocess.run([sys.executable, "-c", blocks[0]], env=_src_env(), cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    d_c, estimate = run.stdout.splitlines()
    assert round(float(d_c), 4) == 0.4632
    assert estimate.split()[-1] == "576"


def test_bench_traced_functions_exist():
    # a traced name the package lacks records no span, so its per-layer
    # metric reads 0 and nothing fails; child.py is run from source, so
    # nothing is written under bench/
    bench_files = sorted((ROOT / "bench").rglob("*"))
    traced = runpy.run_path(str(ROOT / "bench" / "child.py"))["TRACED"]
    missing = {(module, name) for module, names in traced.items() for name in names
               if not callable(getattr(importlib.import_module(f"oirsvlc.{module}"),
                                       name, None))}
    assert missing <= STALE_TRACED
    assert sorted((ROOT / "bench").rglob("*")) == bench_files


def test_bench_traced_functions_run_on_the_calling_thread(monkeypatch, tmp_path):
    # bench/child.py keeps one span stack, and its spans are those of the
    # calling process. So in each process of a sweep every function it traces
    # runs on one thread, and the caller's traced calls are exactly its share:
    # run_algorithm1 once per cell, Phase III once per sampled trial of its
    # trials 0 and 2 of 3. Over all processes, Phase III runs once per
    # sampled trial. A child cannot report back through this process's
    # memory, so each call appends "<key> <pid> <thread id>" to a file.
    _cpus(monkeypatch, 2)
    traced = runpy.run_path(str(ROOT / "bench" / "child.py"))["TRACED"]
    log = tmp_path / "calls.txt"

    def recording(key, fn):
        def wrapper(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{key} {os.getpid()} {threading.get_ident()}\n")
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sys.modules.items()
               if m is not None and n.split(".")[0] == "oirsvlc"]
    for module_name, names in {**traced, "estimator": (*traced["estimator"],
                                                        "mmse_estimate")}.items():
        home = importlib.import_module(f"oirsvlc.{module_name}")
        for name in names:
            original = getattr(home, name, None)
            for module in modules:
                if original is not None and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name,
                                        recording(f"{module_name}.{name}", original))
    config = replace(FAST, trials=3)
    run_noise_sweep(config)
    threads, calls = {}, {}
    for line in log.read_text().splitlines():
        key, pid, thread = line.split()
        threads.setdefault(int(pid), set()).add(int(thread))
        calls.setdefault(key, []).append(int(pid))
    assert len(threads) == 2 and all(len(ids) == 1 for ids in threads.values())
    assert threads[os.getpid()] == {threading.get_ident()}
    assert len(set(calls["estimator.mmse_estimate"])) == 2     # the trials ran in two processes
    cells = len(config.sigmas) * (len(config.spacings) + 1)
    sampled = len(config.sigmas) * len(config.spacings)
    assert calls["estimator.run_algorithm1"].count(os.getpid()) == cells
    assert calls["estimator.interpolate_full"].count(os.getpid()) == 2 * sampled
    assert len(calls["estimator.interpolate_full"]) == config.trials * sampled


def test_noise_sweep_forks_its_children_once(monkeypatch):
    # one child per further CPU, forked once for the whole sweep and not for
    # each of its (sigma, scheme) cells; none where os.sched_getaffinity is
    # missing, whatever os.cpu_count says
    _cpus(monkeypatch, 2)
    real_fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    reference = run_noise_sweep(FAST)
    assert forks == [os.getpid()]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert run_noise_sweep(FAST) == reference and forks == [os.getpid()]


def test_a_child_failure_stops_the_sweep_before_the_callers_next_cell(monkeypatch, tmp_path):
    # the caller checks its child after each of its cells: a child that fails
    # in its first cell fails the sweep, named by its cell, while the caller,
    # slowed in its first cell until the child has failed, still has cells
    # to run, and the sweep leaves no child behind
    _cpus(monkeypatch, 2)
    caller, cells, failed = os.getpid(), [], tmp_path / "failed"
    real = experiments.run_algorithm1

    def cell(*args, **kwargs):
        if os.getpid() != caller:
            failed.touch()
            raise ZeroReferenceError("a child failed in its first cell")
        cells.append(args[2])
        if len(cells) == 1:
            deadline = time.monotonic() + 30
            while not failed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)                 # the child sends its failure and exits
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_algorithm1", cell)
    with pytest.raises(ZeroReferenceError,
                       match=r"^sigma=0\.0, spacing=1: a child failed in its first cell$"):
        run_noise_sweep(FAST)
    assert failed.exists()
    assert 1 <= len(cells) < len(FAST.sigmas) * (len(FAST.spacings) + 1)


def test_a_child_error_mid_sweep_fails_the_sweep(monkeypatch):
    # a child that raises in the third of the four cells fails the sweep
    # with its error, named by its cell, and the sweep leaves no child behind
    _cpus(monkeypatch, 2)
    caller, seed_of = os.getpid(), {}
    real_statistics, real_estimate = estimator.trial_statistics, estimator.mmse_estimate

    def statistics(h_blocks, seed, *args):
        seed_of["now"] = seed
        return real_statistics(h_blocks, seed, *args)

    def failing(*args):
        _, spacing, i_sigma, _ = seed_of["now"]
        if os.getpid() != caller and (i_sigma, spacing) == (1, 1):
            raise ZeroReferenceError("child failed mid-sweep")
        return real_estimate(*args)

    monkeypatch.setattr(estimator, "trial_statistics", statistics)
    monkeypatch.setattr(estimator, "mmse_estimate", failing)
    with pytest.raises(ZeroReferenceError,
                       match=r"^sigma=0\.0001, spacing=1: child failed mid-sweep$") as raised:
        run_noise_sweep(FAST)
    assert "in failing" in str(raised.value.__cause__)      # the child's own frames


def test_a_child_error_reaches_the_caller_named_by_its_cell(monkeypatch):
    # all-zero pilots make the Gram matrices singular at sigma = 0. Only the
    # last trial of the first cell gets them, in the last of four processes;
    # the error, named by its cell, surfaces in the caller, no child outlives
    # the sweep, and the next sweep runs
    _cpus(monkeypatch, 4)
    _zero_pilots(monkeypatch, (_seed(1, 0, 7),))
    with pytest.raises(SingularSystemError, match="^sigma=0.0, spacing=1: "):
        run_noise_sweep(SWEEP)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    _zero_pilots(monkeypatch, ())
    assert len(run_noise_sweep(SWEEP)) == 4


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_trial_error_keeps_its_cause_in_either_process(cpus, monkeypatch, tmp_path):
    # pickling drops an exception's __cause__ and traceback, so a child also
    # sends its formatted traceback, which the caller raises as the cause: the
    # formatted exception names numpy's "Singular matrix" wherever the
    # singular trial ran. With two CPUs the second of two trials is the
    # child's
    log = tmp_path / "zeroed.txt"
    log.touch()
    _cpus(monkeypatch, cpus)
    _zero_pilots(monkeypatch, (_seed(1, 0, 1),), log)
    with pytest.raises(SingularSystemError) as raised:
        run_noise_sweep(replace(SWEEP, trials=2))
    assert "Singular matrix" in "".join(traceback.format_exception(raised.value))
    zeroed_in = {int(pid) for pid in log.read_text().split()}
    assert (zeroed_in == {os.getpid()}) == (cpus == 1) and len(zeroed_in) == 1


@pytest.mark.parametrize("bad_seeds", [(0,), (1,), (7,), (0, 1)])
def test_a_failed_sweep_leaves_no_child(bad_seeds, monkeypatch):
    # a singular trial of the second cell, the caller's first (0), the
    # child's first (1), the child's last (7) or the first of both
    # processes, fails the sweep, and no child outlives it
    _cpus(monkeypatch, 2)
    _zero_pilots(monkeypatch, [_seed(2, 0, trial) for trial in bad_seeds])
    with pytest.raises(SingularSystemError, match="^sigma=0.0, spacing=2: "):
        run_noise_sweep(SWEEP)


def test_an_interrupted_sweep_kills_its_child(monkeypatch, tmp_path):
    # an interrupt in the caller, here in its first recovery, kills the
    # child in the trial it is solving; a child left to finish would make
    # 200 solves (100 trials in each of two cells) at 10 ms each before the
    # sweep raised
    log = tmp_path / "solves.txt"
    log.touch()
    caller = os.getpid()

    def slow_in_child(*args):
        if os.getpid() != caller:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            time.sleep(0.01)
        return mmse_estimate(*args)

    def interrupt(*args):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        return interpolate_full(*args)

    monkeypatch.setattr(estimator, "mmse_estimate", slow_in_child)
    monkeypatch.setattr(estimator, "interpolate_full", interrupt)
    _cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        run_noise_sweep(replace(SWEEP, trials=200, sigmas=(1e-4,)))
    assert len(log.read_text().split()) < 20


def test_a_fork_that_fails_partway_kills_its_child_and_closes_every_pipe(monkeypatch):
    # with three CPUs the sweep forks two children: the first fork succeeds
    # and the second raises. The sweep raises that error, the first child is
    # killed and reaped (the autouse no_child_left checks it), and every pipe
    # end the sweep opened is closed, the failed fork's two as well
    _cpus(monkeypatch, 3)
    real_fork, real_pipe = os.fork, os.pipe
    forks, opened = [], []
    refused = BlockingIOError(errno.EAGAIN, "fork refused")

    def fork():
        if forks:
            raise refused
        forks.append(os.getpid())
        return real_fork()

    def pipe():
        fds = real_pipe()
        opened.extend(fds)
        return fds

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "pipe", pipe)
    with pytest.raises(BlockingIOError) as raised:
        run_noise_sweep(SWEEP)
    assert raised.value is refused and len(forks) == 1 and len(opened) == 4
    for fd in opened:
        with pytest.raises(OSError):
            os.fstat(fd)


@pytest.mark.parametrize("spacing", [1, 2])
def test_a_child_that_dies_unreported_fails_the_sweep(spacing, monkeypatch):
    # a child that exits without its reply loses the rows of its trials; the
    # sweep must raise, naming the exit status, and never read those trials
    # as an NMSE of 0 (-300 dB in the CSV). The child dies in its first trial
    # of the first cell with this spacing
    caller, seed_of = os.getpid(), {}

    def statistics(h_blocks, seed, *args):
        seed_of["now"] = seed
        return trial_statistics(h_blocks, seed, *args)

    def dying(*args):
        if os.getpid() != caller and seed_of["now"][1] == spacing:
            os._exit(3)
        return mmse_estimate(*args)

    monkeypatch.setattr(estimator, "trial_statistics", statistics)
    monkeypatch.setattr(estimator, "mmse_estimate", dying)
    _cpus(monkeypatch, 2)
    with pytest.raises(OirsVlcError, match="exited with status 3"):
        run_noise_sweep(SWEEP)


def test_a_child_meets_the_memory_bounds_of_a_call(monkeypatch, tmp_path):
    # the bounds that a `run_algorithm1` call meets in the calling process
    # (test_estimator's test_truth_build_and_dense_pass_memory_stays_bounded),
    # met by the forked child of a sweep of that scene (a dense and a
    # spacing-3 cell), which solves 1 of 2 or 8 of 16 trials per cell.
    # tracemalloc runs before the sweep forks and keeps running in the child;
    # the child resets its peak at its first `nmse` (one per trial, after its
    # solve), dropping the caller's truth build, and logs the peak after
    # each, to a file, since its memory is not this process's
    _cpus(monkeypatch, 2)
    config = replace(ExperimentConfig(), grid_rows=48, grid_cols=48, grid_pitch=0.025,
                     grid_element_size=0.0125, sigmas=(1e-3,), spacings=(3,),
                     led_positions=((1.8, 2.0, 3.0), (2.0, 2.0, 3.0), (2.2, 2.0, 3.0)),
                     pd_positions=((1.6, 2.0, 0.0), (2.0, 2.0, 0.0), (2.4, 2.0, 0.0)))
    log = tmp_path / "peaks.txt"
    log.touch()
    caller, reset = os.getpid(), set()
    real_nmse = estimator.nmse

    def logged_nmse(*args):
        if os.getpid() not in reset:
            reset.add(os.getpid())
            tracemalloc.reset_peak()
        value = real_nmse(*args)
        peak = tracemalloc.get_traced_memory()[1]
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {peak}\n")
        return value

    monkeypatch.setattr(estimator, "nmse", logged_nmse)
    run_noise_sweep(replace(config, trials=2))                   # warm caches
    peaks = {}
    tracemalloc.start()
    try:
        for trials in (2, 16):
            log.write_text("")
            run_noise_sweep(replace(config, trials=trials))
            by_pid = {}
            for line in log.read_text().splitlines():
                pid, peak = map(int, line.split())
                if pid != caller:
                    by_pid[pid] = max(by_pid.get(pid, 0), peak)
            assert len(by_pid) == 1                    # one child, which solved a trial
            peaks[trials] = by_pid.popitem()[1]
    finally:
        tracemalloc.stop()
    assert peaks[2] < 2e6                              # the child's one trial
    assert peaks[16] < 3e6 and abs(peaks[16] - peaks[2]) < 0.5e6


def test_cli_import_loads_no_scipy(tmp_path):
    # nor concurrent.futures or logging, which cost about 10 ms of set-up, nor
    # (through hashlib, or numpy.random's secrets -> hmac) OpenSSL's _hashlib,
    # about 3.3 MB of RSS, nor mmap, nor numpy.polynomial, about 3 ms of import
    # (the closed-form d_c takes np.poly1d and np.roots), in the light commands.
    # The sweep loads numpy.random with _hashlib blocked (next test)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, oirsvlc.cli; "
         f"[oirsvlc.cli.main([c, '--out', {str(tmp_path)!r}]) "
         "for c in ('overhead', 'coherence', 'fig4')]; "
         "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'concurrent', "
         "'logging', '_hashlib', 'numpy.random', 'numpy.polynomial', 'mmap'))))"],
        env=_src_env(), capture_output=True, text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_cli_freezes_its_import_graph(tmp_path):
    # main freezes the collector first, so every object alive after the
    # import is out of every later collection, exit's included. The list of
    # them is held, so none dies before main and the count is a lower bound
    out = subprocess.run(
        [sys.executable, "-c", "import gc, oirsvlc.cli; "
         "imported = gc.get_objects(); "
         f"oirsvlc.cli.main(['overhead', '--out', {str(tmp_path)!r}]); "
         "print(gc.get_freeze_count() >= len(imported))"],
        env=_src_env(), capture_output=True, text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == "True"


def test_cli_noise_sweep_loads_no_openssl(tmp_path):
    # the sweep imports numpy.random with OpenSSL's _hashlib blocked, unless a
    # caller loaded it first: the block leaves no None in sys.modules, hashlib
    # and hmac still work on CPython's builtin digests, and the CSV is the one
    # a process with OpenSSL writes
    smoke = str(SMOKE)

    def sweep(out, first):
        script = (f"import sys, {first}oirsvlc.cli; "
                  f"oirsvlc.cli.main(['noise-sweep', '--config', {smoke!r}, '--out', {str(out)!r}]); "
                  "import hashlib, hmac; "
                  "print('_hashlib' in sys.modules, "
                  "[name for name, module in sys.modules.items() if module is None], "
                  "hashlib.sha256(b'oirs').hexdigest(), "
                  "hmac.new(b'key', b'oirs', 'sha256').hexdigest(), "
                  "hmac.compare_digest(b'oirs', b'oirs'))")
        run = subprocess.run([sys.executable, "-W", "error", "-c", script], env=_src_env(),
                             capture_output=True, text=True, check=True)
        return run.stdout.strip().splitlines()[-1], (out / "noise_sweep.csv").read_bytes()

    plain, plain_csv = sweep(tmp_path / "plain", "")
    openssl, openssl_csv = sweep(tmp_path / "openssl", "hashlib, ")
    assert plain.startswith("False [] ") and plain.endswith(" True")
    assert openssl == "True" + plain[len("False"):]
    assert plain_csv == openssl_csv
    # the library blocks nothing: a program that calls the sweep keeps OpenSSL
    library = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import sys, oirsvlc; "
         f"oirsvlc.run_noise_sweep(oirsvlc.load_config({smoke!r})); "
         "print('_hashlib' in sys.modules)"],
        env=_src_env(), capture_output=True, text=True, check=True).stdout
    assert library.split()[-1] == "True"


def _assert_cli_outputs_match_reference(tmp_path, reference, commands, config_args=()):
    # bench/check.py is run from source so that nothing is written under bench/
    check = runpy.run_path(str(ROOT / "bench" / "check.py"))
    for command, filename in commands:
        assert cli_main([command, *config_args, "--seed", str(check["RECORDED_SEED"]),
                         "--out", str(tmp_path)]) == 0
        problems = check["compare"]((tmp_path / filename).read_text(),
                                    (ROOT / "bench" / "reference" / reference
                                     / filename).read_text(),
                                    check["RECORDED_SEED"])
        assert problems == [], (filename, problems)


def test_cli_outputs_match_smoke_reference(tmp_path):
    _assert_cli_outputs_match_reference(
        tmp_path, "smoke", [("coherence", "coherence.csv"), ("fig4", "fig4.csv"),
                            ("noise-sweep", "noise_sweep.csv"), ("overhead", "overhead.csv")],
        ("--config", str(SMOKE)))


def test_cli_light_outputs_match_default_reference(tmp_path):
    # the built-in default config at the recorded seed: fig4's order-8
    # aperture quadrature runs the gain kernel on every sub-point
    _assert_cli_outputs_match_reference(
        tmp_path, "default", [("coherence", "coherence.csv"), ("fig4", "fig4.csv"),
                              ("overhead", "overhead.csv")])


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)         # demo 04 writes ./out
    runpy.run_path(str(demo), run_name="__main__")


@pytest.mark.parametrize("path", sorted((ROOT / "bench" / "configs").glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_bench_config_loads(path):
    # a check that refused a benchmark config would fail only the benchmark
    # run; the test reads bench/ and writes nothing there
    assert load_config(path).scene.grid.n_elements > 0


def test_cli_env_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("OIRS_OUT_DIR", str(target))
    assert cli_main(["overhead", "--config", str(SMOKE)]) == 0
    assert (target / "overhead.csv").exists()
