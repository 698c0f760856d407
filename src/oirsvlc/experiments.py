"""Experiment harness: configuration files, seeded sweeps, CSV emission.

Configs are flat key = value text with dotted section keys (diff friendly);
unknown keys are rejected and every validation error names the offending
key. A config is checked when it is made (`loads`, `load_config`, the
constructor, `dataclasses.replace`) and holds the two scenes the check builds.
An empty file yields the default desk-scale setup: a 4 x 4 x 3 m room,
a 24 x 24 reflecting grid with 0.1 m pitch on the y = 0 wall, two LEDs and
two PDs, 100 pilot slots per block.

Four runners emit CSV: the single-link gain sweep (fig4.csv), the coherence
profile (coherence.csv), the NMSE-versus-noise sweep (noise_sweep.csv), and
the parameter/complexity overhead table (overhead.csv). Identical config and
seed reproduce byte-identical files.

Only the noise sweep reads absolute scale; the scenes, the gain kernel and Phase II
have unit gains and pilots of mean 1. In "lambertian" mode it scales its truth by
C = rho (m + 1) A_pd / (2 pi) (Kahn & Barry, Proc. IEEE 1997), A_pd = `scene.pd_side_m`^2:
a run then equals the unit one at sigma / C, up to the ridge term sigma^2. Pilots of
power p scale G by p^2 and the noise term by p, so each cell runs at sigma / p.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import SceneConfig, _check_pilots, _check_sigma, aperture_gain, build_csi_tensor
from .coherence import (ANGULAR_SAMPLES_RANGE, XI_C_RANGE, CoherenceReport, coherence_distance,
                        growth_rate_taylor, taylor_coeffs)
from .errors import ConfigError, LayoutError, OirsVlcError, ZeroReferenceError
from .estimator import _check_truth, _schedule_shape, flops_estimate, run_algorithm1
from .geometry import MAX_LENGTH, MIN_LENGTH, OirsGrid, alignment_normal, plane_basis_from

# CPython's builtin digest, as Lib/random.py takes sha512: `hashlib` loads
# OpenSSL's libcrypto (3.5 MB of peak RSS on x86_64 Linux), which nothing
# else in coherence, fig4 or overhead needs. Same algorithm, same footer.
try:
    from _sha2 import sha256                 # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256           # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

NMSE_DB_FLOOR = -300.0
_FIG4_STEP = 0.01        # meters; sweep covers [-1, 1]


def nmse_db(value: float) -> float:
    """NMSE in dB, floored so that exact recovery stays finite in CSV."""
    if value <= 0.0:
        return NMSE_DB_FLOOR
    return max(10.0 * math.log10(value), NMSE_DB_FLOOR)


# --------------------------------------------------------------------------
# configuration


def _parse_float(key, text):
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {text!r}") from exc


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {text!r}") from exc


def _parse_vec3(key, text):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected three comma-separated numbers")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_vec3_list(key, text):
    groups = [g for g in text.split(";") if g.strip()]
    if not groups:
        raise ConfigError(f"{key}: expected at least one x,y,z triple")
    return tuple(_parse_vec3(key, g) for g in groups)


def _parse_floats(key, text):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_ints(key, text):
    return tuple(_parse_int(key, p) for p in text.split(",") if p.strip())


def _parse_text(key, text):
    return text


def _fmt(parser, value) -> str:
    """The text that `parser` reads back as `value`; an int in a float field
    prints as a float, so a reloaded config hashes as the one written."""
    if parser is _parse_vec3_list:
        return "; ".join(_fmt(_parse_vec3, v) for v in value)
    if parser in (_parse_vec3, _parse_floats, _parse_ints):
        item = _parse_int if parser is _parse_ints else _parse_float
        return ", ".join(_fmt(item, v) for v in value)
    return str(float(value)) if parser is _parse_float else str(value)


def _key(default, key, parser, bounds=None, mimo=None):
    """The field that config `key` sets, read by `parser`. `bounds` are its (smallest,
    largest) accepted value, for a key whose range no scene or pilot check declares: a
    run takes order^2 sub-points per element, that many angles, that many trials per
    cell, and a (chunk, Nt, slots) pilot buffer; the PD side, the reflectivity and the
    pilot power set the noise sweep's absolute scale alone. `mimo` names the scene or
    grid field that the key sets in the MIMO scene."""
    return field(default=default, metadata={"key": key, "parser": parser, "bounds": bounds,
                                            "mimo": mimo})


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description, checked when it is made: a bad field raises a
    `ConfigError` naming its key. `scene` is the MIMO scene with the grid on
    the y = 0 wall. `single_link` is the one LED/element/PD study scene of the
    gain and coherence runs; its element is turned to the aligned mirror
    normal, with the room X axis projected onto the surface as first axis."""

    room: tuple = _key((4.0, 4.0, 3.0), "scene.room", _parse_vec3, mimo="room")
    grid_rows: int = _key(24, "scene.grid.rows", _parse_int, mimo="rows")
    grid_cols: int = _key(24, "scene.grid.cols", _parse_int, mimo="cols")
    grid_center: tuple = _key((2.0, 0.0, 1.5), "scene.grid.center", _parse_vec3, mimo="center")
    grid_pitch: float = _key(0.1, "scene.grid.pitch_m", _parse_float, mimo="element_pitch")
    grid_element_size: float = _key(0.05, "scene.grid.element_size_m", _parse_float,
                                    mimo="element_size")
    grid_reflectivity: float = _key(0.9, "scene.grid.reflectivity", _parse_float,
                                    bounds=(1e-3, 1.0))
    led_positions: tuple = _key(((1.9, 2.0, 3.0), (2.1, 2.0, 3.0)), "scene.led_positions",
                                _parse_vec3_list, mimo="led_positions")
    led_normal: tuple = _key((0.0, 0.0, -1.0), "scene.led_normal", _parse_vec3, mimo="led_normal")
    lambertian_order: float = _key(1.0, "scene.lambertian_order", _parse_float,
                                   mimo="lambertian_order")
    pd_positions: tuple = _key(((1.8, 2.0, 0.0), (2.2, 2.0, 0.0)), "scene.pd_positions",
                               _parse_vec3_list, mimo="pd_positions")
    pd_normal: tuple = _key((0.0, 0.0, 1.0), "scene.pd_normal", _parse_vec3, mimo="pd_normal")
    pd_side: float = _key(0.05, "scene.pd_side_m", _parse_float, bounds=(MIN_LENGTH, MAX_LENGTH))
    fov_semi_angle: float = _key(math.pi / 2, "scene.fov_semi_angle_rad", _parse_float,
                                 mimo="fov_semi_angle")
    gain_mode: str = _key("unit", "scene.gain_mode", _parse_text)
    xi_c: float = _key(0.04, "coherence.xi_c", _parse_float, bounds=XI_C_RANGE)
    coherence_led: tuple = _key((1.0, 2.0, 3.0), "coherence.led", _parse_vec3)
    coherence_pd: tuple = _key((2.0, 2.0, 0.0), "coherence.pd", _parse_vec3)
    coherence_element: tuple = _key((1.0, 2.0, 1.5), "coherence.element", _parse_vec3)
    angular_samples: int = _key(360, "coherence.angular_samples", _parse_int,
                                bounds=ANGULAR_SAMPLES_RANGE)
    sigmas: tuple = _key((0.0, 5e-5, 7e-5, 1e-4, 3e-4, 1e-3), "sweep.sigmas", _parse_floats)
    spacings: tuple = _key((2, 3, 4), "sweep.spacings", _parse_ints)
    trials: int = _key(100, "sweep.trials", _parse_int, bounds=(1, 10**6))
    pilot_slots: int = _key(100, "pilots.slots", _parse_int, bounds=(1, 10**4))
    pilot_power: float = _key(1.0, "pilots.power", _parse_float, bounds=(1e-6, 1e6))
    master_seed: int = _key(20240917, "seed", _parse_int, bounds=(0, math.inf))
    truth_model: str = _key("quadrature", "truth.model", _parse_text)
    quadrature_order: int = _key(8, "truth.quadrature_order", _parse_int, bounds=(1, 64))
    output_dir: str = _key("out", "output.dir", _parse_text)

    scene: SceneConfig = field(init=False, compare=False, repr=False)
    single_link: SceneConfig = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        scene, single_link = _validate(self)
        object.__setattr__(self, "scene", scene)
        object.__setattr__(self, "single_link", single_link)


# maps of the keys declared on the fields: key -> (field name, parser), in field order;
# bounded key -> (smallest, largest); and MIMO scene field -> the key that sets it, or None
# where the build places it (the grid's axes), by which `_scene` builds the scene and
# `_validate` names its errors
_KEYED = [f for f in fields(ExperimentConfig) if f.init]
_SCHEMA = {f.metadata["key"]: (f.name, f.metadata["parser"]) for f in _KEYED}
_BOUNDS = {f.metadata["key"]: f.metadata["bounds"] for f in _KEYED if f.metadata["bounds"]}
_MIMO = {f.metadata["mimo"]: f.metadata["key"] for f in _KEYED if f.metadata["mimo"]} \
    | {"axis_u": None, "axis_v": None}
# the study link's own fields over the MIMO scene's: its LED, element, PD and the normals
# that set its mirror normal and cosines; no key sets its one element's rows and cols
_STUDY = {"led_positions": "coherence.led", "center": "coherence.element",
          "pd_positions": "coherence.pd", "led_normal": "scene.led_normal",
          "pd_normal": "scene.pd_normal", "rows": None, "cols": None}


def _scene(config, keys, **placed) -> SceneConfig:
    """Scene of the config values of the keys in `keys` (field -> key), or `placed` values."""
    value = {name: getattr(config, _SCHEMA[key][0]) for name, key in keys.items() if key} | placed
    grid = OirsGrid(**{f.name: value.pop(f.name) for f in fields(OirsGrid) if f.init})
    return SceneConfig(grid=grid, **value)


def _validate(config: ExperimentConfig) -> tuple[SceneConfig, SceneConfig]:
    """Check every key of `config`, setting each field to the value loads() reads from
    what dumps() writes; return its MIMO and single-link scenes."""
    def bad(key, msg, reads=(), lead="the check reads"):
        if len(reads) > 1:                # a check of several keys lists them
            msg = f"{msg}; {lead} {', '.join(reads[:-1])} and {reads[-1]}"
        raise ConfigError(f"{key}: {msg}")

    def reject(exc, keys):                # keys: field -> key, of the check that failed
        reads = [keys[name] for name in getattr(exc, "fields", ()) if keys[name]]
        if not reads:           # only the study link fails so: no mirror normal or Taylor expansion
            bad("coherence", str(exc), [k for k in _STUDY.values() if k],
                "the study link is set by")
        bad(reads[0], str(exc), reads)

    for key, (name, parser) in _SCHEMA.items():
        value = getattr(config, name)
        try:        # a sequence where a number belongs, text, or an int past float or str
            loaded = parser(key, _fmt(parser, value))
            same = bool(loaded == value)
        except (TypeError, ValueError, OverflowError):
            same = False
        if not same:                      # the value itself may have no repr (10**5000)
            bad(key, f"dumps() would not write this {type(value).__name__} back as itself")
        # hold what loads() reads: a numpy int, a 0-d array or a Fraction equal to it would
        # carry its own arithmetic into the run, and fail there or differ from the footer's config
        object.__setattr__(config, name, loaded)
        if key in _BOUNDS and not _BOUNDS[key][0] <= loaded <= _BOUNDS[key][1]:
            bad(key, "must lie in [{}, {}]".format(*_BOUNDS[key]))
    if min(config.spacings, default=2) < 2:
        bad("sweep.spacings", "must be >= 2: the dense baseline (spacing 1) always runs first")
    if len(set(config.spacings)) < len(config.spacings):
        bad("sweep.spacings", "must not list a spacing twice")
    for sigma in config.sigmas:
        try:
            _check_sigma(sigma)
        except ValueError as exc:
            bad("sweep.sigmas", str(exc))
        try:                              # the noise level its cells run at
            _check_sigma(sigma / config.pilot_power)
        except ValueError as exc:
            bad("sweep.sigmas", f"{sigma} / pilots.power: {exc}", ("sweep.sigmas", "pilots.power"))
    try:
        _check_pilots(len(config.led_positions), config.pilot_slots)
    except (ValueError, OirsVlcError) as exc:
        reject(exc, {"n_slots": "pilots.slots", "n_leds": "scene.led_positions"})
    if config.gain_mode not in ("unit", "lambertian"):
        bad("scene.gain_mode", "must be 'unit' or 'lambertian'")
    if config.truth_model not in ("point", "quadrature"):
        bad("truth.model", "must be 'point' or 'quadrature'")
    if not config.output_dir:
        bad("output.dir", "must not be empty")
    # loads() strips each value and splits the text into lines, so either
    # would change the directory that dumps() wrote
    if config.output_dir != config.output_dir.strip() or not config.output_dir.isprintable():
        bad("output.dir", "must be printable, with no leading or trailing whitespace")
    try:
        scene = _scene(config, _MIMO, axis_u=(1.0, 0.0, 0.0), axis_v=(0.0, 0.0, 1.0))
    except (ValueError, OirsVlcError) as exc:
        reject(exc, _MIMO)
    study = {**_MIMO, **_STUDY}
    try:
        u, v = plane_basis_from(alignment_normal(config.coherence_led, config.coherence_element,
                                                 config.coherence_pd))
        single = _scene(config, study, axis_u=u, axis_v=v, rows=1, cols=1)
        taylor_coeffs(single)                              # refuses a dark link too
    except (ValueError, OirsVlcError) as exc:
        reject(exc, study)
    for spacing in sweep_schemes(config):
        try:
            _schedule_shape(scene.grid, scene.n_leds, scene.n_pds, spacing)
        except LayoutError as exc:
            bad("sweep.spacings", f"spacing {spacing}: {exc}", ("sweep.spacings", "scene.grid.rows",
                "scene.grid.cols", "scene.led_positions", "scene.pd_positions"))
    return scene, single


def loads(text: str, **changes) -> ExperimentConfig:
    """Parse config text; missing keys take the desk-scale defaults, and the
    named fields in `changes` replace what the text gives."""
    values = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown key")
        if key in seen:
            raise ConfigError(f"{key}: duplicate key")
        seen.add(key)
        field_name, parser = _SCHEMA[key]
        values[field_name] = parser(key, val)
    return ExperimentConfig(**{**values, **changes})


def dumps(config: ExperimentConfig) -> str:
    """Serialize with sorted keys; loads(dumps(c)) equals c."""
    lines = [f"{key} = {_fmt(parser, getattr(config, name))}"
             for key, (name, parser) in sorted(_SCHEMA.items())]
    return "\n".join(lines) + "\n"


def load_config(path, **changes) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), **changes)


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 hex digest of `dumps(config)`, the CSV footer's config_sha256."""
    return sha256(dumps(config).encode()).hexdigest()


# --------------------------------------------------------------------------
# runners


def _footer(config: ExperimentConfig):
    return (f"# config_sha256={config_hash(config)} seed={config.master_seed}",)


def _write_csv(path, header, rows, comments):
    """Write `rows` under `header`; a NaN or inf cell raises before the file is opened."""
    lines = [header]
    for row in rows:
        cells = [str(int(x)) if isinstance(x, (int, np.integer)) else str(float(x)) for x in row]
        for i, (column, cell) in enumerate(zip(header.split(","), cells)):
            if cell in ("nan", "inf", "-inf"):
                raise OirsVlcError(f"{path}: {column} is {cell} in the row that starts "
                                   f"{','.join(cells[:i + 1])}; a CSV holds finite numbers only")
        lines.append(",".join(cells))
    lines.extend(comments)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_coherence(config: ExperimentConfig):
    """Coherence report of the single-link geometry over its mirror plane."""
    return coherence_distance(config.single_link, config.xi_c, config.angular_samples)


def write_coherence_csv(config: ExperimentConfig, report: CoherenceReport, path):
    comments = (f"# d_c_m={float(report.d_c)}",) + _footer(config)
    # rows of Python floats from one list per column: iterating ndarray rows is slower
    _write_csv(path, "angle_rad,length_m", zip(*report.per_direction_lengths.T.tolist()),
               comments)


def run_fig4(config: ExperimentConfig):
    """Normalized gain versus element shift along the surface's first axis.

    Returns (rows, d_c): (201, 4) rows of (shift_m, gain_point_norm,
    gain_quad_norm, gain_taylor_norm), each gain column normalized by its
    zero-shift value, and the coherence distance at the configured threshold.
    """
    report = run_coherence(config)
    scene = config.single_link
    steps = int(round(1.0 / _FIG4_STEP))
    shifts = np.arange(-steps, steps + 1) * _FIG4_STEP
    offsets = shifts[:, None] * scene.grid.axis_u
    centers = scene.grid.center + offsets
    point = scene.gains(centers)[:, 0, 0]
    quad = aperture_gain(scene, centers, config.quadrature_order)[:, 0, 0]
    # shift 0 leaves the element exactly in place, so that row normalizes to 1
    rows = np.column_stack([shifts, point / point[steps], quad / quad[steps],
                            1.0 + growth_rate_taylor(report.coeffs, offsets)])
    return rows, float(report.d_c)


def write_fig4_csv(config: ExperimentConfig, rows, d_c, path):
    comments = (f"# d_c_m={float(d_c)}",) + _footer(config)
    _write_csv(path, "shift_m,gain_point_norm,gain_quad_norm,gain_taylor_norm",
               rows, comments)


def sweep_schemes(config: ExperimentConfig):
    """Baseline (spacing 1) followed by the configured sampling spacings."""
    return (1,) + tuple(config.spacings)


def _sweep_errors(config: ExperimentConfig, truth, k: int, processes: int):
    """Per-trial NMSE of trials k, k + processes, k + 2 * processes, ... of each
    (sigma, scheme) cell, one array per cell, in sweep order, run at sigma / p."""
    for i_sigma, sigma in enumerate(config.sigmas):
        for spacing in sweep_schemes(config):
            try:
                errors = run_algorithm1(
                    config.scene, truth, spacing, config.pilot_slots, sigma / config.pilot_power,
                    seeds=[(config.master_seed, spacing, i_sigma, trial)
                           for trial in range(k, config.trials, processes)])
            except OirsVlcError as exc:
                # same type, traceback and cause; the message names the cell
                exc.args = (f"sigma={float(sigma)}, spacing={spacing}: {exc}",)
                raise
            yield errors


class _ChildTraceback(Exception):
    """A child's formatted traceback, set as the `__cause__` of the exception
    the caller raises for it, since pickling keeps only an exception's type,
    args and attributes."""


def _errors_in_processes(config: ExperimentConfig, truth) -> np.ndarray:
    """The sweep's per-trial NMSE, a (cells, trials) array in sweep order.

    Each of K = min(CPUs this process may run on, trials) processes (one where
    `os.sched_getaffinity` is missing) runs every cell on its fixed share of the
    trials: process k takes trials k, k + K, k + 2K, ... (`_sweep_errors`). This
    process runs share 0 and writes its row of each cell as the cell ends. A child
    forked once per sweep runs each other share, sends one pickled reply through
    its own pipe, its (cells, share) NMSE or its exception with the formatted
    traceback, and leaves through os._exit, never into the stack it was forked
    from. The caller writes a child's columns [:, k::K] when it reaps it, raises
    a child's exception from a `_ChildTraceback` of that text, and an
    OirsVlcError naming the exit status of a child that exits without a reply.
    After each of its own cells the caller reaps every child that has exited, so
    a child's failure is raised before the caller's next cell. Any failure or
    interrupt in the caller kills and reaps every child not yet reaped.
    """
    import pickle

    try:
        processes = min(len(os.sched_getaffinity(0)), config.trials)
    except AttributeError:
        processes = 1
    errors = np.empty((len(config.sigmas) * len(sweep_schemes(config)), config.trials))
    children = {}                                     # pid -> (k, reply reader), until reaped

    def reap(pid, status=None):
        k, replies = children[pid]
        try:
            with replies:
                reply = pickle.load(replies)
        except (EOFError, pickle.UnpicklingError):
            reply = None
        finally:
            if status is None:
                status = os.waitpid(pid, 0)[1]
            del children[pid]
        if reply is None:
            raise OirsVlcError(f"child {pid} exited with status "
                               f"{os.waitstatus_to_exitcode(status)} before reporting")
        share, failure = reply
        if failure is not None:
            raise failure[0] from _ChildTraceback(failure[1])
        errors[:, k::processes] = share

    try:
        for k in range(1, processes):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    try:
                        reply = (list(_sweep_errors(config, truth, k, processes)), None)
                    except Exception as exc:          # the caller raises it
                        import traceback    # in a child only: the light commands never load it

                        reply = (None, (exc, "".join(traceback.format_exception(exc))))
                    with open(write, "wb") as replies:
                        pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children[pid] = (k, open(read, "rb"))
        for cell, share in enumerate(_sweep_errors(config, truth, 0, processes)):
            errors[cell, ::processes] = share
            for pid in list(children):                # a child that replied has exited
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    reap(pid, status)
        for pid in list(children):
            reap(pid)
    except BaseException:
        import signal                                 # on failure only: no cost to a sweep

        for pid, (_, replies) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            replies.close()
        raise
    return errors


def run_noise_sweep(config: ExperimentConfig):
    """Trial-averaged NMSE for every (sigma, scheme) pair.

    Returns rows (sigma, spacing, nmse_db, trials). The truth is built,
    scaled by C and checked in this process; an all-zero one names its keys.
    Then `_errors_in_processes` splits the trials into fixed shares, one per
    process, each of which runs every cell at sigma / p (see the module
    docstring). Trial seeds derive from the master seed, the scheme, the sigma
    index, and the trial index, so each trial's NMSE, and each row, does not
    depend on the number of processes. An OirsVlcError from a cell is re-raised
    with its message prefixed by `sigma=<sigma>, spacing=<spacing>: `.
    """
    order = 1 if config.truth_model == "point" else config.quadrature_order
    truth = build_csi_tensor(config.scene, order)
    if config.gain_mode == "lambertian":               # unit mode copies nothing
        truth = truth * (config.grid_reflectivity * (config.lambertian_order + 1.0)
                         * config.pd_side**2 / (2.0 * math.pi))
    try:
        truth = _check_truth(config.scene, truth)
    except ZeroReferenceError as exc:                  # same type and traceback
        exc.args = ("scene.fov_semi_angle_rad, with scene.lambertian_order, scene.led_normal, "
                    f"scene.led_positions, scene.pd_positions and scene.pd_normal: {exc}",)
        raise
    errors = _errors_in_processes(config, truth)
    cells = [(sigma, spacing) for sigma in config.sigmas for spacing in sweep_schemes(config)]
    totals = np.cumsum(errors, axis=1)[:, -1]      # summed in trial order, as a loop would
    return [(float(sigma), int(spacing), nmse_db(float(total) / config.trials), int(config.trials))
            for (sigma, spacing), total in zip(cells, totals)]


def write_noise_sweep_csv(config: ExperimentConfig, rows, path):
    _write_csv(path, "sigma,spacing,nmse_db,trials", rows, _footer(config))


def run_overhead_report(config: ExperimentConfig):
    """Parameter counts and estimation flops per scheme: rows
    (spacing, csi_params, flops_estimate)."""
    scene = config.scene
    nt, nr = scene.n_leds, scene.n_pds
    rows = []
    for spacing in sweep_schemes(config):
        blocks = _schedule_shape(scene.grid, nt, nr, spacing)[0]
        rows.append((int(spacing), blocks * nt * nr,
                     flops_estimate(nt, nr, config.pilot_slots, blocks)))
    return rows


def write_overhead_csv(config: ExperimentConfig, rows, path):
    _write_csv(path, "spacing,csi_params,flops_estimate", rows, _footer(config))


def resolve_output_dir(config: ExperimentConfig, override=None) -> str:
    """CLI flag beats the OIRS_OUT_DIR environment variable beats the config."""
    return str(override or os.environ.get("OIRS_OUT_DIR") or config.output_dir)
