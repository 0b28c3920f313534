"""Property tests of the command line's exit-code contract.

``gsvgd validate`` exits 0 or 2 on any JSON document, and ``gsvgd run``
exits 0, 2, 3 or 4 on a tiny valid config with any one key replaced by any
JSON value; an uncaught exception fails the test.  Every size the program
allocates by (iterations, particles, reference samples, dimensions, hidden
units) is drawn from small integers only, so each example runs in
milliseconds.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsvgd.cli import (_TARGET_KEYS, INTEGRATORS, METHODS, TARGETS,
                       RunConfig, main)
from gsvgd.dynamics import KINDS

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

NAMES = st.sampled_from(TARGETS + METHODS + KINDS + INTEGRATORS
                        + ("median", "fixed"))


def json_values(integers):
    scalars = (st.none() | st.booleans() | integers | st.floats()
               | st.text(max_size=8) | NAMES)
    return st.recursive(
        scalars,
        lambda children: (st.lists(children, max_size=4)
                          | st.dictionaries(st.text(max_size=8) | NAMES,
                                            children, max_size=4)),
        max_leaves=10)


SMALL_INTEGERS = st.integers(-3, 4)
# Containers hold small integers only: a nested key may name a size.
ANY_JSON = (st.integers() | st.floats() | json_values(SMALL_INTEGERS))

TINY = {
    "target": "gauss",
    "target_params": {},
    "method": "gsvgd",
    "dynamics": {"kind": "HMC", "sigma2": 1.0, "A": 0.5, "mu": 1.0,
                 "gamma": 1.0, "d_scale": 1.5, "c_offset": 0.5},
    "kernel": {"mode": "median", "h_min": 1e-6},
    "integrator": "split",
    "run": {"eps": 0.05, "iters": 2, "n_particles": 3, "seed": 0},
    "trace": {"every": 1},
    "sampler": {"resample_period": 1},
    "init": {"theta_var": 0.1},
    "diagnostics": {"mode_radius": 1.0, "energy_ref": 4},
    "bnn": {"hidden": 2, "batch": 0},
    "data": {"seed": 0},
    "output_dir": "unused",
}

# The largest value drawn for each key that sizes an allocation or a loop.
SIZES = {("run", "iters"): 3, ("run", "n_particles"): 4,
         ("diagnostics", "energy_ref"): 6, ("target_params", "dim"): 4,
         ("bnn", "hidden"): 3, ("bnn", "batch"): 4}

# Every config key as (section or None, key), read from RunConfig's fields,
# so a new key is fuzzed without editing this file.
TABLE = [(f.metadata["section"], f.metadata["row"][0])
         for f in fields(RunConfig)]

# Each top-level key and section, each key within a section, each target
# parameter and two unknown keys.
PATHS = sorted(
    {(section or key,) for section, key in TABLE}
    | {(section, key) for section, key in TABLE if section}
    | {("target_params", key) for keys in _TARGET_KEYS.values()
       for key in keys}
    | set(SIZES) | {("unknown",), ("run", "unknown")})


@st.composite
def one_key_replaced(draw):
    path = draw(st.sampled_from(PATHS))
    if path in SIZES:
        value = draw(st.integers(-1, SIZES[path])
                     | ANY_JSON.filter(lambda v: not isinstance(v, int)))
    else:
        value = draw(ANY_JSON)
    cfg = copy.deepcopy(TINY)
    *parents, key = path
    node = cfg
    for name in parents:
        node = node[name]
    node[key] = value
    return cfg


SECTION_KEYS = sorted({key for section, key in TABLE if section})
CONFIG_LIKE = st.dictionaries(
    st.sampled_from(sorted({section or key for section, key in TABLE}))
    | st.text(max_size=8),
    st.integers() | json_values(st.integers())
    | st.dictionaries(st.sampled_from(SECTION_KEYS) | st.text(max_size=8),
                      st.integers() | json_values(st.integers()),
                      max_size=6),
    max_size=8)


def run_main(args):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(args)


@SETTINGS
@given(st.integers() | json_values(st.integers()) | CONFIG_LIKE)
def test_validate_exits_0_or_2_on_any_json_document(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
        assert run_main(["validate", "--config", path]) in (0, 2)


@SETTINGS
@given(one_key_replaced())
def test_run_exits_0_2_3_or_4_with_one_key_replaced(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        code = run_main(["run", "--config", path,
                         "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3, 4)


def test_tiny_config_runs():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(TINY, fh)
        assert run_main(["run", "--config", path,
                         "--out", os.path.join(tmp, "out")]) == 0
