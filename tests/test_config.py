"""Tests for solver configuration validation."""

import dataclasses

import numpy as np
import pytest

from repro import FRWConfig
from repro.errors import ConfigError


def test_defaults_valid():
    cfg = FRWConfig()
    assert cfg.variant == "frw-r"
    assert cfg.rng == "philox"
    assert not cfg.uses_regularization


def test_named_constructors():
    assert FRWConfig.alg1().variant == "alg1"
    assert FRWConfig.alg1().summation == "naive"
    assert FRWConfig.frw_nk().summation == "naive"
    assert FRWConfig.frw_nc().rng == "mt"
    assert FRWConfig.frw_r().summation == "kahan"
    assert FRWConfig.frw_rr().uses_regularization


def test_with_replaces_fields():
    cfg = FRWConfig(seed=1).with_(seed=2, n_threads=8)
    assert cfg.seed == 2
    assert cfg.n_threads == 8
    assert FRWConfig(seed=1).seed == 1  # frozen original untouched


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(variant="bogus"),
        dict(rng="xorshift"),
        dict(summation="pairwise"),
        dict(n_threads=0),
        dict(batch_size=0),
        dict(tolerance=0.0),
        dict(tolerance=1.5),
        dict(min_walks=1),
        dict(min_walks=100, max_walks=50),
        dict(executor="gpu"),
        dict(n_workers=-1),
        dict(mp_start_method="greenlet"),
        dict(pipeline_lookahead=-1),
        dict(seed=-1),
        dict(machine_seed=-3),
        dict(table_resolution=1),
        dict(table_resolution=2048),
        dict(offset_fraction=0.0),
        dict(offset_fraction=1.0),
        dict(h_cap_fraction=0.0),
        dict(h_cap_fraction=1.5),
        dict(max_steps=0),
        dict(check_every=0),
        dict(scheduler_jitter=-0.1),
        dict(scheduler_jitter=1.5),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        FRWConfig(**kwargs)


def test_every_field_boundary_values_accepted():
    """The validation ranges admit the values the test/experiment matrix
    actually uses (guards against over-tight DET007-driven validators)."""
    FRWConfig(seed=0, machine_seed=0, scheduler_jitter=0.0)
    FRWConfig(table_resolution=2, offset_fraction=0.9, h_cap_fraction=1.0)
    FRWConfig(max_steps=1, check_every=1, scheduler_jitter=1.0)
    FRWConfig(sanitize=True)


def test_config_fields_partition_into_hash_and_allowlist():
    """Drift guard: every FRWConfig dataclass field is either consumed by
    the canonical cache key (``result_key()`` / ``RESULT_FIELDS``) or
    declared bit-invisible in the ``ENGINE_FIELDS`` allowlist — adding a
    field without classifying it fails here even without running the
    det-lint DET009 pass."""
    from repro.config import ENGINE_FIELDS, RESULT_FIELDS

    declared = {f.name for f in dataclasses.fields(FRWConfig)}
    assert set(RESULT_FIELDS) | set(ENGINE_FIELDS) == declared
    assert not set(RESULT_FIELDS) & set(ENGINE_FIELDS)
    # The hash input really is RESULT_FIELDS, position for position: the
    # key tuple must track the declaration order and nothing else.
    cfg = FRWConfig()
    key = cfg.result_key()
    assert len(key) == len(RESULT_FIELDS)
    assert list(key) == [
        (name, getattr(cfg, name)) for name in RESULT_FIELDS
    ]


def test_thread_executor_removed_names_replacements():
    """The retired thread backend fails validation everywhere an executor
    is named, and the error says what to use instead."""
    from repro.service import ServiceSettings

    assert FRWConfig().executor == "serial"
    for make in (
        lambda: FRWConfig(executor="thread"),
        lambda: ServiceSettings(executor="thread").validate(),
    ):
        with pytest.raises(ConfigError) as exc:
            make()
        assert "'serial'" in str(exc.value) and "'process'" in str(exc.value)


#: Wrongly typed values per declared field type.  JSON requests can carry
#: any of them: ``1.5`` or ``1.0`` for an int, ``"no"`` for a bool.
WRONG_TYPES = {
    "int": [1.5, 1.0, True, "1", None],
    "bool": ["no", 1, 0.0, None],
    "float": [True, "0.5", None],
    "str": [1, True, None],
}


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(FRWConfig)]
)
def test_wrongly_typed_values_rejected(field):
    """Every field rejects values of the wrong type with a ConfigError
    naming it; int and float fields never accept ``bool``."""
    kind = FRWConfig.__dataclass_fields__[field].type
    for bad in WRONG_TYPES[kind]:
        with pytest.raises(ConfigError, match=field):
            FRWConfig(**{field: bad})


def test_numeric_values_stored_as_declared_type():
    """Float fields store ints as floats and int fields store integer
    scalars as ``int``, so equal values hash alike."""
    from repro.service import config_digest

    cfg = FRWConfig(scheduler_jitter=1, first_hop_interface_floor=0)
    assert type(cfg.scheduler_jitter) is float
    assert type(cfg.first_hop_interface_floor) is float
    assert config_digest(cfg) == config_digest(
        FRWConfig(scheduler_jitter=1.0, first_hop_interface_floor=0.0)
    )
    seeded = FRWConfig(seed=np.int64(7), n_threads=np.int32(2))
    assert type(seeded.seed) is int and type(seeded.n_threads) is int
    assert config_digest(seeded) == config_digest(FRWConfig(seed=7, n_threads=2))
