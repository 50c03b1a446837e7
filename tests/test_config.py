"""Tests for solver configuration validation."""

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
        dict(chunk_size=-4),
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
    import dataclasses

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
    from repro.frw import PersistentExecutor
    from repro.service import ServiceSettings

    assert FRWConfig().executor == "serial"
    for make in (
        lambda: FRWConfig(executor="thread"),
        lambda: ServiceSettings(executor="thread").validate(),
        lambda: PersistentExecutor("thread"),
    ):
        with pytest.raises(ConfigError) as exc:
            make()
        assert "'serial'" in str(exc.value) and "'process'" in str(exc.value)
