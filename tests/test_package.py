"""The package's public surface, which loads its submodules on first access."""

import pickle

import pytest

import factzeros


def test_every_public_name_resolves():
    for name in factzeros.__all__:
        assert getattr(factzeros, name) is not None
    for module in ("zcount", "oracle", "image", "jumps", "arithmetic", "cli"):
        assert getattr(factzeros, module).__name__ == f"factzeros.{module}"
    from factzeros import in_image

    assert in_image is factzeros.image.in_image


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        factzeros.no_such_name
    assert not hasattr(factzeros, "dataclass")
    assert not hasattr(factzeros, "OracleConfig")  # the oracle's bound is oracle.N_MAX


def test_exceptions_keep_one_identity():
    assert factzeros.image.VerificationError is factzeros.VerificationError
    assert factzeros.image.PreconditionError is factzeros.PreconditionError
    assert issubclass(factzeros.PreconditionError, ValueError)


def test_rebinding_in_a_submodule_shows_through_the_package(monkeypatch):
    # the benchmark's tracer wraps functions by rebinding them in their modules
    def fake(b, z):
        return "traced"

    monkeypatch.setattr(factzeros.image, "in_image", fake)
    assert factzeros.in_image is fake
    monkeypatch.undo()
    assert factzeros.in_image is factzeros.image.in_image
    assert factzeros.in_image(10, 5).bracket == (25, 4, 6)


def test_records_keep_constructors_and_stay_immutable():
    from factzeros import (
        BaseSpec, DensityReport, JumpRecord, MembershipResult, ZDecomposition, factorize,
    )
    from factzeros.cli import OutputRecord

    spec = BaseSpec(base=10, factorization=factorize(10))
    assert spec.live_parts == ((5, 1),) and spec == BaseSpec(10, factorize(10))
    assert pickle.loads(pickle.dumps(spec)) == spec  # rebuilt through the checking constructor
    result = MembershipResult(z=5, member=False, bracket=(25, 4, 6))
    assert result.witness is None and result.bracket == (25, 4, 6)
    assert factorize(360).value == 360 and factorize(360).primes == (2, 3, 5)
    records = [
        spec,
        result,
        factorize(12),
        ZDecomposition(alpha=2, beta=1, modulus=3),
        JumpRecord(location=25, per_component={(5, 1): 2}, composite_amplitude=2),
        DensityReport(2, 15, 9, 10, None),
        OutputRecord("1", "zeros", {}, {}),
    ]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0)
        with pytest.raises(AttributeError):
            record.extra = 0
