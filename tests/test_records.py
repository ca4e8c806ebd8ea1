"""The record types: immutable NamedTuples that write as the object of their fields."""

import importlib
import json
import math
import pkgutil

import numpy as np
import pytest

import fockpr
from fockpr import jsonio
from fockpr.fock import FockPoly, GrowthReport, TwoVarFockPoly
from fockpr.gabor import HardyReport, HermiteSignal
from fockpr.lattice import Lattice, LatticeIndex
from fockpr.phaseless import LiftedReport, PerturbationBoundReport, PhaseDecision, RolleResult
from fockpr.pointset import (
    AngleReport,
    ClosenessReport,
    DensityReport,
    PointEntry,
    SeparationReport,
)
from fockpr.sampler import GeneratorConfig, McReport
from fockpr.special import DerivativeBoundProbe, LagrangeResult
from fockpr.suites import CheckResult

LAT = Lattice(1.0, 1.0j, shift=0.5)

RECORDS = [
    LAT,
    LatticeIndex(2, -3),
    FockPoly(math.pi, [1.0, 0.5j]),
    TwoVarFockPoly(2.0, [[1.0, 0.0], [0.0, 1j]]),
    GrowthReport(passed=True, max_ratio=0.5, worst_point=1 - 2j),
    HermiteSignal((1.0, 0.5j)),
    HardyReport(c_value=1.0, max_ratio=0.5, worst_point=1j, passed=True,
                points=(1j, 2 + 0j), ratios=(0.5, 0.25)),
    PhaseDecision(status="equivalent", tau=1j, max_modulus_gap=0.0, wronskian_norm=1e-17),
    RolleResult(point=0.5 + 0.5j, theta=0.25, residual=1e-13),
    PerturbationBoundReport(ok=True, lhs=0.1, bound=0.2, eta=0.3, m_const=4.0, sin_gap=0.5),
    LiftedReport(dim=2, num_points=9, singular_values=(2.0, 0.5), kernel_dim=0,
                 rank_tol=1e-10, witness=((1 + 0j,), (1j,)), witness_gap=math.inf,
                 witness_searched=True),
    PointEntry(pos=1 + 1j, delta=0.1j, unit=0.5j),
    ClosenessReport(gamma=7.0, tag="A", kappa=0.5, log_kappa=math.log(0.5),
                    worst_index=(1, -2), count=10, window_radius=3.0, passed=True),
    AngleReport(beta=math.pi, theta_min=0.1, sup_ratio=2.0, worst_index=None, count=0,
                window_radius=3.0, passed=True),
    SeparationReport(delta=0.1, log10_delta=-1.0, pair=(0j, 0.1 + 0j), count=5),
    DensityReport(center=0j, radii=(1.0, 2.0), counts=(3, 12), estimates=(0.95, 0.96),
                  fitted_density=0.96, max_residual=0.01),
    GeneratorConfig(LAT, 3.0, seed=5),
    McReport(variant="mirror", trials=10, epsilon=0.1, seed=1, hits=2, p_hat=0.2,
             stderr=0.13, bound=0.4, passed=True),
    DerivativeBoundProbe(c=1.5, intercept=-0.5, min_log_margin=0.25, count=7, passed=True),
    LagrangeResult(value=1j, last_increment=1e-3, terms=5, increments=(0.1, 1e-3)),
    CheckResult(name="x", passed=False, value=-0.0, tolerance=1e-9, detail="d"),
]


def _record_types() -> set[type]:
    """Every public tuple type with ``_fields`` defined in a fockpr module."""
    found = set()
    for info in pkgutil.iter_modules(fockpr.__path__):
        module = importlib.import_module(f"fockpr.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
                    and value.__module__ == module.__name__ and not name.startswith("_")):
                found.add(value)
    return found


def test_every_record_type_is_covered():
    assert {type(r) for r in RECORDS} == _record_types()
    assert len(RECORDS) == 21  # the 20 reports, values and configs, and LatticeIndex


def _dumped(obj) -> str:
    try:
        return jsonio.dumps(obj)
    except TypeError as exc:
        return f"TypeError: {exc}"


@pytest.mark.parametrize("rec", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_is_immutable_and_writes_as_the_object_of_its_fields(rec):
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], rec[0])
    with pytest.raises(AttributeError):
        rec.extra = 1
    text = _dumped(rec)
    assert text == _dumped(rec._asdict())
    if not text.startswith("TypeError"):  # FockPoly and TwoVarFockPoly hold complex arrays
        assert list(json.loads(text)) == sorted(rec._fields)


def test_validated_records_coerce_their_fields():
    lat = Lattice(omega1=2, omega2=1j)
    assert lat == (2 + 0j, 1j, 0j) and all(type(v) is complex for v in lat)
    assert type(Lattice(1, 1j, 3).shift) is complex
    poly = FockPoly(1.0, 3)
    assert poly.coeffs.dtype == complex and poly.coeffs.tolist() == [3 + 0j]
    two = TwoVarFockPoly(beta=1.0, coeffs=[1, 2])
    assert two.coeffs.dtype == complex and two.coeffs.shape == (1, 2)
    signal = HermiteSignal([1, 2.5])
    assert signal.coeffs == (1 + 0j, 2.5 + 0j) and all(type(c) is complex for c in signal.coeffs)
    assert isinstance(signal.coeffs, tuple)


@pytest.mark.parametrize("make, message", [
    (lambda: Lattice(1j, 1.0), "positively oriented"),
    (lambda: Lattice(1.0, 2.0), "positively oriented"),
    (lambda: Lattice(math.nan, 1j), "positively oriented"),
    (lambda: FockPoly(0.0, [1.0]), "alpha must be positive"),
    (lambda: FockPoly(1.0, []), "nonempty 1-d"),
    (lambda: FockPoly(1.0, np.ones((2, 2))), "nonempty 1-d"),
    (lambda: TwoVarFockPoly(-1.0, [[1.0]]), "beta must be positive"),
    (lambda: HermiteSignal(()), "at least one coefficient"),
])
def test_validated_records_refuse_bad_fields(make, message):
    with pytest.raises(ValueError, match=message):
        make()
