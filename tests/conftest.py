"""Shared fixtures and the suite-level runtime guard."""

import math
import os
import time

import numpy as np
import pytest

from biphoton import design, dispersion, spectra

SUITE_BUDGET_S = 600.0
_t_session = None


def pytest_configure(config):
    global _t_session
    _t_session = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    elapsed = time.perf_counter() - _t_session
    print(f"\nSUITE RUNTIME: {elapsed:.1f} s (budget {SUITE_BUDGET_S:.0f} s)")
    if elapsed > SUITE_BUDGET_S and session.exitstatus == 0:
        print("SUITE RUNTIME EXCEEDED BUDGET -> failing the run")
        session.exitstatus = 1


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Every child process a test starts (the CSV row-block workers among
    them) has been reaped when it ends."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped (waitpid gave pid {pid})")


@pytest.fixture
def no_leaked_fds():
    """Every file descriptor a test opens (a CSV worker's temporary file
    among them) is closed when it ends.  Checked only where /proc/self/fd
    lists the open descriptors."""
    fds = "/proc/self/fd"
    before = set(os.listdir(fds)) if os.path.isdir(fds) else None
    yield
    if before is not None:
        left = set(os.listdir(fds)) - before
        if left:
            pytest.fail(f"file descriptors left open: {sorted(left, key=int)}")


@pytest.fixture(scope="session")
def bbo():
    return dispersion.get_material("BBO")


@pytest.fixture(scope="session")
def ktp():
    return dispersion.get_material("KTP")


@pytest.fixture(scope="session")
def kdp():
    return dispersion.get_material("KDP")


@pytest.fixture(scope="session")
def model_equal():
    """Two-width Gaussian model at the equal-widths point."""
    return spectra.GaussianSourceModel(sigma=4e13, sigma_F=4e13)


@pytest.fixture(scope="session")
def jsa_equal(model_equal):
    grid = spectra.default_model_grid(model_equal, n_points=256)
    return spectra.gaussian_model_jsa(model_equal, grid)


@pytest.fixture(scope="session")
def jsa_typeII(bbo):
    """Ultrafast collinear type-II JSA (degenerate 800 nm, 15 nm pump,
    1 mm crystal) on a 128-point grid: cheap but fully structured."""
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.8, 15.0)
    grid = spectra.default_pump_grid(pump, n_points=128, span_factor=3.0)
    return spectra.build_jsa_collinear(bbo, "II_eoe", 1e-3, pump, grid)


@pytest.fixture(scope="session")
def jsa_factorable(bbo):
    """The engineered nearly-factorable gaussian-beam JSA (1 mm BBO,
    400 nm pump at 10 nm FWHM, theta = 3 deg, matched waist)."""
    theta = math.radians(3.0)
    w0 = design.factorable_waist(bbo, 0.4, 1e-3, theta)
    pump = spectra.PumpEnvelope.from_pump_fwhm(0.4, 10.0)
    beam = spectra.BeamGeometry(w0=w0, theta=theta, L=1e-3)
    grid = spectra.default_pump_grid(pump, n_points=256, span_factor=3.0)
    return spectra.build_jsa_noncollinear_gaussian_beam(bbo, pump, beam, grid)


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def chirped_jsa(n_s, n_i, omega0_offset=0.0, chirp=0.7, tilt=0.5):
    """Normalized, frequency-correlated (tilt) and chirped (chirp, in rad)
    Gaussian JSA on n_s x n_i grids with different half spans, the idler
    center omega0_offset above the signal center."""
    gs = spectra.FrequencyGrid(omega0=2.35e15, half_span=1.5e14, n_points=n_s)
    gi = spectra.FrequencyGrid(omega0=2.35e15 + omega0_offset,
                               half_span=1.2e14, n_points=n_i)
    xs, xi = gs.detunings[:, None] / 4e13, gi.detunings[None, :] / 3e13
    vals = np.exp(-xs**2 - xi**2 - tilt * xs * xi
                  + 1j * chirp * (xs + 0.3 * xi) ** 2)
    return spectra.JointSpectralAmplitude(gs, gi, vals).normalized()
