import numpy as np
import pytest

from qratio.constants import ATOMIC_MASS_UNIT
from qratio.core import de_broglie_wavelength
from qratio.errors import DomainError
from qratio.talbot import (GratingSpec, LauConfig, correlation_at_shift,
                           lau_scan, propagate_carpet, revival_fidelity,
                           talbot_length)

D = 100e-9
LAM = 1e-9
LT = talbot_length(D, LAM)      # the carpet's Talbot length


@pytest.fixture(scope="module")
def carpet():
    return propagate_carpet(GratingSpec(D, 0.3, 64), LAM, 2.2 * D * D / LAM, 40)


class TestTalbotLength:
    def test_direct(self):
        assert talbot_length(100e-9, 1e-9) == pytest.approx(10e-6, rel=1e-12)

    def test_quadratic_in_period(self):
        assert talbot_length(2 * D, LAM) == pytest.approx(4 * talbot_length(D, LAM))

    def test_c70_beam_geometry(self):
        lam = de_broglie_wavelength(840 * ATOMIC_MASS_UNIT, 100.0)
        assert talbot_length(990e-9, lam) == pytest.approx(0.2063206718248696,
                                                           rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            talbot_length(0.0, 1e-9)
        with pytest.raises(DomainError):
            talbot_length(1e-7, -1e-9)


class TestCarpet:
    def test_periodic_in_x(self, carpet):
        z = 0.37 * LT
        intensity = carpet.intensity_at(z)
        sel = np.abs(carpet.x) <= 0.25 * 64 * D
        dx = carpet.x[1] - carpet.x[0]
        shift = int(round(D / dx))
        w = intensity[sel]
        assert np.max(np.abs(w[shift:] - w[:-shift])) < 0.01 * w.max()

    def test_half_period_shift_at_talbot_length(self, carpet):
        assert correlation_at_shift(carpet, LT, D / 2) > 0.9
        assert correlation_at_shift(carpet, LT, 0.0) < 0.5

    def test_frequency_doubling_at_half_talbot_length(self, carpet):
        # at L_T/2 the pattern is d/2-periodic, so a d/2 shift of itself
        # changes almost nothing
        i_half = carpet.intensity_at(LT / 2)
        dx = carpet.x[1] - carpet.x[0]
        n = int(round(D / 2 / dx))
        sel = np.abs(carpet.x) <= 0.25 * 64 * D
        a = i_half[sel] - i_half[sel].mean()
        b = np.roll(i_half, n)[sel] - i_half[sel].mean()
        assert float(a @ b) / float(a @ a) > 0.95

    def test_revival_fidelity(self, carpet):
        assert revival_fidelity(carpet, 0.0) == 1.0
        assert revival_fidelity(carpet, LT) >= 0.9
        assert revival_fidelity(carpet, LT / 4) < revival_fidelity(carpet, LT)

    def test_unshifted_revival_at_two_talbot_lengths(self, carpet):
        assert correlation_at_shift(carpet, 2 * LT, 0.0) >= 0.9

    def test_energy_conserved(self, carpet):
        base = carpet.intensity[0].sum()
        for row in carpet.intensity[1:]:
            assert abs(row.sum() - base) < 1e-6 * base

    def test_mean_intensity_normalized(self, carpet):
        assert carpet.intensity[0].mean() == pytest.approx(1.0, rel=1e-12)

    def test_scaling_collapse(self):
        # (d, lambda) and (2d, 4 lambda) share L_T; carpets coincide after
        # rescaling x by the period
        c1 = propagate_carpet(GratingSpec(D, 0.3, 32), LAM,
                              talbot_length(D, LAM), 16)
        c2 = propagate_carpet(GratingSpec(2 * D, 0.3, 32), 4 * LAM,
                              talbot_length(2 * D, 4 * LAM), 16)
        assert c1.x.size == c2.x.size
        np.testing.assert_allclose(c2.x, 2 * c1.x, rtol=1e-12)
        sel = np.abs(c1.x) <= 0.25 * 32 * D
        for row1, row2 in zip(c1.intensity, c2.intensity):
            assert np.max(np.abs(row1[sel] - row2[sel])) < 0.01 * row1[sel].max()

    def test_paraxial_guard(self):
        with pytest.raises(DomainError):
            propagate_carpet(GratingSpec(5e-9, 0.3, 16), LAM, 1e-6, 4)

    @pytest.mark.parametrize("open_fraction,z_steps", [(0.001, 200), (0.3, 10 ** 6)])
    def test_oversize_carpet_rejected_before_allocation(self, open_fraction,
                                                        z_steps):
        # 0.001 asks for 2^21 points x 201 rows (3.4 GB); 10^6 rows of the
        # 8192-point preset grid ask for 65 GB
        with pytest.raises(DomainError, match="cap"):
            propagate_carpet(GratingSpec(D, open_fraction, 64), LAM, 2.2e-5,
                             z_steps)


class TestGratingSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GratingSpec(D, 0.0, 16)
        with pytest.raises(DomainError):
            GratingSpec(D, 1.2, 16)
        with pytest.raises(DomainError):
            GratingSpec(D, 0.3, 1)
        with pytest.raises(DomainError):
            GratingSpec(-D, 0.3, 16)


def lau_config(l2_factor=1.0):
    lt = talbot_length(D, LAM)
    return LauConfig(GratingSpec(D, 0.3, 16), GratingSpec(D, 0.3, 64),
                     GratingSpec(D, 0.3, 64), lt, l2_factor * lt, LAM)


class TestLauScan:
    offsets = np.linspace(-D, D, 81)

    def test_periodic_in_offset(self):
        scan = lau_scan(lau_config(), self.offsets)
        assert np.max(np.abs(scan.flux[:40] - scan.flux[40:80])) < 0.02

    def test_resonant_visibility(self):
        scan = lau_scan(lau_config(), self.offsets)
        assert scan.visibility() > 0.2

    def test_off_resonance_visibility_lower(self):
        resonant = lau_scan(lau_config(1.0), self.offsets).visibility()
        detuned = lau_scan(lau_config(1.0 / 3.0), self.offsets).visibility()
        assert detuned < resonant

