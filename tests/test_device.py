import dataclasses
import math

import numpy as np
import pytest
from scipy.special import erf

from excitonsim import units
from excitonsim.device import (
    ChargeDensity,
    DeviceStructure,
    DotGeometry,
    InPlaneGaussian,
    MaterialParams,
    ZProfile,
    biexcitonic_shift,
    build_register,
    carrier_density,
    coulomb_integral,
    exciton_energy,
    gaas_two_dot,
    inplane_ground_state,
    shift_vs_field,
    well_ground_state,
)
from excitonsim.errors import InvalidPairError, InvalidParameterError

GAAS = MaterialParams(
    electron_effective_mass=0.067,
    hole_effective_mass=0.34,
    relative_permittivity=12.9,
    band_gap_ev=1.5,
)


def gaussian_cloud(charge, center_xyz, sigma):
    x, y, z = center_xyz
    return ChargeDensity(
        charge=charge,
        inplane_center_nm=(x, y),
        inplane_std_nm=sigma,
        z_profile=ZProfile("gaussian", z, sigma),
    )


def gaussian_pair_closed_form(distance, sigma, eps_r):
    """Coulomb energy of two identical isotropic Gaussian unit charges."""
    return (
        units.COULOMB_MEV_NM / eps_r * erf(distance / (2.0 * sigma)) / distance
    )


class TestInPlaneGroundState:
    def test_electron_displacement_value(self):
        # d = e F / (m omega^2) with hw = 30 meV, m = 0.067, F = 30 kV/cm
        g = inplane_ground_state(GAAS, 30.0, -1, 30.0)
        assert abs(g.center_nm[0]) == pytest.approx(3.8, abs=0.05)
        assert g.center_nm[1] == 0.0

    def test_hole_displacement_opposite_sign(self):
        ge = inplane_ground_state(GAAS, 30.0, -1, 30.0)
        gh = inplane_ground_state(GAAS, 20.0, +1, 30.0)
        assert gh.center_nm[0] == pytest.approx(1.7, abs=0.05)
        assert ge.center_nm[0] * gh.center_nm[0] < 0

    def test_zero_field_no_displacement(self):
        for sign in (-1, 1):
            g = inplane_ground_state(GAAS, 25.0, sign, 0.0)
            assert g.center_nm == (0.0, 0.0)

    def test_density_std(self):
        # density variance of the oscillator ground state: hbar / (2 m omega)
        g = inplane_ground_state(GAAS, 30.0, -1, 0.0)
        expected = math.sqrt(units.hbar_sq_over_m(0.067) / (2.0 * 30.0))
        assert g.std_nm == pytest.approx(expected, rel=1e-12)

    def test_invalid_confinement(self):
        with pytest.raises(InvalidParameterError):
            inplane_ground_state(GAAS, -5.0, -1, 0.0)


class TestWellGroundState:
    def test_normalized_and_symmetric(self):
        prof = well_ground_state(DotGeometry(20.0, 14.0, 5.0, 0.0))
        z = np.linspace(-2.5, 2.5, 20001)
        integral = np.trapezoid(prof.density(z), z)
        assert integral == pytest.approx(1.0, abs=1e-10)
        mean = np.trapezoid(z * prof.density(z), z)
        assert mean == pytest.approx(0.0, abs=1e-10)

    def test_centered_at_dot(self):
        prof = well_ground_state(DotGeometry(20.0, 14.0, 4.0, 7.5))
        z = np.linspace(5.5, 9.5, 20001)
        mean = np.trapezoid(z * prof.density(z), z)
        assert mean == pytest.approx(7.5, abs=1e-10)

    def test_disjoint_supports_for_separated_dots(self):
        # an infinite-well density is zero beyond half its width from the center
        s = gaas_two_dot()
        p0 = well_ground_state(s.dots[0])
        p1 = well_ground_state(s.dots[1])
        assert p0.kind == p1.kind == "infinite-well"
        assert p0.center_nm + 0.5 * p0.width_nm < p1.center_nm - 0.5 * p1.width_nm


class TestCoulombIntegral:
    @pytest.mark.parametrize("distance", [6.0, 10.0, 25.0])
    def test_gaussian_closed_form_along_z(self, distance):
        a = gaussian_cloud(+1, (0, 0, 0), 2.0)
        b = gaussian_cloud(+1, (0, 0, distance), 2.0)
        got = coulomb_integral(a, b, GAAS)
        assert got == pytest.approx(
            gaussian_pair_closed_form(distance, 2.0, 12.9), rel=1e-6
        )

    def test_gaussian_closed_form_in_plane(self):
        a = gaussian_cloud(+1, (0, 0, 0), 2.0)
        b = gaussian_cloud(+1, (10.0, 0, 0), 2.0)
        got = coulomb_integral(a, b, GAAS)
        assert got == pytest.approx(
            gaussian_pair_closed_form(10.0, 2.0, 12.9), rel=1e-6
        )

    def test_spot_value(self):
        a = gaussian_cloud(+1, (0, 0, 0), 2.0)
        b = gaussian_cloud(+1, (0, 0, 10.0), 2.0)
        assert coulomb_integral(a, b, GAAS) == pytest.approx(11.15, abs=0.01)

    def test_opposite_charges_flip_sign(self):
        a = gaussian_cloud(+1, (0, 0, 0), 2.0)
        b = gaussian_cloud(+1, (0, 0, 10.0), 2.0)
        bneg = dataclasses.replace(b, charge=-1)
        assert coulomb_integral(a, bneg, GAAS) == -coulomb_integral(a, b, GAAS)

    def test_point_charge_limit(self):
        # D = 50 sigma: within 0.1% of e^2/(4 pi eps0 eps_r D)
        sigma = 2.0
        d = 50 * sigma
        a = gaussian_cloud(+1, (0, 0, 0), sigma)
        b = gaussian_cloud(+1, (0, 0, d), sigma)
        point = units.COULOMB_MEV_NM / 12.9 / d
        assert coulomb_integral(a, b, GAAS) == pytest.approx(point, rel=1e-3)

    def test_symmetry_under_exchange(self):
        s = gaas_two_dot()
        e0 = carrier_density(s, 0, "e")
        h1 = carrier_density(s, 1, "h")
        j_ab = coulomb_integral(e0, h1, GAAS)
        j_ba = coulomb_integral(h1, e0, GAAS)
        assert j_ab == pytest.approx(j_ba, rel=1e-10)

    def test_monte_carlo_oracle_well_profiles(self):
        # independent stochastic estimate of the same 6-D integral
        rng = np.random.default_rng(2024)
        s = gaas_two_dot()
        pairs = [
            (carrier_density(s, 0, "e"), carrier_density(s, 0, "h")),  # same well
            (carrier_density(s, 0, "e"), carrier_density(s, 1, "e")),  # disjoint
            (carrier_density(s, 0, "h"), carrier_density(s, 1, "e")),
        ]
        n = 400_000
        for a, b in pairs:
            got = coulomb_integral(a, b, GAAS)
            ra = _sample_density(rng, a, n)
            rb = _sample_density(rng, b, n)
            inv = 1.0 / np.linalg.norm(ra - rb, axis=1)
            scale = units.COULOMB_MEV_NM * a.charge * b.charge / 12.9
            mc = scale * inv.mean()
            mc_err = abs(scale) * inv.std() / math.sqrt(n)
            assert abs(got - mc) < 5.0 * mc_err

    def test_mixed_profile_kinds_rejected(self):
        a = gaussian_cloud(+1, (0, 0, 0), 2.0)
        b = ChargeDensity(1, (0, 0), 2.0, ZProfile("infinite-well", 20.0, 4.0))
        with pytest.raises(InvalidParameterError):
            coulomb_integral(a, b, GAAS)


def _sample_density(rng, density, n):
    xy = rng.normal(0.0, density.inplane_std_nm, size=(n, 2))
    xy += np.asarray(density.inplane_center_nm)
    zp = density.z_profile
    if zp.kind == "gaussian":
        z = rng.normal(zp.center_nm, zp.width_nm, size=n)
    else:
        w = zp.width_nm
        z = np.empty(n)
        filled = 0
        while filled < n:
            cand = rng.uniform(-w / 2, w / 2, size=2 * (n - filled))
            keep = rng.uniform(0, 1, size=cand.size) < np.cos(math.pi * cand / w) ** 2
            take = cand[keep][: n - filled]
            z[filled : filled + take.size] = take + zp.center_nm
            filled += take.size
    return np.column_stack([xy, z])


class TestExcitonEnergy:
    def test_calibrated_preset_anchors(self):
        s = gaas_two_dot(field_kv_cm=30.0)
        assert exciton_energy(s, 0) == pytest.approx(1.70, abs=2e-4)
        assert exciton_energy(s, 1) == pytest.approx(1.71, abs=2e-4)

    def test_field_strictly_lowers_energy(self):
        s = gaas_two_dot()
        energies = [
            exciton_energy(dataclasses.replace(s, field_kv_cm=f), 0)
            for f in (0.0, 10.0, 20.0, 30.0, 40.0)
        ]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_identical_dots_identical_energy(self):
        dot = DotGeometry(20.0, 14.0, 5.0, 0.0)
        dot2 = dataclasses.replace(dot, z_center_nm=10.0)
        s = DeviceStructure((dot, dot2), (5.0,), GAAS, 30.0)
        assert exciton_energy(s, 0) == pytest.approx(exciton_energy(s, 1), rel=1e-12)

    def test_invariant_under_rigid_z_translation(self):
        s = gaas_two_dot()
        shifted_dots = tuple(
            dataclasses.replace(d, z_center_nm=d.z_center_nm + 37.5) for d in s.dots
        )
        s_shift = dataclasses.replace(s, dots=shifted_dots)
        assert exciton_energy(s_shift, 0) == pytest.approx(
            exciton_energy(s, 0), rel=1e-12
        )
        assert biexcitonic_shift(s_shift, 0, 1) == pytest.approx(
            biexcitonic_shift(s, 0, 1), rel=1e-10
        )


class TestBiexcitonicShift:
    def test_preset_value_at_operating_field(self):
        s = gaas_two_dot(field_kv_cm=30.0)
        de = biexcitonic_shift(s, 0, 1)
        assert 3.0 <= de <= 6.0
        assert de == pytest.approx(4.5, abs=0.01)

    def test_symmetric_in_pair(self):
        s = gaas_two_dot()
        assert biexcitonic_shift(s, 0, 1) == biexcitonic_shift(s, 1, 0)

    def test_same_dot_rejected(self):
        s = gaas_two_dot()
        with pytest.raises(InvalidPairError):
            biexcitonic_shift(s, 1, 1)

    def test_identical_electron_hole_densities_cancel_exactly(self):
        # force e and h to coincide: equal masses and confinements make the
        # four terms cancel term by term
        mat = MaterialParams(0.1, 0.1, 12.9, 1.5)
        dots = (
            DotGeometry(20.0, 20.0, 5.0, 0.0),
            DotGeometry(20.0, 20.0, 5.0, 10.0),
        )
        s = DeviceStructure(dots, (5.0,), mat, 25.0)
        e0, h0 = carrier_density(s, 0, "e"), carrier_density(s, 0, "h")
        assert abs(e0.inplane_center_nm[0] + h0.inplane_center_nm[0]) < 1e-12
        # with opposite displacements the densities are mirrored, not equal;
        # at zero field they coincide exactly
        s0 = dataclasses.replace(s, field_kv_cm=0.0)
        assert biexcitonic_shift(s0, 0, 1) == 0.0

    def test_positive_for_parallel_dipoles(self):
        s = gaas_two_dot(field_kv_cm=30.0)
        assert biexcitonic_shift(s, 0, 1) > 0.0

    def test_point_dipole_limit(self):
        s = gaas_two_dot(field_kv_cm=30.0)
        e0 = carrier_density(s, 0, "e")
        h0 = carrier_density(s, 0, "h")
        d_len = abs(e0.inplane_center_nm[0] - h0.inplane_center_nm[0])
        sigma_max = max(e0.inplane_std_nm, h0.inplane_std_nm)
        big_d = 5.0 * (d_len + 2.0 * sigma_max)
        far_b = dataclasses.replace(
            s.dots[1], z_center_nm=s.dots[0].z_center_nm + big_d
        )
        gap = big_d - 0.5 * (s.dots[0].well_width_nm + far_b.well_width_nm)
        far = dataclasses.replace(
            s, dots=(s.dots[0], far_b), barrier_widths_nm=(gap,)
        )
        full = biexcitonic_shift(far, 0, 1)
        point_dipole = (
            units.COULOMB_MEV_NM / 12.9 * d_len**2 / big_d**3
        )
        assert full == pytest.approx(point_dipole, rel=0.05)

    def test_point_dipole_formula_spot_value(self):
        # perpendicular parallel dipoles: e^2 d^2 / (4 pi eps0 eps_r D^3)
        value = units.COULOMB_MEV_NM / 12.9 * 5.5**2 / 10.0**3
        assert value == pytest.approx(3.4, abs=0.05)


class TestShiftVsField:
    def test_zero_field_residual_is_small(self):
        s = gaas_two_dot()
        [(f, de)] = shift_vs_field(s, 0, 1, [0.0])
        assert f == 0.0
        assert 0.0 <= de < 1.0

    def test_monotone_non_decreasing(self):
        s = gaas_two_dot()
        sweep = shift_vs_field(s, 0, 1, list(np.arange(0.0, 41.0, 5.0)))
        values = [de for _, de in sweep]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_pair_order_irrelevant(self):
        s = gaas_two_dot()
        grid = [0.0, 15.0, 30.0]
        a = shift_vs_field(s, 0, 1, grid)
        b = shift_vs_field(s, 1, 0, grid)
        assert a == b

    def test_bad_grids_rejected(self):
        s = gaas_two_dot()
        with pytest.raises(InvalidParameterError):
            shift_vs_field(s, 0, 1, [])
        with pytest.raises(InvalidParameterError):
            shift_vs_field(s, 0, 1, [10.0, 5.0])
        with pytest.raises(InvalidParameterError):
            shift_vs_field(s, 0, 1, [-1.0, 5.0])


NONFINITE = (math.nan, math.inf, -math.inf)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize("field", range(4))
    def test_material(self, field, bad):
        values = [0.067, 0.34, 12.9, 1.4]
        values[field] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            MaterialParams(*values)

    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize("field", range(4))
    def test_dot_geometry(self, field, bad):
        values = [20.0, 14.0, 5.0, 0.0]
        values[field] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            DotGeometry(*values)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_device_structure(self, bad):
        dots = (DotGeometry(20, 14, 5.0, 0.0), DotGeometry(20, 14, 5.0, 15.0))
        with pytest.raises(InvalidParameterError, match="finite"):
            DeviceStructure(dots, (bad,), GAAS, 30.0)
        with pytest.raises(InvalidParameterError, match="finite"):
            DeviceStructure(dots, (5.0,), GAAS, bad)
        with pytest.raises(InvalidParameterError, match="finite"):
            gaas_two_dot(field_kv_cm=bad)

    @pytest.mark.parametrize("bad", NONFINITE)
    @pytest.mark.parametrize("kind", ["gaussian", "infinite-well"])
    def test_z_profile(self, kind, bad):
        for center, width in ((bad, 5.0), (0.0, bad)):
            with pytest.raises(InvalidParameterError, match="finite"):
                ZProfile(kind, center, width)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_inplane_gaussian(self, bad):
        for center, std in (((bad, 0.0), 3.0), ((0.0, bad), 3.0), ((0.0, 0.0), bad)):
            with pytest.raises(InvalidParameterError, match="finite"):
                InPlaneGaussian(center, std)

    @pytest.mark.parametrize("bad", NONFINITE)
    def test_charge_density(self, bad):
        z = ZProfile("gaussian", 0.0, 3.0)
        for center, std in (((bad, 0.0), 3.0), ((0.0, bad), 3.0), ((0.0, 0.0), bad)):
            with pytest.raises(InvalidParameterError, match="finite"):
                ChargeDensity(-1, center, std, z)


class TestStructureValidation:
    def test_overlapping_dots_rejected(self):
        dots = (DotGeometry(20, 14, 5.0, 0.0), DotGeometry(20, 14, 5.0, 6.0))
        with pytest.raises(InvalidParameterError):
            DeviceStructure(dots, (5.0,), GAAS, 0.0)

    def test_negative_field_rejected(self):
        dots = (DotGeometry(20, 14, 5.0, 0.0),)
        with pytest.raises(InvalidParameterError):
            DeviceStructure(dots, (), GAAS, -1.0)

    def test_barrier_count_must_match(self):
        dots = (DotGeometry(20, 14, 5.0, 0.0), DotGeometry(20, 14, 5.0, 15.0))
        with pytest.raises(InvalidParameterError):
            DeviceStructure(dots, (), GAAS, 0.0)


class TestBuildRegister:
    def test_register_from_preset(self):
        reg = build_register(gaas_two_dot(field_kv_cm=30.0))
        assert reg.n_qubits == 2
        assert reg.exciton_energies_ev[0] == pytest.approx(1.70, abs=2e-4)
        assert reg.exciton_energies_ev[1] == pytest.approx(1.71, abs=2e-4)
        assert reg.shift_matrix_mev[0, 1] == pytest.approx(4.5, abs=0.01)
        assert reg.shift_matrix_mev[0, 0] == 0.0

    def test_three_dot_stack(self):
        base = gaas_two_dot(field_kv_cm=30.0)
        w = 4.8
        extra = DotGeometry(
            confinement_energy_e_mev=20.0,
            confinement_energy_h_mev=14.0,
            well_width_nm=w,
            z_center_nm=base.dots[1].z_center_nm
            + 0.5 * (base.dots[1].well_width_nm + w)
            + 5.0,
        )
        stack = DeviceStructure(
            dots=(*base.dots, extra),
            barrier_widths_nm=(*base.barrier_widths_nm, 5.0),
            material=base.material,
            field_kv_cm=30.0,
        )
        reg = build_register(stack)
        assert reg.n_qubits == 3
        shifts = reg.shift_matrix_mev
        assert np.array_equal(shifts, shifts.T)
        # nearest neighbors couple more strongly than the far pair
        assert shifts[0, 1] > shifts[0, 2] > 0.0
        assert shifts[1, 2] > shifts[0, 2]
