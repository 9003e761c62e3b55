import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from excitonsim import dynamics, units
from excitonsim.analysis import default_fidelity_states
from excitonsim.dynamics import (
    LindbladChannel,
    SimulationConfig,
    basis_state_density,
    build_generator,
    channel_operator,
    default_reference_energy,
    hermitian_coordinates,
    integrate_master_equation,
    liouvillian_apply,
    map_generator,
    propagate,
    pure_state_density,
    purity,
    stage_hamiltonians,
    step_maps,
    validate_density_matrix,
)
from excitonsim.errors import (
    InvalidParameterError,
    PropagationDiagnosticsError,
    StepCountError,
)
from excitonsim.model import ExcitonRegister
from excitonsim.pulses import (
    GateSpec,
    Pulse,
    PulseSequence,
    TimingPolicy,
    compile_gate,
    field_at,
)

HBAR = units.HBAR_MEV_PS


def single_dot_register(energy_ev=1.70):
    return ExcitonRegister(
        exciton_energies_ev=np.array([energy_ev]),
        shift_matrix_mev=np.zeros((1, 1)),
    )


def two_dot_register():
    return ExcitonRegister(
        exciton_energies_ev=np.array([1.70, 1.71]),
        shift_matrix_mev=np.array([[0.0, 4.5], [4.5, 0.0]]),
    )


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestValidation:
    def test_valid_state_passes(self):
        validate_density_matrix(basis_state_density(2, 0))

    def test_non_hermitian_rejected(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvalidParameterError):
            validate_density_matrix(rho)

    def test_wrong_trace_rejected(self):
        with pytest.raises(InvalidParameterError):
            validate_density_matrix(np.eye(2, dtype=complex))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["diagonal", "coherence"])
    def test_non_finite_rejected(self, value, where):
        rho = np.diag([0.5, 0.5]).astype(complex)
        if where == "diagonal":
            rho[1, 1] = value
        else:
            rho[0, 1] = rho[1, 0] = value
        with np.errstate(invalid="ignore"), pytest.raises(InvalidParameterError):
            validate_density_matrix(rho)

    def test_unnormalized_vector_rejected(self):
        with pytest.raises(InvalidParameterError):
            pure_state_density([1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        ["time_step_ps", "trace_tol", "eig_floor", "reference_energy_ev", "duration_ps"],
    )
    def test_simulation_config_rejects_non_finite(self, field, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            SimulationConfig(**{field: bad})

    @pytest.mark.parametrize("floor", [0.5, 5e-324])
    def test_simulation_config_rejects_positive_eig_floor(self, floor):
        with pytest.raises(InvalidParameterError, match="eig_floor must be non-positive"):
            SimulationConfig(eig_floor=floor)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_channel_rejects_non_finite_or_negative_rate(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            LindbladChannel("decay", 0, bad)


def dense_drive_generator(rho, h0, amps):
    """-(i/hbar)[H, rho] for H = diag(h0) - sum_l (f_l sp_l + conj(f_l) sp_l^+),
    each sigma+_l = sp_l a dense matrix built from the basis-index bits."""
    dim = h0.size
    h = np.diag(h0).astype(complex)
    for l, f_l in enumerate(amps):
        sp = np.zeros((dim, dim))
        for idx in range(dim):
            if not (idx >> l) & 1:
                sp[idx | (1 << l), idx] = 1.0
        if f_l != 0.0:
            h -= f_l * sp + np.conj(f_l) * sp.T.conj()
    return (-1j / HBAR) * (h @ rho - rho @ h)


AMPLITUDE = st.floats(-50.0, 50.0)


def draw_amplitudes(draw, n):
    """N per-dot drive amplitudes: lab-frame real or rotating-frame complex."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(AMPLITUDE, min_size=n, max_size=n)))
    parts = draw(st.lists(st.tuples(AMPLITUDE, AMPLITUDE), min_size=n, max_size=n))
    return np.array([complex(re, im) for re, im in parts])


def hermitian(rng, *shape):
    """An exactly Hermitian (..., d, d) array a + a+ of a random complex a."""
    a = rng.normal(size=(*shape, shape[-1])) + 1j * rng.normal(size=(*shape, shape[-1]))
    return a + a.swapaxes(-1, -2).conj()


def coordinates_of(rho):
    """The (..., d^2) hermitian_coordinates of a (..., d, d) stack, read
    from its entries: rho_ii, then Re rho_ij, then Im rho_ij for i < j."""
    dim = rho.shape[-1]
    upper = np.triu_indices(dim, 1)
    return np.concatenate(
        (np.diagonal(rho, axis1=-2, axis2=-1).real, rho[..., upper[0], upper[1]].real,
         rho[..., upper[0], upper[1]].imag), axis=-1,
    )


def matrices_of(x):
    """The (..., d, d) Hermitian matrices of (..., d^2) coordinates, rebuilt
    through hermitian_coordinates' rebuild matrix."""
    dim = math.isqrt(x.shape[-1])
    _, rebuild = hermitian_coordinates(dim)
    return np.ascontiguousarray(x @ rebuild).view(complex).reshape(*x.shape[:-1], dim, dim)


@st.composite
def drive_cases(draw):
    """(rho, h0, amps): N in 1..6, an exactly Hermitian rho, and lab-frame
    real or rotating-frame complex f_l."""
    n = draw(st.integers(1, 6))
    amps = draw_amplitudes(draw, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return hermitian(rng, 2**n), rng.normal(scale=100.0, size=2**n), amps


def dense_dissipator(register, rho, channels):
    """sum_k (L_k rho L_k+ - 1/2 {L_k+ L_k, rho}) from the dense jump operators."""
    out = np.zeros_like(rho)
    for ch in channels:
        lk = channel_operator(register, ch)
        lk_dag_lk = lk.T.conj() @ lk
        out += lk @ rho @ lk.T.conj() - 0.5 * (lk_dag_lk @ rho + rho @ lk_dag_lk)
    return out


# No subnormal rates: below the normal range sqrt(rate/2)^2 underflows in the
# dense reference and the relative bound rounds to 0, so such a draw checks
# the reference's rounding, not the dissipator.
RATE = st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_subnormal=False))


@st.composite
def channel_cases(draw):
    """(n, rho, channels): N in 1..6, a random complex rho, and a shuffled
    channel list holding both kinds on one dot plus further channels, so that
    dots carry several channels and some rates are 0."""
    n = draw(st.integers(1, 6))
    dot = st.integers(0, n - 1)
    shared = draw(dot)
    channels = [
        LindbladChannel("decay", shared, draw(RATE)),
        LindbladChannel("pure-dephasing", shared, draw(RATE)),
    ]
    kind = st.sampled_from(["decay", "pure-dephasing"])
    channels += draw(st.lists(st.builds(LindbladChannel, kind, dot, RATE), max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2**n
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return n, rho, draw(st.permutations(channels))


@st.composite
def driven_channel_cases(draw, max_dots=5, stacked=False):
    """(n, rho, h0, amps, channels): N in 1..max_dots, an exactly Hermitian
    rho (stacked: a (B, d, d) stack of 1..8 of them), drive_cases'
    amplitudes and a non-empty channel list, dephasing-only in some draws,
    with rates that may be 0."""
    n = draw(st.integers(1, max_dots))
    amps = draw_amplitudes(draw, n)
    kinds = ["pure-dephasing"] if draw(st.booleans()) else ["decay", "pure-dephasing"]
    kind, dot = st.sampled_from(kinds), st.integers(0, n - 1)
    channels = draw(
        st.lists(st.builds(LindbladChannel, kind, dot, RATE), min_size=1, max_size=8)
    )
    shape = (draw(st.integers(1, 8)), 2**n) if stacked else (2**n,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, hermitian(rng, *shape), rng.normal(scale=100.0, size=2**n), amps, channels


def drive_hamiltonian(generator, amps):
    """The Hamiltonian that stage_hamiltonians writes for one set of per-dot
    amplitudes."""
    h = generator.h0[None].copy()
    stage_hamiltonians(generator, h)(amps[None])
    return h[0]


def one_dot_bound(rho, h):
    """How far liouvillian_apply's one-product commutator of a Hermitian rho
    may stray from the two-product h rho - rho h: 0 for N >= 2, where the
    BLAS product rho h is bitwise (h rho)+ at every d = 4..64 tried.  For
    2x2 matrices the imaginary part of its diagonal can round apart from
    that of (h rho)+ (a third of random draws); each such difference is a
    few roundings of the largest entry of |h| |rho|, so the bound is 4 ulps
    of it over hbar (the worst of 20000 random draws was 2.6 ulps)."""
    if len(rho) > 2:
        return 0.0
    return product_bound(rho, h)


def product_bound(rho, h):
    """Four ulps of the largest entry of |h| |rho|, over hbar: how far two
    orders of summing the entries of rho h may round apart in the
    commutator (one_dot_bound)."""
    return 4 * np.spacing((np.abs(h) @ np.abs(rho)).max()) / HBAR


class TestLiouvillian:
    @given(drive_cases())
    @settings(max_examples=150, deadline=None)
    def test_written_drive_equals_dense_sigma_sum(self, case):
        rho, h0, amps = case
        generator = build_generator(h0)
        h = drive_hamiltonian(generator, amps)
        out = liouvillian_apply(rho, h, generator)
        expected = dense_drive_generator(rho, h0, amps)
        if len(rho) > 2:
            assert np.array_equal(out, expected)
        else:
            assert np.max(np.abs(out - expected)) <= one_dot_bound(rho, h)

    @pytest.mark.parametrize("channels", [[], [LindbladChannel("decay", 1, 0.5)]])
    def test_one_matrix_product_per_call(self, channels):
        products = []

        class Counted(np.ndarray):
            """An array that records every matrix product it takes part in,
            np.matmul or np.dot."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products.append(f"matmul.{method}")
                inputs = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

            def __array_function__(self, func, types, args, kwargs):
                if func is np.dot:
                    products.append("dot")
                return super().__array_function__(func, types, args, kwargs)

        rng = np.random.default_rng(7)
        generator = build_generator(rng.normal(scale=100.0, size=8), channels)
        h = drive_hamiltonian(generator, np.array([1.0, 2.0 - 1.0j, 0.5j]))
        out = liouvillian_apply(hermitian(rng, 2, 8), h.view(Counted), generator)
        assert products == ["dot"]
        assert type(out) is np.ndarray

    def test_real_state_and_hamiltonian_equal_their_complex_copies(self):
        generator = build_generator(np.array([0.0, 1700.0, 1710.0, 3414.5]))
        rho = np.diag([0.5, 0.25, 0.25, 0.0])
        rho[0, 1] = rho[1, 0] = 0.1
        h = np.diag([0.0, 1700.0, 1710.0, 3414.5])
        h[1, 3] = h[3, 1] = -2.5
        expected = liouvillian_apply(rho.astype(complex), h.astype(complex), generator)
        assert np.array_equal(liouvillian_apply(rho, h, generator), expected)

    def test_diagonal_state_is_stationary_without_drive(self):
        h0 = np.array([0.0, 1700.0, 1710.0, 3414.5])
        rho = basis_state_density(2, 1)
        generator = build_generator(h0)
        out = liouvillian_apply(rho, generator.h0, generator)
        assert np.max(np.abs(out)) == 0.0

    def test_decay_rate_on_population(self):
        reg = single_dot_register()
        t1 = 2.0
        channels = [LindbladChannel("decay", 0, 1.0 / t1)]
        rho = basis_state_density(1, 1)
        generator = build_generator(np.zeros(2**reg.n_qubits), channels)
        out = liouvillian_apply(rho, generator.h0, generator)
        assert out[1, 1].real == pytest.approx(-1.0 / t1, rel=1e-12)
        assert out[0, 0].real == pytest.approx(1.0 / t1, rel=1e-12)

    def test_pure_dephasing_touches_only_coherences(self):
        reg = single_dot_register()
        gamma = 0.37
        channels = [LindbladChannel("pure-dephasing", 0, gamma)]
        rho = pure_state_density(np.array([1.0, 1.0]) / math.sqrt(2))
        generator = build_generator(np.zeros(2**reg.n_qubits), channels)
        out = liouvillian_apply(rho, generator.h0, generator)
        assert out[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert out[1, 1] == pytest.approx(0.0, abs=1e-15)
        assert out[0, 1] == pytest.approx(-gamma * rho[0, 1], rel=1e-12)


    @given(channel_cases())
    @settings(max_examples=150, deadline=None)
    def test_dissipator_equals_dense_lindblad_sum(self, case):
        n, rho, channels = case
        reg = ExcitonRegister(np.full(n, 1.7), np.zeros((n, n)))
        generator = build_generator(np.zeros(2**n), channels)
        out = liouvillian_apply(rho, generator.h0, generator)
        bound = 1e-13 * np.abs(rho).max() * sum(ch.rate_per_ps for ch in channels)
        assert np.max(np.abs(out - dense_dissipator(reg, rho, channels))) <= bound

    @given(driven_channel_cases())
    @settings(max_examples=150, deadline=None)
    def test_drive_with_channels_equals_dense_sum(self, case):
        # The coherent part is bit-equal to the dense one for N >= 2 and
        # within one_dot_bound at N = 1 (see above), so beyond the
        # dissipator's bound only the final sum of the two parts may round
        # differently: by an ulp of its real and of its imaginary part, at
        # most two ulps of |expected| together.
        n, rho, h0, amps, channels = case
        reg = ExcitonRegister(np.full(n, 1.7), np.zeros((n, n)))
        generator = build_generator(h0, channels)
        h = drive_hamiltonian(generator, amps)
        out = liouvillian_apply(rho, h, generator)
        expected = dense_drive_generator(rho, h0, amps) + dense_dissipator(
            reg, rho, channels
        )
        bound = 1e-13 * np.abs(rho).max() * sum(ch.rate_per_ps for ch in channels)
        bound += one_dot_bound(rho, h)
        assert np.all(np.abs(out - expected) <= bound + 2 * np.spacing(np.abs(expected)))

    @given(driven_channel_cases(max_dots=3, stacked=True))
    @settings(max_examples=150, deadline=None)
    def test_liouville_form_equals_dense_sum(self, case):
        # the map form's real generator, which the integrator takes for
        # channels at N <= 2 and which holds at N = 3 too: at the drawn
        # amplitudes, row k of L0 + [Re f, Im f] @ drive is the dense
        # Lindblad generator of the basis matrix E_k in coordinates, within
        # the dissipator's bound.  Its coherent part is exact in 3000 random
        # draws (no entry sums a drive term with an H0 term), and 2 ulps of
        # the largest entry are allowed for it.
        n, rho, h0, amps, channels = case
        dim = 2**n
        reg = ExcitonRegister(np.full(n, 1.7), np.zeros((n, n)))
        l0, drive = map_generator(build_generator(h0, channels))
        real = l0 + (np.concatenate((amps.real, amps.imag)) @ drive).reshape(l0.shape)
        basis = matrices_of(np.eye(dim * dim))
        dense = coordinates_of(np.array([
            dense_drive_generator(e, h0, amps) + dense_dissipator(reg, e, channels)
            for e in basis
        ]))
        bound = 1e-13 * sum(ch.rate_per_ps for ch in channels)
        assert np.all(np.abs(real - dense) <= bound + 2 * np.spacing(np.abs(dense).max()))
        # the derivative x L of each member rebuilds an exactly Hermitian matrix
        derivative = matrices_of(coordinates_of(rho) @ real)
        assert np.array_equal(derivative, derivative.swapaxes(-1, -2).conj())

    @pytest.mark.parametrize(
        "n, channels, map_form",
        [(2, False, False), (2, True, True), (3, True, False), (4, True, False)],
        ids=["2-dots-coherent", "2-dots-channels", "3-dots-channels", "4-dots-channels"],
    )
    def test_integrator_picks_the_liouville_form_up_to_two_dots(
        self, monkeypatch, n, channels, map_form
    ):
        # the map form applies the row table only to read its generator off
        # the d^2 basis matrices, 2N + 1 bound and applied stages however
        # many steps; the stage loop applies its bound stages four times per
        # step to the (1, d, d) state
        shapes = []
        bind = dynamics.stage_apply

        def recording_bind(generator, shape):
            apply = bind(generator, shape)

            def recording_apply(rows, h, out):
                shapes.append(shape)
                return apply(rows, h, out)

            return recording_apply

        monkeypatch.setattr(dynamics, "stage_apply", recording_bind)
        dim = 2**n
        channel_list = [LindbladChannel("decay", 0, 0.1)] if channels else []
        config = SimulationConfig(time_step_ps=1e-3)
        traj = integrate_master_equation(
            basis_state_density(n, dim - 1), np.zeros(dim), None, channel_list, 0.0, 0.01, config
        )
        if map_form:
            assert shapes == [(dim * dim, dim, dim)] * (2 * n + 1)
        else:
            assert shapes == [(1, dim, dim)] * (4 * traj.n_steps)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("members", [1, 2, 8, 41])
    @pytest.mark.parametrize("driven", [False, True], ids=["h0", "drive"])
    @pytest.mark.parametrize("with_channels", [False, True], ids=["coherent", "channels"])
    def test_stack_equals_member_calls(self, n, members, driven, with_channels):
        # the stack's one product over its B*d rows rounds every member as a
        # product of that member alone does, whether the stack is laid out
        # as the integrator's buffers (C order) or with transposed members
        rng = np.random.default_rng([n, members, driven, with_channels])
        channels = [
            LindbladChannel(kind, l, 0.1 * (l + 1))
            for l in range(n) for kind in ("decay", "pure-dephasing")
        ] if with_channels else []
        generator = build_generator(rng.normal(scale=100.0, size=2**n), channels)
        h = generator.h0
        if driven:
            h = drive_hamiltonian(generator, rng.normal(size=n) + 1j * rng.normal(size=n))
        drawn = np.ascontiguousarray(hermitian(rng, members, 2**n))
        for rho in (drawn, drawn.swapaxes(-1, -2).conj()):
            out = liouvillian_apply(rho, h, generator)
            assert out.shape == rho.shape
            assert np.array_equal(out, [liouvillian_apply(member, h, generator) for member in rho])


@st.composite
def hermitian_stack_cases(draw, max_dots=6, max_members=4, stacks=()):
    """(rho, h, generator): N in 1..max_dots, an exactly Hermitian (B, d, d)
    stack with B in 1..max_members (stacks: a (*stacks, B, d, d) array of
    such stacks), and the generator of a random H0 and of a channel list of
    both kinds that may be empty, with rates that may be 0.  h is its H0,
    or H0 with a drive of draw_amplitudes' amplitudes, or a random exactly
    Hermitian matrix."""
    n = draw(st.integers(1, max_dots))
    kind, dot = st.sampled_from(["decay", "pure-dephasing"]), st.integers(0, n - 1)
    channels = draw(st.lists(st.builds(LindbladChannel, kind, dot, RATE), max_size=6))
    h_kind = draw(st.sampled_from(["h0", "drive", "dense"]))
    amps = draw_amplitudes(draw, n) if h_kind == "drive" else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = hermitian(rng, *stacks, draw(st.integers(1, max_members)), 2**n)
    generator = build_generator(rng.normal(scale=100.0, size=2**n), channels)
    if h_kind == "h0":
        return rho, generator.h0, generator
    if h_kind == "drive":
        return rho, drive_hamiltonian(generator, amps), generator
    return rho, 50.0 * hermitian(rng, 2**n), generator


class TestExactHermiticity:
    """Every stage derivative, and so every state, is exactly Hermitian: the
    step check's Cholesky reads only one triangle of each state."""

    @given(hermitian_stack_cases())
    @settings(max_examples=150, deadline=None)
    def test_liouvillian_apply_of_hermitian_stack_is_hermitian(self, case):
        rho, h, generator = case
        out = liouvillian_apply(rho, h, generator)
        assert np.array_equal(out, out.swapaxes(-1, -2).conj())

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_checked_state_is_hermitian(self, n, step_states):
        # rho0 passes validate_density_matrix with an anti-Hermitian part of
        # 1e-13, which the integrator removes once on entry
        energies = 1.70 + 0.01 * np.arange(n)
        shifts = np.diag(np.full(n - 1, 4.5), 1)
        register = ExcitonRegister(energies, shifts + shifts.T)
        sequence = PulseSequence(tuple(
            Pulse(carrier_energy_ev=energies[l], center_ps=0.6 + 0.4 * l, tau_ps=0.2,
                  area_rad=math.pi / (l + 1), target_dipole=l)
            for l in range(n)
        ))
        channels = [LindbladChannel(kind, l, 0.1 * (l + 1))
                    for l in range(n) for kind in ("decay", "pure-dephasing")]
        rng = np.random.default_rng(n)
        b = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        anti = b - b.conj().T
        rho0 = pure_state_density(np.full(2**n, 2 ** (-n / 2)))
        rho0 = rho0 + 1e-13 * anti / np.abs(anti).max()
        assert not np.array_equal(rho0, rho0.conj().T)
        config = SimulationConfig(time_step_ps=5e-3)
        traj = propagate(rho0, sequence, register, channels, config)
        assert len(step_states) == traj.n_steps
        assert all(np.array_equal(state, state.conj().T) for state in step_states)


class TestBoundStage:
    """stage_apply binds a stage once per run, with its own buffers, and the
    stage loop applies it to stack after stack."""

    @given(hermitian_stack_cases(max_dots=3, max_members=8, stacks=(2,)), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_reused_stage_equals_fresh_member_calls(self, case, doubled):
        # two different stacks in a row through one bound stage and one
        # output buffer, as the loop's k1 .. k4: the reused product, gather
        # and sum buffers leak nothing from the first call into the second
        stacks, h, generator = case
        if doubled:
            generator = generator.doubled()
        shape = stacks.shape[1:]
        apply = dynamics.stage_apply(generator, shape)
        out = np.empty(shape, dtype=complex)
        for rho in stacks:
            result = apply(rho.reshape(-1, shape[-1]), h, out)
            assert result is out
            assert np.array_equal(out, liouvillian_apply(rho, h, generator))
            assert np.array_equal(out, [liouvillian_apply(member, h, generator) for member in rho])
            assert np.array_equal(out, out.swapaxes(-1, -2).conj())


class TestMapForm:
    """Runs with channels on at most LIOUVILLE_MAX_DIM basis states carry
    each state as its real coordinates through one step map per RK4 step."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coordinates_rebuild_hermitian_matrices_exactly(self, n):
        dim = 2**n
        rho = hermitian(np.random.default_rng(n), 5, dim)
        columns, _ = hermitian_coordinates(dim)
        x = coordinates_of(rho)
        assert np.array_equal(rho.view(float).reshape(5, -1)[:, columns], x)
        assert np.array_equal(matrices_of(x), rho)

    @pytest.mark.parametrize("seed", range(5))
    def test_step_map_is_the_rk4_step(self, seed):
        # x + x E against the four stages of RK4 on random stage
        # generators: the same sums in another order
        rng = np.random.default_rng(seed)
        size, dt = 16, 1e-3
        stages = rng.normal(scale=50.0, size=(3, 3, size, size))
        x = rng.normal(size=(3, size))
        expected = []
        for (l1, l2, l3), x_k in zip(stages, x):
            k1 = x_k @ l1
            k2 = (x_k + 0.5 * dt * k1) @ l2
            k3 = (x_k + 0.5 * dt * k2) @ l2
            k4 = (x_k + dt * k3) @ l3
            expected.append(x_k + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
        increments = step_maps(0.5 * dt * stages.swapaxes(0, 1), np.empty((2, 3, size, size)))
        out = x + np.einsum("si,sij->sj", x, increments)
        assert np.allclose(out, expected, rtol=0, atol=1e-13 * np.abs(expected).max())

    @pytest.mark.parametrize(
        "driven, dots, with_channels, stacked",
        [
            pytest.param(False, 2, True, True, id="h0"),
            pytest.param(True, 2, True, True, id="drive"),
            *(
                pytest.param(
                    True, dots, dots == 3, stacked,
                    id="-".join(
                        ["stage", "3-dots-channels" if dots == 3 else "coherent",
                         "stack" if stacked else "single"]
                    ),
                )
                for dots in (2, 3) for stacked in (False, True)
            ),
        ],
    )
    def test_run_does_not_depend_on_the_batch_length(
        self, monkeypatch, driven, dots, with_channels, stacked
    ):
        # one step per checked batch, where each step's state is written
        # into the slot that holds the state it reads, ends bit for bit
        # where the default batches do, in the map form (the two-dot runs
        # with channels) and in the stage form (coherent two-dot runs,
        # three-dot runs with channels): the state handed from one batch to
        # the next is the state the last step left
        if dots == 2:
            register, sequence, channels = (
                two_dot_register(), TestDriveBlocks.SEQUENCE, TestDriveBlocks.CHANNELS
            )
        else:
            register, sequence, channels = (
                TestDriveBlocks.REGISTER_3, TestDriveBlocks.SEQUENCE_3, TestDriveBlocks.CHANNELS_3
            )
        sequence = sequence if driven else PulseSequence(())
        channels = channels if with_channels else ()
        config = SimulationConfig(time_step_ps=1e-3, duration_ps=0.7)
        rho0 = np.array([random_density(np.random.default_rng(k), 2**dots) for k in range(3)])
        rho0 = rho0 if stacked else rho0[0]
        expected = propagate(rho0, sequence, register, channels, config)
        monkeypatch.setattr(dynamics, "EIG_BATCH_BYTES", 1)
        batches = record_batches(monkeypatch)
        traj = propagate(rho0, sequence, register, channels, config)
        assert set(batches) == {(1, 1)} and len(batches) == traj.n_steps
        assert np.array_equal(traj.final_state, expected.final_state)
        assert np.array_equal(traj.populations, expected.populations)
        assert np.array_equal(traj.coherences, expected.coherences)

    def test_stack_in_any_memory_layout(self):
        # a stack whose member axis is innermost in memory runs as its
        # C-ordered copy does
        rho0 = np.array([random_density(np.random.default_rng(k), 4) for k in range(3)])
        strided = np.ascontiguousarray(np.moveaxis(rho0, 0, -1)).transpose(2, 0, 1)
        assert np.array_equal(strided, rho0) and not strided.flags.c_contiguous
        runs = [
            integrate_master_equation(
                rho, np.zeros(4), None, TestDriveBlocks.CHANNELS, 0.0, 0.01, SimulationConfig()
            )
            for rho in (rho0, strided)
        ]
        assert np.array_equal(runs[0].final_state, runs[1].final_state)

    def test_members_equal_their_own_runs_and_are_hermitian(self, step_states):
        # gate_fidelity's CNOT stack with the channels of
        # configs/decoherence_two_dot.cfg: every member of the stack ends bit
        # for bit where a run of its own does, and every checked state of
        # every run is exactly Hermitian
        reg = two_dot_register()
        seq = compile_gate(reg, GateSpec("cnot", 1, conditions=((0, 1),)))
        channels = [
            LindbladChannel("decay", 0, 0.002),
            LindbladChannel("decay", 1, 0.002),
            LindbladChannel("pure-dephasing", 0, 0.02),
            LindbladChannel("pure-dephasing", 1, 0.02),
        ]
        rho0 = np.array([pure_state_density(psi) for psi in default_fidelity_states(2)])
        config = SimulationConfig(time_step_ps=2e-3)
        stacked = propagate(rho0, seq, reg, channels, config)
        assert len(step_states) == len(rho0) * stacked.n_steps
        for k, member in enumerate(rho0):
            single = propagate(member, seq, reg, channels, config)
            assert np.array_equal(stacked.final_state[k], single.final_state)
            assert np.array_equal(stacked.populations[:, k], single.populations)
            assert np.array_equal(stacked.coherences[:, k], single.coherences)
        assert len(step_states) == 2 * len(rho0) * stacked.n_steps
        assert all(np.array_equal(state, state.conj().T) for state in step_states)


class TestAnalyticChannels:
    def test_amplitude_damping_solution(self):
        # rho11(t) = exp(-t/T1) within 1e-6 relative over five lifetimes
        reg = single_dot_register()
        t1 = 2.0
        config = SimulationConfig(time_step_ps=0.005, duration_ps=5 * t1)
        traj = propagate(
            basis_state_density(1, 1),
            PulseSequence(()),
            reg,
            channels=[LindbladChannel("decay", 0, 1.0 / t1)],
            config=config,
        )
        expected = np.exp(-traj.times_ps / t1)
        rel = np.abs(traj.populations[:, 1] - expected) / expected
        assert rel.max() < 1e-6

    def test_pure_dephasing_solution(self):
        reg = single_dot_register()
        gamma = 0.5
        plus = pure_state_density(np.array([1.0, 1.0]) / math.sqrt(2))
        config = SimulationConfig(
            time_step_ps=0.005, duration_ps=10.0, reference_energy_ev=1.70
        )
        traj = propagate(
            plus,
            PulseSequence(()),
            reg,
            channels=[LindbladChannel("pure-dephasing", 0, gamma)],
            config=config,
        )
        # populations untouched, coherence decays at gamma
        assert np.allclose(traj.populations, 0.5, atol=1e-9)
        expected = 0.5 * np.exp(-gamma * traj.times_ps)
        rel = np.abs(np.abs(traj.coherences) - expected) / expected
        assert rel.max() < 1e-6

    def test_decay_rate_zero_is_inert(self):
        reg = single_dot_register()
        config = SimulationConfig(time_step_ps=0.01, duration_ps=1.0)
        traj = propagate(
            basis_state_density(1, 1),
            PulseSequence(()),
            reg,
            channels=[LindbladChannel("decay", 0, 0.0)],
            config=config,
        )
        assert traj.populations[-1, 1] == pytest.approx(1.0, abs=1e-12)


class TestMatrixExponentialOracle:
    def test_drive_free_evolution_matches_expm(self):
        rng = np.random.default_rng(5)
        rho0 = random_density(rng, 4)
        h0 = np.array([0.0, 0.0, 10.0, 14.5])  # rotating-frame diagonal, meV
        config = SimulationConfig(time_step_ps=5e-4, duration_ps=2.0)
        traj = integrate_master_equation(
            rho0, h0, None, [], 0.0, 2.0, config
        )
        u = expm(-1j * np.diag(h0) * 2.0 / HBAR)
        expected = u @ rho0 @ u.conj().T
        assert np.max(np.abs(traj.final_state - expected)) < 1e-8

    def test_empty_sequence_is_identity(self):
        reg = two_dot_register()
        rho0 = basis_state_density(2, 0)
        config = SimulationConfig(time_step_ps=1e-3, duration_ps=1.0)
        traj = propagate(rho0, PulseSequence(()), reg, config=config)
        assert np.max(np.abs(traj.final_state - rho0)) < 1e-10
        assert np.allclose(traj.populations, traj.populations[0], atol=1e-12)


class TestResonantAreaLaw:
    @pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2, math.pi])
    def test_final_population_sin_squared(self, theta, step_purities):
        reg = single_dot_register()
        pulse = Pulse(
            carrier_energy_ev=1.70,
            center_ps=0.5,
            tau_ps=0.1,
            area_rad=theta,
        )
        config = SimulationConfig(time_step_ps=1e-3)
        rho0 = basis_state_density(1, 0)
        traj = propagate(rho0, PulseSequence((pulse,)), reg, config=config)
        assert traj.populations[-1, 1] == pytest.approx(
            math.sin(theta / 2.0) ** 2, abs=1e-4
        )
        # unitary run: trace and purity conserved
        assert traj.max_trace_drift < 1e-9
        assert len(step_purities) == traj.n_steps
        assert max(abs(p - purity(rho0)) for p in step_purities) < 1e-8


class TestThreeQubitRegister:
    def test_resonant_flip_of_middle_dot(self):
        reg = ExcitonRegister(
            exciton_energies_ev=np.array([1.69, 1.70, 1.71]),
            shift_matrix_mev=np.zeros((3, 3)),
        )
        pulse = Pulse(
            carrier_energy_ev=1.70, center_ps=2.0, tau_ps=0.5,
            area_rad=math.pi, target_dipole=1,
        )
        config = SimulationConfig(time_step_ps=1e-3, reference_energy_ev=1.70)
        traj = propagate(
            basis_state_density(3, 0), PulseSequence((pulse,)), reg, config=config
        )
        assert traj.occupations[-1] == pytest.approx([0.0, 1.0, 0.0], abs=1e-4)


class TestDetunedRabi:
    def test_generalized_rabi_formula(self):
        # constant drive, detuning Delta: P1(t) = Omega^2/(Omega^2+Delta^2)
        #   * sin^2(sqrt(Omega^2+Delta^2) t / 2 hbar)
        omega, delta = 2.0, 1.5  # meV
        h0 = np.array([0.0, delta])
        config = SimulationConfig(time_step_ps=1e-3, sample_stride=50)
        traj = integrate_master_equation(
            basis_state_density(1, 0),
            h0,
            lambda times: np.full((len(times), 1), 0.5 * omega, dtype=complex),
            [],
            0.0,
            3.0,
            config,
        )
        og = math.hypot(omega, delta)
        expected = (omega / og) ** 2 * np.sin(og * traj.times_ps / (2 * HBAR)) ** 2
        assert np.max(np.abs(traj.populations[:, 1] - expected)) < 1e-4


class TestFrames:
    def test_lab_and_rotating_agree_on_populations(self, lab_frame_reference):
        # ultrafast two-color sequence, both frames, same physics
        reg = two_dot_register()
        policy = TimingPolicy(tau_ps=0.1, selectivity_fraction=2.0)
        seq = compile_gate(
            reg, GateSpec("cnot", 1, conditions=((0, 1),)), policy
        )
        rho0 = basis_state_density(2, 0)
        rot = propagate(
            rho0, seq, reg, config=SimulationConfig(time_step_ps=2e-4)
        )
        # lab-frame integration carries O(1e-5) eigenvalue truncation noise
        # from the optical carrier even at the smallest practical steps, so
        # the positivity floor is relaxed for this validation run
        lab = lab_frame_reference(
            reg, seq, rho0, SimulationConfig(time_step_ps=2e-5, eig_floor=-1e-3)
        )
        assert np.max(np.abs(rot.populations[-1] - lab.populations[-1])) < 1e-2

    def test_rotating_frame_step_vs_pulse_duration(self):
        reg = two_dot_register()
        policy = TimingPolicy(tau_ps=0.1, selectivity_fraction=2.0)
        seq = compile_gate(reg, GateSpec("cnot", 1, conditions=((0, 1),)), policy)
        with pytest.raises(InvalidParameterError):
            propagate(
                basis_state_density(2, 0),
                seq,
                reg,
                config=SimulationConfig(time_step_ps=0.01),
            )

    def test_default_reference_is_first_pulse_target(self):
        reg = two_dot_register()
        seq = compile_gate(reg, GateSpec("cnot", 1, conditions=((0, 1),)))
        assert default_reference_energy(seq, reg) == 1.71
        assert default_reference_energy(PulseSequence(()), reg) == 1.70

    def test_interaction_picture_removes_free_phases(self):
        rng = np.random.default_rng(3)
        rho0 = random_density(rng, 4)
        h0 = np.array([0.0, 3.0, 7.0, 11.5])
        config = SimulationConfig(time_step_ps=5e-4)
        traj = integrate_master_equation(rho0, h0, None, [], 0.0, 1.5, config)
        rho_int = traj.final_state_interaction_picture()
        assert np.max(np.abs(rho_int - rho0)) < 1e-8


class TestIndependentIntegrator:
    def test_broadband_protocol_matches_adaptive_solver(self, adaptive_reference):
        # cross-check the fixed-step propagator against scipy's adaptive
        # RK45 on the 0.1 ps two-color sequence, where the outcome (large
        # off-branch leakage) is physically surprising enough to deserve
        # two independent routes; the whole density matrix is compared,
        # since gate fidelities rest on its coherences, not only on the
        # populations
        reg = two_dot_register()
        seq = PulseSequence(
            (
                Pulse(1.70, 0.2, 0.1, math.pi / 2, target_dipole=0),
                Pulse(1.7145, 0.8, 0.1, math.pi, target_dipole=1),
            )
        )
        config = SimulationConfig(time_step_ps=2e-4, reference_energy_ev=1.70)
        rho0 = basis_state_density(2, 0)
        traj = propagate(rho0, seq, reg, config=config)
        rho_ref = adaptive_reference(
            reg, seq, rho0, traj.times_ps[0], traj.final_time_ps, 1.70
        )
        assert np.max(np.abs(rho_ref - traj.final_state)) < 1e-6
        assert np.max(np.abs(np.diag(rho_ref).real - traj.populations[-1])) < 1e-6

    def test_cnot_with_channels_converges_at_fourth_order(self, adaptive_reference):
        # the compiled CNOT on the two-dot register with the four channels
        # of configs/decoherence_two_dot.cfg, gate_fidelity's stack of
        # reference states: halving the step must cut the error against the
        # adaptive Lindblad solution by 2^4, to within half an order (the
        # solution's own error is about 1e-9, the errors 1.2e-7 and 7.9e-9)
        reg = two_dot_register()
        seq = compile_gate(reg, GateSpec("cnot", 1, conditions=((0, 1),)))
        channels = [
            LindbladChannel("decay", 0, 0.002),
            LindbladChannel("decay", 1, 0.002),
            LindbladChannel("pure-dephasing", 0, 0.02),
            LindbladChannel("pure-dephasing", 1, 0.02),
        ]
        rho0 = np.array([pure_state_density(psi) for psi in default_fidelity_states(2)])
        coarse, fine = (
            propagate(rho0, seq, reg, channels, SimulationConfig(time_step_ps=dt))
            for dt in (2e-3, 1e-3)
        )
        rho_ref = adaptive_reference(
            reg, seq, rho0, fine.times_ps[0], fine.final_time_ps,
            default_reference_energy(seq, reg), channels,
        )
        error_coarse, error_fine = (
            np.max(np.abs(run.final_state - rho_ref)) for run in (coarse, fine)
        )
        assert 2**3.5 < error_coarse / error_fine < 2**4.5

    def test_three_dot_lindblad_converges_at_fourth_order(self, adaptive_reference):
        # the stage form's row-table dissipator at N = 3, against the
        # adaptive solution of the dense jump operators: the conditional
        # rotation of b when a:1,c:0 on tools/artifact_hashes.py's
        # chain3_lindblad register, its shifts times 4 (18 and 12 meV), so
        # that the one pulse (tau = 0.439 ps) spans the whole run, with a
        # decay and a dephasing channel on every dot; halving the step must
        # cut the error by 2^4, to within half an order (the errors
        # 2.7e-5 and 1.7e-6)
        reg = ExcitonRegister(
            np.array([1.70, 1.71, 1.72]),
            np.array([[0.0, 18.0, 0.0], [18.0, 0.0, 12.0], [0.0, 12.0, 0.0]]),
        )
        seq = compile_gate(reg, GateSpec("conditional-rotation", 1, math.pi, ((0, 1), (2, 0))))
        channels = [
            LindbladChannel("decay", 0, 0.002),
            LindbladChannel("decay", 1, 0.003),
            LindbladChannel("decay", 2, 0.004),
            LindbladChannel("pure-dephasing", 0, 0.02),
            LindbladChannel("pure-dephasing", 1, 0.03),
            LindbladChannel("pure-dephasing", 2, 0.04),
        ]
        psi = np.zeros(8)
        psi[[0, 1]] = 1.0 / math.sqrt(2.0)  # (|000> + |100>)/sqrt(2), a excited in |100>
        rho0 = pure_state_density(psi)
        coarse, fine = (
            propagate(rho0, seq, reg, channels, SimulationConfig(time_step_ps=dt))
            for dt in (4e-3, 2e-3)
        )
        rho_ref = adaptive_reference(
            reg, seq, rho0, fine.times_ps[0], fine.final_time_ps,
            default_reference_energy(seq, reg), channels,
        )
        error_coarse, error_fine = (
            np.max(np.abs(run.final_state - rho_ref)) for run in (coarse, fine)
        )
        assert 2**3.5 < error_coarse / error_fine < 2**4.5


def assert_matches_stage_loop(traj, expected, map_form):
    """A run's final state against rk4_reference's stage loop: bit for bit,
    or for a run in the map form within an ulp of 1 (the trace) per step,
    since the map form sums each step in another order (measured: 7.0e-16
    after the 4,681 steps of gate_fidelity's CNOT stack, 1.2e-16 after
    test_equals_per_stage_reference's 600)."""
    if map_form:
        bound = traj.n_steps * np.finfo(float).eps
        assert np.max(np.abs(traj.final_state - expected)) <= bound
    else:
        assert np.array_equal(traj.final_state, expected)


def record_batches(monkeypatch):
    """The list of (filled, size) of every batch the integrator's step check
    tests while the test runs: the steps checked and the batch's length."""
    batches = []
    check = dynamics._StepCheck.check

    def recording_check(self, first_step, filled):
        batches.append((filled, self.size))
        check(self, first_step, filled)

    monkeypatch.setattr(dynamics._StepCheck, "check", recording_check)
    return batches


class TestDriveBlocks:
    """propagate evaluates the drive once per DRIVE_BLOCK_STEPS steps, writes
    the stage Hamiltonians of each checked batch of steps into one buffer
    and forms 2 k2 and 2 k3 from a doubled generator; the result is bit for
    bit that of a loop that builds every stage's H on its own and doubles
    k2 and k3 after the fact, and within roundoff of it in the map form
    (assert_matches_stage_loop)."""

    SEQUENCE = PulseSequence(
        (
            Pulse(1.70, 0.2, 0.05, math.pi / 2, target_dipole=0),
            Pulse(1.7145, 0.4, 0.05, math.pi, target_dipole=1),
        )
    )
    CONFIG = SimulationConfig(time_step_ps=1e-3)
    CHANNELS = (
        LindbladChannel("decay", 0, 0.3),
        LindbladChannel("pure-dephasing", 1, 0.2),
        LindbladChannel("decay", 1, 0.1),
    )
    # a 3-dot register (d = 8) with a decay and a dephasing channel on
    # every dot, and a third pulse on dot c
    REGISTER_3 = ExcitonRegister(
        np.array([1.70, 1.71, 1.72]),
        np.array([[0.0, 4.5, 0.0], [4.5, 0.0, 9.0], [0.0, 9.0, 0.0]]),
    )
    SEQUENCE_3 = PulseSequence(
        (*SEQUENCE.pulses, Pulse(1.72, 0.3, 0.05, math.pi / 3, target_dipole=2))
    )
    CHANNELS_3 = tuple(
        LindbladChannel(kind, l, 0.1 * (l + 1))
        for l in range(3) for kind in ("decay", "pure-dephasing")
    )

    @pytest.mark.parametrize(
        "with_channels, stacked, dots",
        [
            pytest.param(
                with_channels, stacked, dots,
                id="-".join(
                    ["channels" if with_channels else "coherent", "stack" if stacked else "single"]
                    + (["3-dots"] if dots == 3 else [])
                ),
            )
            for dots in (2, 3) for with_channels in (False, True) for stacked in (False, True)
        ],
    )
    def test_equals_per_stage_reference(
        self, monkeypatch, rk4_reference, with_channels, stacked, dots
    ):
        rng = np.random.default_rng(11)
        dim = 2**dots
        rho0 = (
            np.array([random_density(rng, dim) for _ in range(3)])
            if stacked
            else random_density(rng, dim)
        )
        if dots == 2:
            reg, sequence, channels = two_dot_register(), self.SEQUENCE, self.CHANNELS
        else:
            reg, sequence, channels = self.REGISTER_3, self.SEQUENCE_3, self.CHANNELS_3
        channels = channels if with_channels else ()
        batches = record_batches(monkeypatch)
        traj = propagate(rho0, sequence, reg, channels, self.CONFIG)
        # several checked batches, the last one partly filled
        assert len(batches) > 1 and batches[-1][0] < batches[-1][1]
        expected = rk4_reference(rho0, sequence, reg, channels, self.CONFIG)
        assert_matches_stage_loop(traj, expected, map_form=with_channels and dots == 2)

    @pytest.mark.parametrize("with_channels", [False, True], ids=["coherent", "channels"])
    def test_run_shorter_than_one_batch_equals_per_stage_reference(
        self, monkeypatch, rk4_reference, with_channels
    ):
        # batches of 1 MiB of states: 4096 steps of one 4 x 4 state, and 614
        # in the map form of the channels case, whose stage buffers cut its
        # batches to 38 steps at the default bound, fewer than any propagate
        # run takes (8 tau over steps of at most tau/20)
        monkeypatch.setattr(dynamics, "EIG_BATCH_BYTES", 1 << 20)
        batches = record_batches(monkeypatch)
        config = SimulationConfig(time_step_ps=2.5e-3)  # tau/20
        rho0 = random_density(np.random.default_rng(12), 4)
        channels = self.CHANNELS if with_channels else ()
        traj = propagate(rho0, self.SEQUENCE, two_dot_register(), channels, config)
        # one checked batch, partly filled: the stage buffer's last write
        # holds only the run's steps
        assert len(batches) == 1 and batches[0][0] == traj.n_steps < batches[0][1]
        expected = rk4_reference(rho0, self.SEQUENCE, two_dot_register(), channels, config)
        assert_matches_stage_loop(traj, expected, map_form=with_channels)

    @pytest.mark.parametrize("n", [1, 2])
    def test_liouville_batches_hold_the_stage_buffer_bound(self, monkeypatch, n):
        # the map form's stage buffers hold 5 real (d^2, d^2) matrices per
        # step of a checked batch (L1, L2, L3 and two products), and the
        # batch is as long as 6 EIG_BATCH_BYTES of them allow, shorter than
        # the states' bound
        batches = record_batches(monkeypatch)
        dim = 2**n
        integrate_master_equation(
            basis_state_density(n, dim - 1), np.zeros(dim), None,
            [LindbladChannel("decay", 0, 0.1)], 0.0, 2.0, SimulationConfig(time_step_ps=1e-3),
        )
        step_bytes = 5 * 8 * dim**4
        size = batches[0][1]
        assert batches[0][0] == size < dynamics.EIG_BATCH_BYTES // (16 * dim * dim)
        assert size * step_bytes <= 6 * dynamics.EIG_BATCH_BYTES
        assert (size + 1) * step_bytes > 6 * dynamics.EIG_BATCH_BYTES

    def test_drive_called_once_per_block(self, monkeypatch):
        calls = []

        def counting_field_at(sequence, dipoles, reference_energy_ev, times):
            calls.append(times)
            return field_at(sequence, dipoles, reference_energy_ev, times)

        monkeypatch.setattr(dynamics, "field_at", counting_field_at)
        batches = record_batches(monkeypatch)

        def blocks(rho0, sequence, register, channels, config):
            # the steps of each field_at call, with the run's steps and
            # batch length; the calls cover each step's three stage times
            # once, in order
            calls.clear()
            batches.clear()
            traj = propagate(rho0, sequence, register, channels, config)
            dt = (traj.final_time_ps - traj.times_ps[0]) / traj.n_steps
            t = traj.times_ps[0] + np.arange(traj.n_steps) * dt
            expected = np.stack((t, t + 0.5 * dt, t + dt), axis=-1).ravel()
            assert np.allclose(np.concatenate(calls), expected, rtol=0, atol=1e-12)
            return [len(times) // 3 for times in calls], traj.n_steps, batches[0][1]

        # the coherent two-dot run's 256-step batches: one full block of
        # DRIVE_BLOCK_STEPS, one partial
        block = dynamics.DRIVE_BLOCK_STEPS
        steps, n_steps, size = blocks(
            basis_state_density(2, 0), self.SEQUENCE, two_dot_register(), (), self.CONFIG
        )
        assert size == 256 and steps == [block, n_steps - block]
        # a one-dot run with a decay channel takes the map form's 614-step
        # batches, longer than DRIVE_BLOCK_STEPS: a block holds one batch
        steps, n_steps, size = blocks(
            basis_state_density(1, 0),
            PulseSequence((Pulse(1.70, 0.3, 0.05, math.pi, target_dipole=0),)),
            single_dot_register(),
            [LindbladChannel("decay", 0, 0.1)],
            SimulationConfig(time_step_ps=1e-3, duration_ps=1.5),
        )
        assert size == 614 and steps == [size, size, n_steps - 2 * size]

    @pytest.mark.parametrize("members", [None, 3], ids=["single", "stack"])
    def test_liouvillian_apply_called_four_times_per_step(self, monkeypatch, members):
        # the stage loop, here with channels on three dots, binds one stage
        # for the generator and one for the doubled generator per run, and
        # applies them four times per RK4 step; the map form does not
        # (test_integrator_picks_the_liouville_form_up_to_two_dots)
        shapes, scales = [], []
        bind = dynamics.stage_apply

        def counting_bind(generator, shape):
            scales.append(generator.scale.item())
            apply = bind(generator, shape)

            def counting_apply(rows, h, out):
                shapes.append(out.shape)
                return apply(rows, h, out)

            return counting_apply

        monkeypatch.setattr(dynamics, "stage_apply", counting_bind)
        rho0 = basis_state_density(3, 0)
        if members is not None:
            rho0 = np.array([rho0] * members)
        traj = propagate(rho0, self.SEQUENCE_3, self.REGISTER_3, self.CHANNELS_3, self.CONFIG)
        assert scales == [-1j / HBAR, -2j / HBAR]
        assert len(shapes) == 4 * traj.n_steps
        assert set(shapes) == {(members or 1, 8, 8)}

    @pytest.mark.parametrize("dots", [2, 3], ids=["2-dots-coherent", "3-dots-channels"])
    def test_stack_in_any_memory_layout(self, dots):
        # the stage loop binds the row views of its stage buffer and of the
        # check's slots once, which holds because it makes them C-ordered: a
        # stack whose member axis is innermost in memory runs bit for bit as
        # its C-ordered copy does
        dim = 2**dots
        rho0 = np.array([random_density(np.random.default_rng(k), dim) for k in range(3)])
        strided = np.ascontiguousarray(np.moveaxis(rho0, 0, -1)).transpose(2, 0, 1)
        assert np.array_equal(strided, rho0) and not strided.flags.c_contiguous
        if dots == 2:
            register, sequence, channels = two_dot_register(), self.SEQUENCE, ()
        else:
            register, sequence, channels = self.REGISTER_3, self.SEQUENCE_3, self.CHANNELS_3
        runs = [
            propagate(rho, sequence, register, channels, self.CONFIG) for rho in (rho0, strided)
        ]
        assert np.array_equal(runs[0].final_state, runs[1].final_state)
        assert np.array_equal(runs[0].coherences, runs[1].coherences)
        assert np.array_equal(runs[0].populations, runs[1].populations)


class TestDiagnostics:
    def test_unstable_integration_raises_with_step_index(self):
        reg = single_dot_register()
        config = SimulationConfig(time_step_ps=0.05, duration_ps=5.0)
        with pytest.raises(PropagationDiagnosticsError) as err:
            propagate(
                basis_state_density(1, 1),
                PulseSequence(()),
                reg,
                channels=[LindbladChannel("decay", 0, 100.0)],
                config=config,
            )
        assert err.value.step >= 1

    def test_nan_drive_raises_at_its_step(self):
        config = SimulationConfig(time_step_ps=1e-3)
        with pytest.raises(PropagationDiagnosticsError, match="non-finite") as err:
            integrate_master_equation(
                basis_state_density(1, 0),
                np.zeros(2),
                lambda times: np.where(times > 0.0105, math.nan, 0.0)[:, None].astype(complex),
                [],
                0.0,
                0.1,
                config,
            )
        assert err.value.step == 11
        assert str(err.value) == "non-finite density matrix at step 11"

    @pytest.mark.parametrize("center_ps", [-1e17, -1e13, -1e308])
    def test_window_far_from_zero_is_refused_before_the_first_step(self, center_ps):
        # where the floats are spaced more than a thousandth of a step
        # apart, the step times cannot resolve the step: at -1e17 ps the
        # window rounds to no step at all, at -1e308 ps the phases overflow;
        # at -1e9 ps the pi pulse still runs
        def run(center_ps):
            seq = PulseSequence((Pulse(1.70, center_ps, 0.05, math.pi, target_dipole=0),))
            return propagate(basis_state_density(1, 0), seq, single_dot_register())

        with pytest.raises(InvalidParameterError, match="too far from 0"):
            run(center_ps)
        assert run(-1e9).occupations[-1, 0] > 1.0 - 1e-6

    def test_window_of_too_many_steps_is_refused_before_the_first_step(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 100)

        def run(t_end_ps, time_step_ps=1e-3):
            return integrate_master_equation(
                basis_state_density(1, 0), np.zeros(2), None, [], 0.0, t_end_ps,
                SimulationConfig(time_step_ps=time_step_ps),
            )

        assert run(0.1).n_steps == 100
        for t_end_ps, time_step_ps in [(0.101, 1e-3), (1e300, 1e-300)]:  # 101 and inf steps
            with pytest.raises(StepCountError, match="more than 100$") as err:
                run(t_end_ps, time_step_ps)
            assert not err.value.extended

    def test_invalid_channel_parameters(self):
        with pytest.raises(InvalidParameterError):
            LindbladChannel("decay", 0, -1.0)
        with pytest.raises(InvalidParameterError):
            LindbladChannel("thermal", 0, 1.0)


def kicked_apply(kicks):
    """A stand-in for dynamics.stage_apply: every stage it binds gives a
    d(rho)/dt that is zero except during the steps named in kicks (four
    stage calls per RK4 step, counted over all the stages it binds), where
    it is the given matrix, broadcast into out, rho's (B, d, d) stage
    buffer, so one step moves rho by dt times it.  Like stage_apply's
    stages, it returns the derivative times the generator's scale over
    -i/hbar: 2 for the doubled generator of the second and third stage."""
    calls = itertools.count()

    def bind(generator, shape):
        factor = (generator.scale / (-1j / HBAR)).real

        def apply(rows, h, out):
            out[...] = factor * np.asarray(kicks.get(next(calls) // 4 + 1, 0.0))
            return out

        return apply

    return bind


class TestBatchedPositivity:
    """Every step's state is tested for trace drift and against eig_floor,
    in batches of EIG_BATCH_BYTES; the earliest failing step is reported."""

    DT = 1e-3
    SLOTS = dynamics.EIG_BATCH_BYTES // (16 * 2 * 2)  # one dot: 2x2 states
    N_STEPS = 2 * SLOTS + 300  # the last batch is only partly filled

    def run(self, monkeypatch, kicks):
        monkeypatch.setattr(dynamics, "stage_apply", kicked_apply(kicks))
        return integrate_master_equation(
            basis_state_density(1, 0),
            np.zeros(2),
            None,
            [],
            0.0,
            self.N_STEPS * self.DT,
            SimulationConfig(time_step_ps=self.DT),
        )

    def negative(self):
        # traceless: rho_11 goes to -0.01 in one step, the trace stays 1
        return np.diag([0.01, -0.01]) / self.DT

    def trace(self):
        # positive: rho_00 goes to 1.01 in one step, and so does the trace
        return np.diag([0.01, 0.0]) / self.DT

    MESSAGES = {
        "negative": "negative eigenvalue -1.000e-02 below -1.0e-06",
        "trace": "trace drift 1.000e-02 exceeds 1.0e-07",
    }

    @pytest.mark.parametrize(
        "step, kind",
        [(1, "negative"), (SLOTS // 2, "negative"), (SLOTS + 1, "negative"),
         (SLOTS + 150, "negative"), (N_STEPS, "negative"), (1, "trace"), (N_STEPS, "trace")],
        ids=["first-slot", "middle-slot", "first-slot-of-second-batch",
             "middle-of-partial-batch", "last-step", "trace-first-slot", "trace-last-step"],
    )
    def test_negative_state_raises_at_its_step(self, monkeypatch, step, kind):
        with pytest.raises(PropagationDiagnosticsError) as err:
            self.run(monkeypatch, {step: getattr(self, kind)()})
        assert err.value.step == step
        assert str(err.value) == f"{self.MESSAGES[kind]} at step {step}"

    def test_valid_run_with_partial_last_batch(self, monkeypatch):
        assert self.N_STEPS % self.SLOTS != 0
        traj = self.run(monkeypatch, {})
        assert traj.n_steps == self.N_STEPS
        assert np.array_equal(traj.final_state, basis_state_density(1, 0))

    def drift(self, amount):
        # rho_00, and with it the trace, moves by amount in one step
        return np.diag([amount, 0.0]) / self.DT

    def test_worst_trace_drift_names_its_first_step(self, monkeypatch):
        assert self.run(monkeypatch, {}).max_trace_drift_step == 0
        traj = self.run(monkeypatch, {3: self.drift(2e-8)})
        assert (traj.max_trace_drift, traj.max_trace_drift_step) == (pytest.approx(2e-8), 3)
        # 7e-8 in the partial last batch, back to 1e-8 one step later
        step = 2 * self.SLOTS + 150
        kicks = {3: self.drift(2e-8), step: self.drift(5e-8), step + 1: self.drift(-6e-8)}
        traj = self.run(monkeypatch, kicks)
        assert (traj.max_trace_drift, traj.max_trace_drift_step) == (pytest.approx(7e-8), step)

    @pytest.mark.parametrize("where", ["coherence", "diagonal"])
    def test_earliest_failure_wins_over_later_non_finite(self, monkeypatch, where):
        # a NaN coherence fails the positivity test, a NaN population the
        # trace test; either way the earlier negative state is reported
        nan = np.zeros((2, 2))
        if where == "coherence":
            nan[0, 1] = nan[1, 0] = math.nan
        else:
            nan[1, 1] = math.nan
        kicks = {self.SLOTS + 10: self.negative(), self.SLOTS + 20: nan}
        with pytest.raises(PropagationDiagnosticsError, match="negative eigenvalue") as err:
            self.run(monkeypatch, kicks)
        assert err.value.step == self.SLOTS + 10

    def test_non_finite_coherence_raises_at_its_step(self, monkeypatch):
        nan = np.array([[0.0, math.nan], [math.nan, 0.0]])
        with pytest.raises(PropagationDiagnosticsError) as err:
            self.run(monkeypatch, {self.SLOTS + 20: nan})
        assert str(err.value) == f"non-finite density matrix at step {self.SLOTS + 20}"


def spectral_density(rng, dim, smallest):
    """A Hermitian matrix with a random eigenbasis, trace near 1 and the
    given smallest eigenvalue, re-Hermitized as the integrator does."""
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    eigs = rng.dirichlet(np.ones(dim))
    eigs[np.argmin(eigs)] = smallest
    rho = (u * eigs) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def per_state_verdict(states, eig_floor):
    """Reference: one eigvalsh per state, in step order; the first
    failure, as (message, step), or None."""
    for step, state in enumerate(states, start=1):
        if not np.isfinite(state).all():
            return f"non-finite density matrix at step {step}", step
        min_eig = np.linalg.eigvalsh(state).min()
        if not min_eig >= eig_floor:
            return f"negative eigenvalue {min_eig:.3e} below {eig_floor:.1e} at step {step}", step
    return None


def batched_verdict(states, eig_floor):
    """The step check's verdict on the states as single-state steps, with
    no trace tolerance: only positivity is tested."""
    check = dynamics._StepCheck(states[:1], math.inf, eig_floor, False, 48 * states.shape[-1] ** 2)
    try:
        for first in range(0, len(states), check.size):
            batch = states[first : first + check.size]
            check.states[: len(batch), 0] = batch
            check.check(first + 1, len(batch))
    except PropagationDiagnosticsError as err:
        return str(err), err.step
    return None


class TestCholeskyPositivity:
    """The batched Cholesky test of states - eig_floor * I clears a batch
    only when every state is above the floor; anything else goes to the
    eigvalsh test, which reports."""

    DT = 1e-3

    def test_state_just_above_floor_passes_without_eigvalsh(self, monkeypatch):
        # rho_11 goes to -5e-7 in one step and stays there: inside the
        # default floor of -1e-6, so the run completes, and the Cholesky of
        # rho - eig_floor * I (not + eig_floor * I) clears every batch
        batch_eigvalsh = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            if np.ndim(a) == 3:
                batch_eigvalsh.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        monkeypatch.setattr(
            dynamics, "stage_apply", kicked_apply({5: np.diag([5e-7, -5e-7]) / self.DT})
        )
        n_steps = 3 * TestBatchedPositivity.SLOTS
        config = SimulationConfig(time_step_ps=self.DT)
        assert config.eig_floor == -1e-6
        traj = integrate_master_equation(
            basis_state_density(1, 0), np.zeros(2), None, [], 0.0, n_steps * self.DT, config
        )
        assert traj.n_steps == n_steps
        assert eigvalsh(traj.final_state).min() == pytest.approx(-5e-7, rel=1e-6)
        assert batch_eigvalsh == []

    @pytest.mark.parametrize("seed", range(40))
    def test_same_verdict_as_per_state_eigvalsh(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.choice([2, 4, 8]))
        eig_floor = float(rng.choice([-1e-6, -1e-9, -1e-3]))
        slots = dynamics.EIG_BATCH_BYTES // (16 * dim * dim)
        n_states = int(rng.integers(1, 2 * slots + 2))
        p_below = float(rng.choice([0.0, 1.0 / n_states, 0.01, 0.3]))
        states = np.empty((n_states, dim, dim), dtype=complex)
        for i in range(n_states):
            kind = rng.random()
            if kind < p_below:  # below the floor by far more than roundoff
                smallest = eig_floor - 10.0 ** rng.uniform(-12, -2)
            elif kind < 0.5:  # negative but above the floor
                smallest = eig_floor * rng.uniform(0.0, 0.9)
            else:
                smallest = 0.0
            states[i] = spectral_density(rng, dim, smallest)
        if rng.random() < 0.2:
            i = int(rng.integers(n_states))
            states[i, 0, 1] = states[i, 1, 0] = math.nan
        assert batched_verdict(states, eig_floor) == per_state_verdict(states, eig_floor)


class TestStackedDiagnostics:
    """A (3, 2, 2) stack fails at the earliest failing step, at that step
    in the lowest failing member, and the error names that member."""

    DT = 1e-3
    SLOTS = dynamics.EIG_BATCH_BYTES // (16 * 3 * 2 * 2)  # steps per batch
    N_STEPS = 2 * SLOTS + 30

    def run(self, monkeypatch, kicks, rho0=None):
        monkeypatch.setattr(dynamics, "stage_apply", kicked_apply(kicks))
        if rho0 is None:
            rho0 = np.array([basis_state_density(1, 0)] * 3)
        return integrate_master_equation(
            rho0, np.zeros(2), None, [], 0.0, self.N_STEPS * self.DT,
            SimulationConfig(time_step_ps=self.DT),
        )

    def kick(self, members):
        """The stack's kick: the given matrix per member, zero elsewhere."""
        out = np.zeros((3, 2, 2), dtype=complex)
        for k, matrix in members.items():
            out[k] = matrix
        return out

    NEGATIVE = np.diag([0.01, -0.01]) / DT  # traceless, rho_11 -> -0.01
    NAN_COHERENCE = np.array([[0.0, math.nan], [math.nan, 0.0]])
    TRACE = np.diag([0.01, 0.0]) / DT  # trace 1.01

    def test_valid_stack_runs_every_step(self, monkeypatch):
        traj = self.run(monkeypatch, {})
        assert traj.n_steps == self.N_STEPS
        assert traj.final_state.shape == (3, 2, 2)
        assert traj.occupations.shape == (len(traj.times_ps), 3, 1)

    def test_negative_eigenvalue_names_its_state(self, monkeypatch):
        step = self.SLOTS + 5
        with pytest.raises(PropagationDiagnosticsError) as err:
            self.run(monkeypatch, {step: self.kick({2: self.NEGATIVE})})
        assert (err.value.step, err.value.state) == (step, 2)
        assert str(err.value) == (
            f"negative eigenvalue -1.000e-02 below -1.0e-06 in state 2 at step {step}"
        )

    def test_earlier_failure_wins_over_later_non_finite_state_0(self, monkeypatch):
        kicks = {
            self.SLOTS + 5: self.kick({2: self.NEGATIVE}),
            self.SLOTS + 9: self.kick({0: self.NAN_COHERENCE}),
        }
        with pytest.raises(PropagationDiagnosticsError, match="negative eigenvalue") as err:
            self.run(monkeypatch, kicks)
        assert (err.value.step, err.value.state) == (self.SLOTS + 5, 2)

    def test_lowest_state_wins_at_equal_steps(self, monkeypatch):
        step = self.SLOTS + 5
        with pytest.raises(PropagationDiagnosticsError) as err:
            self.run(monkeypatch, {step: self.kick({1: self.NAN_COHERENCE, 2: self.NEGATIVE})})
        assert str(err.value) == f"non-finite density matrix in state 1 at step {step}"

    def test_trace_failure_names_its_state(self, monkeypatch):
        step = self.SLOTS + 5
        with pytest.raises(PropagationDiagnosticsError) as err:
            self.run(monkeypatch, {step: self.kick({1: self.TRACE, 2: self.NEGATIVE})})
        assert (err.value.step, err.value.state) == (step, 1)
        assert str(err.value) == f"trace drift 1.000e-02 exceeds 1.0e-07 in state 1 at step {step}"

    def test_lower_state_below_the_floor_wins_over_a_trace_failure(self, monkeypatch):
        step = self.SLOTS + 5
        with pytest.raises(PropagationDiagnosticsError, match="negative eigenvalue") as err:
            self.run(monkeypatch, {step: self.kick({0: self.NEGATIVE, 2: self.TRACE})})
        assert (err.value.step, err.value.state) == (step, 0)

    def test_worst_trace_drift_names_its_step(self, monkeypatch):
        up = np.diag([5e-8, 0.0]) / self.DT  # trace 1 + 5e-8
        kicks = {4: self.kick({0: up / 5}), self.SLOTS + 5: self.kick({2: up})}
        traj = self.run(monkeypatch, kicks)
        assert traj.max_trace_drift == pytest.approx(5e-8)
        assert traj.max_trace_drift_step == self.SLOTS + 5

    def test_bad_initial_member_is_named(self, monkeypatch):
        rho0 = np.array([basis_state_density(1, 0)] * 3)
        rho0[1] *= 2.0
        with pytest.raises(InvalidParameterError) as err:
            self.run(monkeypatch, {}, rho0)
        assert str(err.value) == "density matrix trace differs from 1 in state 1"


def stack_member(rng, dim, kind):
    """A random mixed state, or one that passes validate_density_matrix but
    fails the integrator's tests at a tolerance of 1e-10: trace 1 + 5e-10
    ("trace") or smallest eigenvalue -5e-10 ("negative")."""
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    eigs = rng.dirichlet(np.ones(dim))
    if kind == "negative":
        low = np.argmin(eigs)
        eigs[np.argmax(eigs)] += eigs[low] + 5e-10
        eigs[low] = -5e-10
    rho = (u * eigs) @ u.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho * (1.0 + 5e-10) if kind == "trace" else rho


@st.composite
def stack_cases(draw):
    """(register, sequence, channels, config, stack): N in 1..3, B in 1..5,
    up to two pulses, random channels, and members that may fail the trace
    or positivity test when the config's tolerances are tight."""
    n = draw(st.integers(1, 3))
    energies = 1.70 + 0.01 * np.arange(n)
    shifts = np.zeros((n, n))
    for l in range(n - 1):
        shifts[l, l + 1] = shifts[l + 1, l] = 4.5
    register = ExcitonRegister(exciton_energies_ev=energies, shift_matrix_mev=shifts)
    dot = st.integers(0, n - 1)
    pulses = []
    for i in range(draw(st.integers(0, 2))):
        target = draw(dot)
        pulses.append(Pulse(
            carrier_energy_ev=energies[target] + draw(st.floats(-5e-3, 5e-3)),
            center_ps=0.6 + 0.4 * i,
            tau_ps=0.2,
            area_rad=draw(st.floats(0.0, 2.0 * math.pi)),
            target_dipole=target,
        ))
    kind = st.sampled_from(["decay", "pure-dephasing"])
    channels = draw(st.lists(st.builds(LindbladChannel, kind, dot, st.floats(0.0, 2.0)),
                             max_size=4))
    tight = st.sampled_from([False, True])
    config = SimulationConfig(
        time_step_ps=5e-3,
        duration_ps=1.2,
        trace_tol=1e-10 if draw(tight) else 1e-7,
        eig_floor=-1e-10 if draw(tight) else -1e-6,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["valid", "valid", "trace", "negative"]),
                          min_size=1, max_size=5))
    stack = np.array([stack_member(rng, 2**n, k) for k in kinds])
    return register, PulseSequence(tuple(pulses)), channels, config, stack


class TestStackedPropagation:
    @settings(max_examples=30, deadline=None)
    @given(stack_cases())
    def test_stack_equals_single_runs(self, case):
        """One propagate of a (B, d, d) stack gives each member's final state
        bit for bit as B single runs do; if any single run fails, the stack
        fails at the earliest step, in the lowest member failing there, with
        that run's message."""
        register, sequence, channels, config, stack = case

        def outcome(rho0):
            try:
                return propagate(rho0, sequence, register, channels, config)
            except PropagationDiagnosticsError as err:
                return err

        singles = [outcome(member) for member in stack]
        stacked = outcome(stack)
        failures = [(run.step, k, run) for k, run in enumerate(singles)
                    if isinstance(run, PropagationDiagnosticsError)]
        if failures:
            step, k, err = min(failures, key=lambda failure: failure[:2])
            assert isinstance(stacked, PropagationDiagnosticsError)
            assert (stacked.step, stacked.state) == (step, k)
            message = str(err).rsplit(" at step ", 1)[0]
            assert str(stacked) == f"{message} in state {k} at step {step}"
            return
        assert not isinstance(stacked, PropagationDiagnosticsError), str(stacked)
        for k, run in enumerate(singles):
            assert np.array_equal(stacked.final_state[k], run.final_state)
            assert np.array_equal(stacked.populations[:, k], run.populations)
            assert np.array_equal(stacked.coherences[:, k], run.coherences)
            assert np.allclose(stacked.occupations[:, k], run.occupations, rtol=0, atol=1e-14)
        assert stacked.max_trace_drift == max(run.max_trace_drift for run in singles)
        assert stacked.max_trace_drift_step == min(
            run.max_trace_drift_step for run in singles
            if run.max_trace_drift == stacked.max_trace_drift
        )
