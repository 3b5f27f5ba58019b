"""Spatial discretization and backward-Euler stepping on the periodic domain.

Uniform nodes, piecewise-linear hat functions for the point loads, lumped
mass.  Each implicit step solves a periodic tridiagonal system whose matrix
has a positive diagonal, nonpositive off-diagonals, and strict diagonal
dominance, so the step is order preserving; that monotonicity is what the
rupture and return-map layers rely on.  On the uniform periodic grid every
step matrix is circulant, so it is inverted by dividing each rfft mode by
its eigenvalue; the eigenvalues of the second difference come from one
cached table per grid size, and the reciprocal eigenvalues of the few most
recent step matrices are cached too.  Every solve is checked for a backward
error of about 1e-12.  The operator bundle :class:`Operators` owns the
height and thickness step matrices and the decoupled symbol and fixed point,
about which ``jump_decoupled`` applies many equal decoupled steps at once in
closed form.  It hands out the transient modes of the state it makes with
it, so a chain of jumps pays one forward transform and one inverse
transform per jump, and it skips the per-mode factors that would underflow.
``jump_coupled`` runs a whole coupled gap in rfft mode space, where each
step is lower-triangular per mode: cached per-mode tables give
the thickness after each step of a 16-step chunk, one batched inverse
transform per chunk gives their minima, and only the state before the last
step taken returns to real space, from which ``advance`` takes and checks
that step; it hands out the modes of the state it reaches too.  Each step
forms its right sides' modes from the state's modes: a caller that holds
them passes them to ``advance``, whose solves then take no forward
transform and keep their checks, and without them the step transforms the
state once.  ``StepProbe`` owns what one step of any size from a state
of either kind does, from the state's modes (one forward transform when
none are given): it takes the step in rfft modes with the arithmetic of
those solves, so its minimum thickness is bit for bit that of ``advance``
from the same modes; it bounds a step from how far it moves each mode of
the thickness, with a slack for the roundoff of ``advance``, without
taking it; and it takes the checked step that hands a state out.  These
are the crossing bisection's decisions.  Both state kinds expose their
layer thickness as ``eta``.

``fourier_reference`` provides an independent mild-solution oracle for the
decoupled equation, evolving Fourier modes of the deviation from the
stationary profile exactly.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig, effective_parameters
from .errors import DomainError, LinearSolveError, UnsupportedError
from . import stationary

_STEP_RESIDUAL_TOL = 1.0e-12


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: node j sits at ``j*omega/n``.  The nodes
    follow from the other fields, so equality and the hash leave them out."""

    n: int
    omega: float
    dx: float
    nodes: np.ndarray = field(compare=False)


def build_grid(config: ModelConfig, n: int | None = None) -> Grid:
    """Grid with ``n`` nodes (default from the config numerics)."""
    if n is None:
        n = config.numerics.grid_points
    if n < 4:
        raise DomainError("grid needs at least 4 nodes")
    dx = config.omega / n
    dx2 = dx * dx
    if not (dx2 > 0.0 and math.isfinite(dx2) and math.isfinite(1.0 / dx2)):
        # the stiffness divides by dx**2, which would overflow or vanish
        raise DomainError(f"grid spacing {dx:g} is too large or too small to square")
    return Grid(n=n, omega=config.omega, dx=dx, nodes=np.arange(n) * dx)


@dataclass
class Field:
    """Nodal values of one periodic scalar field at one time instant."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    @property
    def eta(self) -> "Field":
        """The layer thickness: the field itself."""
        return self

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.time)


def constant_field(grid: Grid, value: float, time: float = 0.0) -> Field:
    return Field(grid, np.full(grid.n, float(value)), time)


@dataclass
class CoupledState:
    """Bubble-top height ``h`` and liquid-surface height ``zeta``; the layer
    thickness is their difference."""

    h: Field
    zeta: Field

    @property
    def time(self) -> float:
        return self.zeta.time

    @time.setter
    def time(self, value: float) -> None:
        self.h.time = value
        self.zeta.time = value

    @property
    def eta(self) -> Field:
        return Field(self.zeta.grid, self.zeta.values - self.h.values, self.zeta.time)

    def copy(self) -> "CoupledState":
        return CoupledState(self.h.copy(), self.zeta.copy())

    @classmethod
    def from_thickness(cls, eta: Field) -> "CoupledState":
        """Start state of thickness ``eta`` over a flat zero height, at
        time 0."""
        h0 = constant_field(eta.grid, 0.0)
        return cls(h0, Field(eta.grid, h0.values + eta.values, 0.0))


@dataclass(frozen=True)
class Operators:
    """Grid operators and load vectors shared by all steps of one run.

    ``load`` is the nodal forcing of the reduced thickness equation
    (delta parts split by hat-function weights, divided by the lumped
    mass, minus the effective constant offset); ``height_load`` is the same
    construction from the unscaled strengths and offset, divided by
    ``tau``, the forcing of the height equation.  The stiffness action is
    the periodic second difference with row pattern ``(-1, 2, -1)/dx**2``.
    The bundle owns the height and thickness step matrices, the decoupled
    symbol and fixed point, and the rfft modes of both loads; all but the
    matrices fill lazily and deterministically.
    Every array it holds is read-only, so one bundle can serve many runs.
    """

    grid: Grid
    sigma: float
    alpha: float
    load: np.ndarray
    height_load: np.ndarray
    sigma_h: float

    def stiffness_matvec(self, v: np.ndarray) -> np.ndarray:
        return (2.0 * v - np.roll(v, 1) - np.roll(v, -1)) / self.grid.dx**2

    def height_matrix(self, dt: float) -> tuple[float, float]:
        """``(diag, off)`` of the cyclic matrix of one backward-Euler step of
        the height, ``I/dt + sigma_h K``."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        dx2 = self.grid.dx**2
        return 1.0 / dt + 2.0 * self.sigma_h / dx2, -self.sigma_h / dx2

    def thickness_matrix(self, dt: float) -> tuple[float, float]:
        """``(diag, off)`` of the cyclic matrix of one backward-Euler step of
        the thickness, ``I/dt + sigma K + alpha I``."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        dx2 = self.grid.dx**2
        return 1.0 / dt + 2.0 * self.sigma / dx2 + self.alpha, -self.sigma / dx2

    @functools.cached_property
    def symbol(self) -> np.ndarray:
        """Eigenvalue ``alpha + sigma*s_k/dx^2`` of ``alpha I + sigma K`` per
        rfft mode (``s_k`` from :func:`_second_difference_symbol`);
        read-only."""
        return _decoupled_symbol(self.grid.n, self.grid.dx, self.sigma, self.alpha)

    def decoupled_factors(self, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(g, 1 + g, w*g/(1 + g))`` per rfft mode, with ``g = dt*symbol``
        and ``w`` from :func:`_mode_weights`: the growth and step divisor of a
        decoupled step of ``dt`` and the weights of its change rate; read-only
        and built once per step size."""
        return _decoupled_factors(self.grid.n, self.grid.dx, self.sigma, self.alpha, dt)

    @functools.cached_property
    def load_min(self) -> float:
        """``min(load)``, the constant load of the subsolution."""
        return float(np.min(self.load))

    @functools.cached_property
    def fixed_point_bound(self) -> float:
        """The a-priori bound ``max|load|/alpha`` on the fixed point.
        Requires ``alpha > 0``."""
        return float(np.max(np.abs(self.load))) / self.alpha

    @functools.cached_property
    def load_modes(self) -> np.ndarray:
        """rfft modes of ``load``; read-only."""
        modes = np.fft.rfft(self.load)
        modes.flags.writeable = False
        return modes

    @functools.cached_property
    def height_load_modes(self) -> np.ndarray:
        """rfft modes of ``height_load``; read-only."""
        modes = np.fft.rfft(self.height_load)
        modes.flags.writeable = False
        return modes

    @functools.cached_property
    def fixed_point_modes(self) -> np.ndarray:
        """rfft modes ``load_modes/symbol`` of the fixed point of every
        decoupled step, ``(alpha I + sigma K) x* = load``, so mode 0 gives
        ``mean(x*) = mean(load)/alpha``; read-only.  Requires ``alpha > 0``,
        which makes it unique."""
        if not self.alpha > 0.0:
            raise UnsupportedError("the decoupled fixed point requires alpha > 0")
        modes = self.load_modes / self.symbol
        modes.flags.writeable = False
        return modes

    @functools.cached_property
    def fixed_point(self) -> np.ndarray:
        """The fixed point ``x*`` of :attr:`fixed_point_modes` at the nodes;
        read-only."""
        fixed = np.fft.irfft(self.fixed_point_modes, self.grid.n)
        fixed.flags.writeable = False
        return fixed


def _load_vector(
    grid: Grid, junctions: tuple[float, ...], strengths: tuple[float, ...], offset: float
) -> np.ndarray:
    weights = np.zeros(grid.n)
    for a, c in zip(junctions, strengths):
        pos = (a % grid.omega) / grid.dx
        j = int(math.floor(pos)) % grid.n
        frac = pos - math.floor(pos)
        weights[j] += c * (1.0 - frac)
        weights[(j + 1) % grid.n] += c * frac
    return weights / grid.dx - offset


def assemble_operators(grid: Grid, config: ModelConfig) -> Operators:
    sigma_eff, strengths_eff, offset_eff = effective_parameters(config)
    load = _load_vector(grid, config.junctions, strengths_eff, offset_eff)
    height_load = _load_vector(
        grid, config.junctions, config.jump_strengths, config.forcing_offset
    ) / config.tau
    load.flags.writeable = height_load.flags.writeable = False
    return Operators(
        grid=grid,
        sigma=sigma_eff,
        alpha=config.alpha,
        load=load,
        height_load=height_load,
        sigma_h=config.sigma1 / config.tau,
    )


@functools.lru_cache(maxsize=8)
def _second_difference_symbol(n: int) -> np.ndarray:
    """``s_k = 4 sin^2(pi k/n)`` for the rfft modes ``k = 0..n//2``: the
    eigenvalues of the periodic second difference with row pattern
    ``(-1, 2, -1)`` on ``n`` nodes, read-only."""
    table = 4.0 * np.sin(np.pi * np.arange(n // 2 + 1) / n) ** 2
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=4)
def _decoupled_symbol(n: int, dx: float, sigma: float, alpha: float) -> np.ndarray:
    """``alpha + sigma*s_k/dx^2`` per rfft mode; read-only."""
    symbol = alpha + sigma * (_second_difference_symbol(n) / (dx * dx))
    symbol.flags.writeable = False
    return symbol


@functools.lru_cache(maxsize=4)
def _decoupled_factors(
    n: int, dx: float, sigma: float, alpha: float, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of :meth:`Operators.decoupled_factors`, kept per step
    size because every jump and change rate of a run uses the same one."""
    growth = dt * _decoupled_symbol(n, dx, sigma, alpha)
    tables = growth, 1.0 + growth, _mode_weights(n) * growth / (1.0 + growth)
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=8)
def _mode_weights(n: int) -> np.ndarray:
    """Bound ``w_k`` on the size at any node of the inverse rfft term of a
    unit mode ``k``: ``1/n`` for mode 0 and (``n`` even) the Nyquist mode,
    ``2/n`` otherwise; read-only.  The term of mode ``k`` at node ``j`` is
    ``w_k Re(m_k e^{2 pi i jk/n})`` exactly."""
    weights = np.full(n // 2 + 1, 2.0 / n)
    weights[0] = 1.0 / n
    if n % 2 == 0:
        weights[-1] = 1.0 / n
    weights.flags.writeable = False
    return weights


@functools.lru_cache(maxsize=4)
def _inverse_symbol(n: int, diag: float, off: float) -> np.ndarray:
    """``1/(diag + off*(2 - s_k))`` per rfft mode of the cyclic matrix, each
    value twice so that it scales the real and the imaginary part of its
    mode in the interleaved float view; read-only.  Kept per matrix because
    a run of equal steps reuses it, and a real product costs far less than
    evaluating the eigenvalues and a complex division on every solve."""
    inverse = np.repeat(1.0 / (diag + off * (2.0 - _second_difference_symbol(n))), 2)
    inverse.flags.writeable = False
    return inverse


def solve_periodic_tridiagonal(
    diag: float, off: float, rhs: np.ndarray, modes: np.ndarray | None = None
) -> np.ndarray:
    """Solve the cyclic tridiagonal system with constant diagonals.

    The matrix is circulant, so mode ``k`` of the solution is mode ``k`` of
    ``rhs`` divided by the eigenvalue ``diag + off*(2 - s_k)``.  A caller
    that holds the rfft modes of ``rhs`` passes them as ``modes``, which
    are then scaled in place into the solution's modes instead of
    transforming ``rhs``.  Every solution is checked against the original
    system: a residual above ``1e-12 * |diag| * ||x||`` (a backward error of
    about ``1e-12``, independent of the grid size) raises
    :class:`LinearSolveError`; it cannot occur for the diagonally dominant
    step matrices in exact arithmetic.
    """
    n = rhs.shape[0]
    if modes is None:
        modes = np.fft.rfft(rhs)
    parts = modes.view(np.float64)
    parts *= _inverse_symbol(n, diag, off)
    x = np.fft.irfft(modes, n)
    _check_solution(diag, off, x, rhs)
    return x


def _check_solution(diag: float, off: float, x: np.ndarray, rhs: np.ndarray) -> None:
    """Raise :class:`LinearSolveError` unless ``x`` solves the cyclic system
    with constant diagonals ``(diag, off)`` and right side ``rhs`` to a
    residual of at most ``1e-12 * |diag| * max|x|``."""
    residual = diag * x - rhs
    residual[1:] += off * x[:-1]
    residual[:-1] += off * x[1:]
    residual[0] += off * x[-1]
    residual[-1] += off * x[0]
    limit = _STEP_RESIDUAL_TOL * abs(diag) * max(x.max(), -x.min())
    worst = np.abs(residual).max()
    if not math.isfinite(worst) or worst > limit:
        raise LinearSolveError(f"cyclic solve residual {worst:g} exceeds {limit:g}")


def step_decoupled(
    state: Field, dt: float, ops: Operators, modes: np.ndarray | None = None
) -> Field:
    """One backward-Euler step of the reduced thickness equation.  The right
    side's modes are formed from the rfft modes of ``state``: ``modes`` if
    given, else one transform of ``state``."""
    diag, off = ops.thickness_matrix(dt)
    if modes is None:
        modes = np.fft.rfft(state.values)
    parts = modes.view(np.float64) / dt
    parts += ops.load_modes.view(np.float64)
    rhs = state.values / dt + ops.load
    return Field(
        state.grid, solve_periodic_tridiagonal(diag, off, rhs, parts.view(complex)), state.time + dt
    )


def decoupled_transient(state: Field, ops: Operators) -> np.ndarray:
    """rfft modes of ``state - x*``, the part of a decoupled state that its
    steps decay.  Requires ``alpha > 0``."""
    return np.fft.rfft(state.values - ops.fixed_point)


def jump_decoupled(
    state: Field, steps: int, dt: float, ops: Operators, transient: np.ndarray | None = None
) -> tuple[Field, np.ndarray]:
    """``steps`` backward-Euler steps of the reduced thickness equation at
    once; returns the jumped state and its transient modes.

    Exact in exact arithmetic: ``x_m = x* + P^m (x_0 - x*)``, where one step
    multiplies rfft mode ``k`` of ``x - x*`` by ``1 / (1 + dt*symbol_k)``.
    A caller that already holds :func:`decoupled_transient` of ``state``
    passes it as ``transient``, such as the modes the jump before handed
    out, which stand for that transform up to roundoff; the one inverse
    transform is then the only one.  A factor of at most about
    ``2**-1000`` is set to 0 without evaluating its power, where it would
    mostly underflow or turn subnormal, which is slow: a mode that small
    moves no node.  The time advances by ``steps`` repeated additions of
    ``dt``, so it is bit-identical to stepping.  Requires ``alpha > 0``.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if transient is None:
        transient = decoupled_transient(state, ops)
    grid = state.grid
    growth, divisor, _ = ops.decoupled_factors(dt)
    # test growth, not 1 + growth: where 1 + growth rounds to 1, so does a
    # bound on it for steps near sys.maxsize, and every mode would be dropped
    kept = growth < math.expm1(1000.0 * math.log(2.0) / steps)
    factors = np.power(divisor, -steps, out=np.zeros_like(growth), where=kept)
    modes = transient * factors
    values = ops.fixed_point + np.fft.irfft(modes, grid.n)
    return Field(grid, values, _time_after(state.time, steps, dt)), modes


def _time_after(time: float, steps: int, dt: float) -> float:
    """``time`` after ``steps`` repeated additions of ``dt``, as stepping
    counts it, in a few operations per binade of the time.

    While every sum stays inside one binade ``[top/2, top)`` of the time,
    each addition rounds to the same whole number of ulps; only when ``dt``
    leaves exactly half an ulp can round-to-even make the first addition
    differ, so the increment is read off the second.  Small times, the last
    ``2*dt`` below each binade's top and the last few steps use plain
    additions.
    """
    while steps > 0:
        if steps >= 4 and 4.0 * dt <= time < math.inf:
            top = math.ldexp(1.0, math.frexp(time)[1])
            first = time + dt
            increment = (first + dt) - first
            if increment == 0.0:
                return first
            # the additions after the first whose sums stay below top - 2*dt,
            # one fewer for the rounding of this quotient
            count = min(steps - 1, math.floor((top - 2.0 * dt - first) / increment) - 1)
            if count >= 1:
                time, steps = first + count * increment, steps - count - 1
                continue
        time += dt
        steps -= 1
    return time


def step_coupled(
    h: Field, zeta: Field, dt: float, ops: Operators, modes: np.ndarray | None = None
) -> tuple[Field, Field]:
    """One backward-Euler step of the height/surface pair.

    The height equation is autonomous and is advanced first; the surface
    equation then uses the fresh height in its relaxation term, so the
    splitting introduces no error into the height and only a first-order
    term into the surface.  Both right sides' modes are formed as
    :func:`_coupled_step` forms them, from the rfft modes of ``h`` and
    ``zeta`` as two rows: ``modes`` if given, else one transform of both.
    """
    diag_h, off_h = ops.height_matrix(dt)
    diag_z, off_z = ops.thickness_matrix(dt)
    if modes is None:
        modes = np.fft.rfft(np.stack((h.values, zeta.values)))
    h_parts, z_parts = modes.view(np.float64) / dt
    h_parts -= ops.height_load_modes.view(np.float64)
    h_new = solve_periodic_tridiagonal(
        diag_h, off_h, h.values / dt - ops.height_load, h_parts.view(complex)
    )
    z_parts += ops.alpha * h_parts  # h_parts now hold the new height's modes
    z_new = solve_periodic_tridiagonal(
        diag_z, off_z, zeta.values / dt + ops.alpha * h_new, z_parts.view(complex)
    )
    t = h.time + dt
    return Field(h.grid, h_new, t), Field(zeta.grid, z_new, t)


def _coupled_step(h, z, load, inverse_h, inverse_z, tau, alpha):
    """One backward-Euler step of the height/surface pair per rfft mode:
    ``h' = a (h/tau - l)``, then ``zeta' = b (zeta/tau + alpha h')``, with
    ``a`` and ``b`` the reciprocal eigenvalues of the height and the
    thickness step matrices and ``l`` the height load.  It broadcasts, keeps
    the float type of its inputs and leaves them unchanged, so the kernel's
    tables, the state it hands out and the coupled trials take this step."""
    h = h / tau
    np.multiply(np.subtract(h, load, out=h), inverse_h, out=h)
    z = z / tau
    np.multiply(np.add(z, alpha * h, out=z), inverse_z, out=z)
    return h, z


# steps per chunk of jump_coupled: one batched inverse transform of this many
# thickness rows spreads its overhead, and each further row adds to the
# cached tables and the working set
_CHUNK = 16


@functools.lru_cache(maxsize=4)
def _coupled_tables(
    n: int, dt: float, height: tuple[float, float], thickness: tuple[float, float], alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode coefficients of ``_CHUNK`` coupled steps, in the interleaved
    float layout of :func:`_inverse_symbol`; read-only.

    ``rows[0..2, j]`` give the thickness after ``j + 1`` steps as
    ``rows[0, j]*zeta + rows[1, j]*h + rows[2, j]*l`` in terms of the start
    modes; ``ends`` gives the height after the whole chunk as
    ``ends[0]*h + ends[1]*l`` and the surface as ``ends[2]*zeta +
    ends[3]*h + ends[4]*l``.  They come from the step recursion itself, run
    on unit inputs, and not from a closed form in powers of the two step
    factors, which divides by their difference where they meet.  The
    recursion runs in ``np.longdouble`` (extended precision where the
    platform has it) and each coefficient is rounded once: every chunk of a
    gap reuses them, so a coefficient a few ulps off would move the state by
    that much again per chunk.
    """
    wide = np.longdouble
    inverse_h = _inverse_symbol(n, *height).astype(wide)
    inverse_z = _inverse_symbol(n, *thickness).astype(wide)
    dt, alpha = wide(dt), wide(alpha)
    # unit inputs (zeta, h, l) = e_0, e_1, e_2, one per row
    h = np.zeros((3, inverse_h.size), dtype=wide)
    z = np.zeros_like(h)
    h[1] = z[0] = 1.0
    load = np.array([[0.0], [0.0], [1.0]], dtype=wide)
    rows = np.empty((3, _CHUNK, h.shape[1]))
    for j in range(_CHUNK):
        h, z = _coupled_step(h, z, load, inverse_h, inverse_z, dt, alpha)
        rows[:, j] = z - h
    ends = np.stack((h[1], h[2], z[0], z[1], z[2])).astype(np.float64)
    rows.flags.writeable = ends.flags.writeable = False
    return rows, ends


def jump_coupled(
    state: CoupledState, steps: int, dt: float, ops: Operators, eta_c: float
) -> tuple[int, CoupledState, np.ndarray]:
    """Up to ``steps`` backward-Euler steps of the height/surface pair at
    once, stopping before the first whose thickness is at or below ``eta_c``.

    Per rfft mode the coupled step (:func:`_coupled_step`) is
    lower-triangular, so the whole gap runs in mode space from one forward
    transform: per chunk of ``_CHUNK`` steps the cached tables of
    :func:`_coupled_tables` give the thickness modes after every step, one
    batched inverse transform gives their minima, and the chunk-end
    coefficients move the chunk base on.  The modes of the state before the
    last step taken are rebuilt from their chunk base by the step recursion
    and transformed back, and :func:`advance` takes and checks the last step
    from them; the minimum thickness of the state it hands out must match
    the one tested for that step up to roundoff.  Returns the number of
    steps taken (``0``, with ``state`` itself, when the first step crosses),
    the state, and the rfft modes of its ``h`` and ``zeta`` as two rows,
    those its solves transformed back.  A non-finite thickness raises
    :class:`LinearSolveError`.
    The time advances by repeated additions of ``dt``, so it is
    bit-identical to stepping.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    grid = state.h.grid
    n = grid.n
    diag_h, off_h = ops.height_matrix(dt)
    diag_z, off_z = ops.thickness_matrix(dt)
    rows, ends = _coupled_tables(n, dt, (diag_h, off_h), (diag_z, off_z), ops.alpha)
    h, z = np.fft.rfft(np.stack((state.h.values, state.zeta.values))).view(np.float64)
    load = ops.height_load_modes.view(np.float64)
    eta = np.empty((_CHUNK, n // 2 + 1), dtype=complex)
    eta_rows, product = eta.view(np.float64), np.empty((_CHUNK, h.size))
    loaded = rows[2] * load  # the load's part of every chunk
    # base and previous: (step, h, zeta) modes at the start of this chunk and
    # of the one before; low: the tested thickness minimum after step done
    done, low = 0, math.nan
    base = previous = (0, h, z)
    while True:
        count = min(_CHUNK, steps - done)
        out, tmp = eta_rows[:count], product[:count]
        np.multiply(rows[0, :count], z, out=out)
        out += np.multiply(rows[1, :count], h, out=tmp)
        out += loaded[:count]
        lows = np.fft.irfft(eta[:count], n).min(axis=1)
        if not np.isfinite(lows).all():
            raise LinearSolveError("coupled step gave a non-finite thickness")
        crossed = np.flatnonzero(lows <= eta_c)
        if crossed.size:
            first = int(crossed[0])
            taken = done + first
            if first:
                low = float(lows[first - 1])
            break
        done += count
        low = float(lows[-1])
        if done == steps:
            taken = done
            break
        h, z = ends[0] * h + ends[1] * load, ends[2] * z + ends[3] * h + ends[4] * load
        previous, base = base, (done, h, z)
    if taken == 0:
        return 0, state, np.stack((h, z)).view(complex)

    # rebuild steps taken - 1 and taken from the base of the chunk that
    # holds step taken - 1, by the step recursion; advance takes step taken
    # again from the modes of step taken - 1, with the same arithmetic
    origin, h, z = base if base[0] < taken else previous
    inverses = _inverse_symbol(n, diag_h, off_h), _inverse_symbol(n, diag_z, off_z)
    for _ in range(taken - origin):
        h_prev, z_prev = h, z
        h, z = _coupled_step(h, z, load, *inverses, dt, ops.alpha)
    modes = np.stack((h_prev, z_prev)).view(complex)
    h_prev, z_prev = np.fft.irfft(modes, n)
    time = _time_after(state.time, taken - 1, dt)
    before = CoupledState(Field(grid, h_prev, time), Field(grid, z_prev, time))
    state = advance(before, dt, ops, modes)
    handed = float(np.min(state.eta.values))
    scale = max(float(np.abs(state.h.values).max()), float(np.abs(state.zeta.values).max()))
    if not abs(handed - low) <= _STEP_RESIDUAL_TOL * scale:
        raise LinearSolveError(
            f"coupled state of minimum thickness {handed:g} does not match the tested {low:g}"
        )
    return taken, state, np.stack((h, z)).view(complex)


def advance(
    state: Field | CoupledState, dt: float, ops: Operators, modes: np.ndarray | None = None
):
    """Single checked step of whichever system the state belongs to;
    ``modes``, if given, are the state's rfft modes (for a coupled state,
    those of ``h`` and ``zeta`` as two rows), which spare the step its
    forward transforms."""
    if isinstance(state, CoupledState):
        h, zeta = step_coupled(state.h, state.zeta, dt, ops, modes)
        return CoupledState(h, zeta)
    return step_decoupled(state, dt, ops, modes)


# roundoff allowed between a value formed from StepProbe.change and the step
# of advance, relative to the inputs, before the stiffness factor of the
# probe's slack
_TRIAL_GUARD = 1.0e-12
# entries per grid node of the probe's candidate-node matrix, above which the
# matrix costs more to build than the full trials it would spare
_NODE_BUDGET = 4


@functools.lru_cache(maxsize=2)
def _unit_roots(n: int) -> np.ndarray:
    """``exp(2 pi i m/n)`` for ``m = 0..n-1``; read-only."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    roots.flags.writeable = False
    return roots


class StepProbe:
    """What one backward-Euler step of any size ``tau`` up to ``dt`` from
    ``pre`` does: the crossing bisection's decisions about such steps
    against the threshold ``eta_c`` and ``floor``, the threshold less the
    value tolerance, starting with ``at_dt``, the decision about the step of
    ``dt``; and :meth:`step`, the checked :func:`advance` from ``modes``,
    the only step that hands a state out.

    ``modes`` are the state's rfft modes as :func:`advance` takes them (for
    a coupled state, those of ``h`` and ``zeta`` as two rows); only when
    none are given is ``pre`` transformed here, once.  :meth:`minimum_after`
    takes the step per mode with the arithmetic of the solves of
    :func:`advance` (reciprocal eigenvalues from :func:`_inverse_symbol`, a
    coupled step by :func:`_coupled_step`, whose ``h`` and ``zeta`` rows are
    inverted before their difference is taken, as :attr:`CoupledState.eta`
    takes it), so its minimum is bit for bit that of :meth:`step`.

    A step of ``tau`` moves rfft mode ``k`` of the thickness by exactly
    ``tau*q_k(tau)``, and :meth:`change` gives ``q_k(tau)`` for the first
    ``count`` modes.  With ``mu`` the decoupled symbol ``sigma*lambda_k +
    alpha`` (``lambda_k = s_k/dx^2``), ``q = (p - u*r)/(1 + tau*mu)``:

    - decoupled, ``u = 0`` and ``p = l - mu*x``, the modes of ``load -
      (alpha I + sigma K) x``;
    - coupled, ``p = alpha*h - mu*zeta``, ``u = -(l + nu*h)``, ``r = (1 +
      tau*sigma*lambda_k)/(1 + tau*nu)``, ``nu = sigma_h*lambda_k`` and
      ``l`` the height load.

    ``peak = |p| + |u|`` bounds ``|q_k|`` for every ``tau >= 0``, since no
    divisor is below 1 and ``r/(1 + tau*mu) <= 1/(1 + tau*nu)``, whatever
    the ratio of ``sigma`` to ``sigma_h``.  A value formed from
    :meth:`change` is free of the cancellation by which the step matrix's
    eigenvalues ``diag + off*(2 - s_k)`` lose digits when ``sigma*tau/dx^2``
    is large, so it may differ from :func:`advance` by that roundoff.  The
    slack allows for it: ``_TRIAL_GUARD`` times the largest magnitude among
    the state and ``dt`` times the load, times ``1 + 4*sigma*dt/dx^2``, with
    the larger of ``sigma`` and ``sigma_h`` for a coupled state, where that
    allowance is measured, not proven.

    :meth:`bound` decides a step without its inverse transform where it
    can.  With ``w_k`` from :func:`_mode_weights` no node falls by more than
    ``tau*drop``, ``drop = sum_k w_k peak_k``, so only nodes with ``eta_0 -
    slack - dt*drop <= eta_c`` can cross.  At those candidate nodes the
    value after the step is ``eta_0 + tau*sum_k w_k Re(q_k e^{2 pi i
    jk/n})``, summed over the shortest prefix of ``K`` modes whose tail
    ``dt*sum_{k >= K} w_k peak_k`` is at most the slack; the tail is added
    to the slack.  Where the candidate set and ``K`` make a matrix of more
    than ``_NODE_BUDGET*n`` entries, only the bound on the drop decides.
    """

    def __init__(
        self,
        pre: Field | CoupledState,
        dt: float,
        ops: Operators,
        eta_c: float,
        floor: float,
        modes: np.ndarray | None = None,
    ) -> None:
        coupled = isinstance(pre, CoupledState)
        inputs = np.stack((pre.h.values, pre.zeta.values)) if coupled else pre.values[None]
        load = ops.height_load if coupled else ops.load
        scale = max(dt * max(load.max(), -load.min()), inputs.max(), -inputs.min())
        n = ops.grid.n
        if modes is None:
            modes = np.fft.rfft(inputs) if coupled else np.fft.rfft(inputs)[0]
        self.pre, self.ops, self.modes = pre, ops, modes
        self._rows = modes.reshape(len(inputs), -1).view(np.float64)
        self._load_modes = (ops.height_load_modes if coupled else ops.load_modes).view(np.float64)

        symbol, dx2 = ops.symbol, ops.grid.dx * ops.grid.dx
        if coupled:
            h, z = modes
            curvature = _second_difference_symbol(n) / dx2
            self._nu, self._diffusion = ops.sigma_h * curvature, ops.sigma * curvature
            self._p = ops.alpha * h - symbol * z
            self._u = -(ops.height_load_modes + self._nu * h)
            peak = np.abs(self._p) + np.abs(self._u)
            stiffness = max(ops.sigma, ops.sigma_h)
        else:
            self._p, self._u = ops.load_modes - symbol * modes, None
            peak, stiffness = np.abs(self._p), ops.sigma
        slack = _TRIAL_GUARD * float(scale) * (1.0 + 4.0 * stiffness * dt / dx2)

        self.eta_c, self.floor = eta_c, floor
        values = pre.eta.values
        weights = _mode_weights(n)
        rates = weights * peak
        self._drop = drop = float(np.sum(rates))
        self._lowest = float(values.min()) - slack
        self._matrix = None
        if self._lowest - dt * drop <= eta_c:  # else the drop decides every step
            nodes = np.flatnonzero(values - slack - dt * drop <= eta_c)
            # tails[k]: the largest change per unit step of the modes from k on,
            # which does not grow with k
            tails = np.cumsum(rates[::-1])[::-1]
            count = int(np.count_nonzero(dt * tails > slack))
            if 0 < nodes.size * count <= _NODE_BUDGET * n:
                slack += dt * float(tails[count]) if count < tails.size else 0.0
                phases = _unit_roots(n)[np.outer(nodes, np.arange(count)) % n]
                # [w cos, -w sin] per mode, against [Re q, Im q] of the change
                self._matrix = (weights[:count] * phases.conj()).view(np.float64)
                self._candidates, self._count = values[nodes], count
        self._slack = slack
        self.at_dt = self.decide(dt)

    def minimum_after(self, tau: float) -> float:
        """The minimum thickness after the step of ``tau``, unchecked."""
        ops, n = self.ops, self.ops.grid.n
        inverse = _inverse_symbol(n, *ops.thickness_matrix(tau))
        if self._u is None:
            parts = (self._rows[0] / tau + self._load_modes) * inverse
            return float(np.fft.irfft(parts.view(complex), n).min())
        inverse_h = _inverse_symbol(n, *ops.height_matrix(tau))
        rows = _coupled_step(*self._rows, self._load_modes, inverse_h, inverse, tau, ops.alpha)
        h, zeta = np.fft.irfft(np.stack(rows).view(complex), n)
        return float(np.min(zeta - h))

    def change(self, tau: float, count: int) -> np.ndarray:
        """``q_k(tau)`` for the first ``count`` modes of the thickness."""
        q = self._p[:count]
        if self._u is not None:
            ratio = (1.0 + tau * self._diffusion[:count]) / (1.0 + tau * self._nu[:count])
            q = q - self._u[:count] * ratio
        return q / (1.0 + tau * self.ops.symbol[:count])

    def bound(self, tau: float) -> float | None:
        """A lower bound on the minimum after the step of ``tau`` above
        ``eta_c``, so the step does not cross, or an upper bound below
        ``floor``, so it crosses by more than the value tolerance; else
        ``None``.  Without candidate nodes, no node can cross."""
        eta_c, slack = self.eta_c, self._slack
        low = self._lowest - tau * self._drop
        if low > eta_c or self._matrix is None:
            return low if low > eta_c else None
        change = self.change(tau, self._count).view(np.float64)
        least = float(np.min(self._candidates + tau * (self._matrix @ change)))
        if least - slack > eta_c:
            return least - slack
        return least + slack if least + slack < self.floor else None

    def decide(self, tau: float) -> tuple[float, bool]:
        """The minimum thickness after a step of ``tau``, or a bound on it
        that lies on the same side of every value the bisection compares it
        with, and whether it is such a bound: :meth:`bound` first, else
        :meth:`minimum_after`."""
        low = self.bound(tau)
        if low is not None:
            return low, True
        return self.minimum_after(tau), False

    def step(self, tau: float) -> Field | CoupledState:
        """The state after the checked step of ``tau`` from ``pre``."""
        return advance(self.pre, tau, self.ops, self.modes)


def step_toward(remaining: float, dt: float) -> float:
    """Size of the next step toward a target ``remaining`` time away: the
    nominal ``dt``, or all of ``remaining`` when that is at most one step
    (up to roundoff), so that stepping lands exactly on the target."""
    return dt if remaining > dt * (1.0 + 1.0e-12) else remaining


def evolve(state: Field | CoupledState, t_end: float, dt: float, ops: Operators):
    """Step to ``t_end`` with steps of ``dt``, shortening the last step to
    land exactly; performs no rupture checks."""
    time = state.time
    if not math.isfinite(t_end):
        raise ValueError("t_end must be finite")
    if t_end < time:
        raise ValueError("t_end precedes the current state time")
    while time < t_end:
        state = advance(state, step_toward(t_end - time, dt), ops)
        time = state.time
    state.time = t_end
    return state


@functools.lru_cache(maxsize=4)
def _stationary_nodes(config: ModelConfig, n: int) -> np.ndarray:
    """Closed-form stationary profile at the nodes of the ``n``-node grid,
    read-only."""
    values = stationary.eval_stationary(
        stationary.solve_stationary(config), build_grid(config, n).nodes
    )
    values.flags.writeable = False
    return values


def fourier_reference(config: ModelConfig, eta0: Field, t: float) -> Field:
    """Exact mild solution of the decoupled equation at time ``t``.

    Decomposes the deviation of the initial data from the stationary
    profile into discrete Fourier modes and applies the exact decay
    ``exp(-(sigma*k**2 + alpha)*t)`` per mode.  Defined only for the
    decoupled reduction with positive evaporation.
    """
    if config.mode != "decoupled":
        raise UnsupportedError("reference solution is defined for decoupled mode only")
    if config.alpha <= 0.0:
        raise UnsupportedError("reference solution requires alpha > 0")
    grid = eta0.grid
    s_nodes = _stationary_nodes(config, grid.n)
    sigma_eff, _, _ = effective_parameters(config)

    wavenumbers = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    decay = np.exp(-(sigma_eff * wavenumbers**2 + config.alpha) * t)
    modes = np.fft.fft(eta0.values - s_nodes)
    values = s_nodes + np.fft.ifft(modes * decay).real
    return Field(grid, values, eta0.time + t)
