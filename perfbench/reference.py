"""Reference values for the model, computed without the package under test.

Only the scenario description (the JSON a user writes) and the standard
``math`` module are used here, so a wrong value in ``implog`` output cannot
be reproduced by a shared bug.  The model is x' = r(t) (1 - x/K(t)) x with
jumps x -> (1 - E) x at t0 + k; in y = 1/x it is linear,
y' = -r y + r/K, which gives every value below from two integrals:

  R(a, b) = integral of r over [a, b]          (exact, per coefficient kind)
  C(a, b) = integral over [a, b] of (r/K)(s) exp(-R(s, b)) ds
            (exact for constant r and K, composite Simpson otherwise)

Times are carried as a period index k and an offset tau in [0, 1] from
t0 + k; coefficients are evaluated at frac(t0) + tau, so large t0 costs
no precision beyond the ulp of the printed times.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi
EPS = 2.0**-52


class Coefficient:
    """One period-1 coefficient from its ``{"kind": ...}`` description."""

    def __init__(self, desc: dict) -> None:
        self.kind = desc["kind"]
        if self.kind == "constant":
            self.mean = float(desc["value"])
            self.peak = self.mean
            self.breaks: tuple[float, ...] = ()
        elif self.kind == "sinusoid":
            self.mean = float(desc["mean"])
            self.amp = float(desc["amp"])
            self.phase = float(desc.get("phase", 0.0))
            self.peak = self.mean + abs(self.amp)
            self.breaks = ()
        elif self.kind == "piecewise":
            self.bp = [float(b) for b in desc["breakpoints"]]
            self.vals = [float(v) for v in desc["values"]]
            self.cum = [0.0]
            for i, v in enumerate(self.vals):
                self.cum.append(self.cum[-1] + v * (self.bp[i + 1] - self.bp[i]))
            self.mean = self.cum[-1]
            self.peak = max(self.vals)
            self.breaks = tuple(self.bp[:-1])  # 0.0 and the interior points
        else:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")

    def value(self, u: float, piece_mid: float) -> float:
        """Value at u; for step functions, the value of the piece at piece_mid."""
        if self.kind == "constant":
            return self.mean
        if self.kind == "sinusoid":
            return self.mean + self.amp * math.sin(TWO_PI * u + self.phase)
        w = piece_mid - math.floor(piece_mid)
        for i in range(len(self.vals)):
            if w < self.bp[i + 1]:
                return self.vals[i]
        return self.vals[-1]

    def _primitive(self, u: float) -> float:
        if self.kind == "constant":
            return self.mean * u
        if self.kind == "sinusoid":
            return self.mean * u - self.amp / TWO_PI * math.cos(TWO_PI * u + self.phase)
        whole = math.floor(u)
        w = u - whole
        total = whole * self.mean
        for i in range(len(self.vals)):
            if w <= self.bp[i + 1]:
                return total + self.cum[i] + self.vals[i] * (w - self.bp[i])
        return total + self.mean

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b] (a, b small: offsets from frac(t0))."""
        if self.kind == "constant":
            return self.mean * (b - a)
        return self._primitive(b) - self._primitive(a)


class Model:
    """Reference solution of one scenario (r, K, E, t0 as in the JSON)."""

    def __init__(self, scenario: dict, E: float | None = None) -> None:
        self.r = Coefficient(scenario["r"])
        self.K = Coefficient(scenario["K"])
        self.E = float(scenario["E"] if E is None else E)
        t0 = float(scenario.get("t0", 0.5))
        self.t0 = t0
        self.u0 = t0 - math.floor(t0)
        self.ln_a = self.r.mean
        self.both_constant = self.r.kind == "constant" and self.K.kind == "constant"
        # Simpson intervals per unit length: resolves exp(-R) at the peak rate.
        n = max(1024, int(100.0 * self.r.peak))
        self.per_unit = n + n % 2
        self._b: float | None = None
        # Relative error that rounding t0 + s to a float may put in any
        # integral over a period: the ulp of t times the integrand's rate.
        self.time_tol = 8.0 * (4.0 + self.r.peak) * math.ulp(t0 + 1.0)

    # -- integrals over offsets from t0 + k ---------------------------------

    def growth(self, tau: float) -> float:
        return self.r.integral(self.u0, self.u0 + tau)

    def forcing(self, tau: float) -> float:
        """C over [t0 + k, t0 + k + tau] (independent of k by periodicity)."""
        if tau <= 0.0:
            return 0.0
        if self.both_constant:
            return -math.expm1(-self.r.mean * tau) / self.K.mean
        a, b = self.u0, self.u0 + tau
        cuts = self._cuts(a, b)
        r_ab = self.r.integral(a, b)
        total = 0.0
        for c0, c1 in zip(cuts, cuts[1:]):
            width = c1 - c0
            n = max(16, 2 * math.ceil(width * self.per_unit / 2))
            h = width / n
            mid = 0.5 * (c0 + c1)
            acc = 0.0
            for j in range(n + 1):
                s = c0 + j * h
                weight = 1.0 if j in (0, n) else (4.0 if j % 2 else 2.0)
                decay = math.exp(self.r.integral(a, s) - r_ab)
                acc += weight * self._rate(s, mid) * decay
            total += acc * h / 3.0
        return total

    def _rate(self, s: float, mid: float) -> float:
        """(r/K)(s) within the piece that holds mid."""
        return self.r.value(s, mid) / self.K.value(s, mid)

    def _cuts(self, a: float, b: float) -> list[float]:
        """a, every coefficient jump strictly inside (a, b), and b."""
        cuts = [a]
        for beta in sorted(set(self.r.breaks) | set(self.K.breaks)):
            for m in range(int(math.floor(a)) - 1, int(math.ceil(b)) + 1):
                p = beta + m
                if a + 1e-12 < p < b - 1e-12:
                    cuts.append(p)
        return sorted(cuts) + [b]

    @property
    def B(self) -> float:
        if self._b is None:
            self._b = self.forcing(1.0)
        return self._b

    # -- derived constants ---------------------------------------------------

    @property
    def A(self) -> float:
        """exp(ln A); inf when it does not fit a float."""
        return math.exp(self.ln_a) if self.ln_a < 709.78 else math.inf

    @property
    def has_orbit(self) -> bool:
        return math.log1p(-self.E) + self.ln_a > 0.0

    @property
    def critical_harvest(self) -> float:
        return -math.expm1(-self.ln_a)

    @property
    def x0_star(self) -> float | None:
        if not self.has_orbit:
            return None
        return ((1.0 - self.E) - math.exp(-self.ln_a)) / self.B

    def condition(self) -> float:
        """Relative sensitivity of x0_star to rounding in A and E: |q/(q-1)|."""
        ln_q = math.log1p(-self.E) + self.ln_a
        if ln_q == 0.0:
            return math.inf
        return 1.0 / abs(math.expm1(-ln_q)) if ln_q > -700.0 else 0.0

    def tol(self, base: float = 1e-9) -> float:
        """Relative tolerance for values that go through A, B, E and t0."""
        return base + self.time_tol + 256.0 * EPS * self.condition() * max(1.0, self.ln_a)

    # -- solution values -----------------------------------------------------

    def post_impulse(self, x0: float, k: int) -> float:
        """State just after the k-th impulse (k = 0: the start) from x(t0) = x0."""
        y = 1.0 / x0
        decay = math.exp(-self.ln_a)
        for _ in range(k):
            y = (decay * y + self.B) / (1.0 - self.E)
        return 1.0 / y

    def solution(self, x0: float, k: int, tau: float) -> float:
        """x at t0 + k + tau for 0 <= tau <= 1 (tau = 1: before the next jump)."""
        y = 1.0 / self.post_impulse(x0, k)
        if tau == 1.0:
            return 1.0 / (math.exp(-self.ln_a) * y + self.B)
        return 1.0 / (math.exp(-self.growth(tau)) * y + self.forcing(tau))

    def orbit(self, tau: float) -> float:
        return self.solution(self.x0_star, 0, tau)

    def orbit_mean(self) -> float | None:
        """Period mean of the orbit, or None when there is none.

        K (1 + ln(1-E)/r) for constant coefficients.  Otherwise composite
        Simpson over tau in [0, 1], split at coefficient jumps, of 1/y where
        y = 1/x is carried from node to node by the exact linear step
        y(s1) = exp(-R(s0, s1)) y(s0) + C(s0, s1), each C by Simpson on its
        own interval.  Every exponent is <= 0, so a huge growth integral
        cannot overflow.
        """
        if not self.has_orbit:
            return None
        if self.both_constant:
            return self.K.mean * (1.0 + math.log1p(-self.E) / self.r.mean)
        cuts = self._cuts(self.u0, self.u0 + 1.0)
        y = 1.0 / self.x0_star
        total = 0.0
        for c0, c1 in zip(cuts, cuts[1:]):
            mid = 0.5 * (c0 + c1)
            n = max(16, 2 * math.ceil((c1 - c0) * self.per_unit / 2))
            h = (c1 - c0) / n
            s0, g0 = c0, self._rate(c0, mid)
            acc = 1.0 / y
            for j in range(1, n + 1):
                s1 = c0 + j * h
                sm = 0.5 * (s0 + s1)
                g1 = self._rate(s1, mid)
                decay = math.exp(-self.r.integral(s0, s1))
                forcing = h / 6.0 * (
                    g0 * decay + 4.0 * self._rate(sm, mid) * math.exp(-self.r.integral(sm, s1)) + g1
                )
                y = decay * y + forcing
                acc += (1.0 if j == n else (4.0 if j % 2 else 2.0)) / y
                s0, g0 = s1, g1
            total += acc * h / 3.0
        return total
