"""DOP853 on Python scalars: the explicit Runge-Kutta solver of the ODE oracle.

The Dormand-Prince pair of order 8 with error estimators of orders 5 and 3
and a dense output of order 7, transcribed stage by stage from Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I, sec. II.5
(their Fortran code ``dop853.f``, whose coefficient names the constants
below keep).  Each stage is one list comprehension over the components,
with the tableau's zero coefficients left out, as ``dop853.f`` writes it.
The state is a list of Python complex numbers and the right-hand side maps
(t, list) to a list: for the few components pcqed integrates, scalar
arithmetic costs less than array calls do.  The dense output is the
exception: its interpolants are built and evaluated for many steps at
once, on numpy arrays of steps x components, with the same operations in
the same order, and numpy's product of a real and a complex number rounds
as Python's does, so its values are those of the scalar arithmetic.

The step control is that of ``scipy.integrate.DOP853``, so on the same
problem both take the same steps, up to the rounding of sums that numpy
orders otherwise (beyond three components it sums in BLAS order):

- safety factor 0.9, step factor in [0.2, 10], exponent -1/8, and after a
  rejection in the same step no growth;
- the combined E3/E5 error norm of ``dop853.f``, over the scale
  atol + rtol * max(|y|, |y_new|);
- the smallest step 10 * |nextafter(t) - t|;
- the initial step of Hairer, Norsett & Wanner, sec. II.4, as scipy's
  ``select_initial_step`` takes it;
- the right-hand side at the step's end is evaluated before the error
  test, and the three extra stages of the dense output run only for steps
  that hold an output time: such a step is kept, and every BATCH kept
  steps, and the one that reaches the last output time, run their extra
  stages through the right-hand side, one call per stage and step, build
  their interpolants' coefficients F0..F6 as arrays and evaluate them at
  every output time they hold.

The components may be split into blocks, (start, stop) ranges of
independent subsystems.  Every norm is then the largest of the blocks'
root-mean-square norms, so one block's error is never averaged with
another block's; with one block it is scipy's norm.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Sequence

import numpy as np

from .core import ConvergenceError

__all__ = ["DOP853"]

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 8  # -1 / (order of the error estimator + 1)
# Steps whose interpolants are evaluated together, and output rows per
# evaluation: it bounds the memory of dense output whatever the number of
# output times.
BATCH = 256

C2 = 0.526001519587677318785587544488e-01
C3 = 0.789002279381515978178381316732e-01
C4 = 0.118350341907227396726757197510
C5 = 0.281649658092772603273242802490
C6 = 0.333333333333333333333333333333
C7 = 0.25
C8 = 0.307692307692307692307692307692
C9 = 0.651282051282051282051282051282
C10 = 0.6
C11 = 0.857142857142857142857142857142
C12 = 1.0
C14 = 0.1
C15 = 0.2
C16 = 0.777777777777777777777777777778

A21 = 5.26001519587677318785587544488e-2
A31 = 1.97250569845378994544595329183e-2
A32 = 5.91751709536136983633785987549e-2
A41 = 2.95875854768068491816892993775e-2
A43 = 8.87627564304205475450678981324e-2
A51 = 2.41365134159266685502369798665e-1
A53 = -8.84549479328286085344864962717e-1
A54 = 9.24834003261792003115737966543e-1
A61 = 3.7037037037037037037037037037e-2
A64 = 1.70828608729473871279604482173e-1
A65 = 1.25467687566822425016691814123e-1
A71 = 3.7109375e-2
A74 = 1.70252211019544039314978060272e-1
A75 = 6.02165389804559606850219397283e-2
A76 = -1.7578125e-2
A81 = 3.70920001185047927108779319836e-2
A84 = 1.70383925712239993810214054705e-1
A85 = 1.07262030446373284651809199168e-1
A86 = -1.53194377486244017527936158236e-2
A87 = 8.27378916381402288758473766002e-3
A91 = 6.24110958716075717114429577812e-1
A94 = -3.36089262944694129406857109825
A95 = -8.68219346841726006818189891453e-1
A96 = 2.75920996994467083049415600797e1
A97 = 2.01540675504778934086186788979e1
A98 = -4.34898841810699588477366255144e1
A101 = 4.77662536438264365890433908527e-1
A104 = -2.48811461997166764192642586468
A105 = -5.90290826836842996371446475743e-1
A106 = 2.12300514481811942347288949897e1
A107 = 1.52792336328824235832596922938e1
A108 = -3.32882109689848629194453265587e1
A109 = -2.03312017085086261358222928593e-2
A111 = -9.3714243008598732571704021658e-1
A114 = 5.18637242884406370830023853209
A115 = 1.09143734899672957818500254654
A116 = -8.14978701074692612513997267357
A117 = -1.85200656599969598641566180701e1
A118 = 2.27394870993505042818970056734e1
A119 = 2.49360555267965238987089396762
A1110 = -3.0467644718982195003823669022
A121 = 2.27331014751653820792359768449
A124 = -1.05344954667372501984066689879e1
A125 = -2.00087205822486249909675718444
A126 = -1.79589318631187989172765950534e1
A127 = 2.79488845294199600508499808837e1
A128 = -2.85899827713502369474065508674
A129 = -8.87285693353062954433549289258
A1210 = 1.23605671757943030647266201528e1
A1211 = 6.43392746015763530355970484046e-1

B1 = 5.42937341165687622380535766363e-2
B6 = 4.45031289275240888144113950566
B7 = 1.89151789931450038304281599044
B8 = -5.8012039600105847814672114227
B9 = 3.1116436695781989440891606237e-1
B10 = -1.52160949662516078556178806805e-1
B11 = 2.01365400804030348374776537501e-1
B12 = 4.47106157277725905176885569043e-2

BHH1 = 0.244094488188976377952755905512
BHH2 = 0.733846688281611857341361741547
BHH3 = 0.220588235294117647058823529412e-1

ER1 = 0.1312004499419488073250102996e-1
ER6 = -0.1225156446376204440720569753e+1
ER7 = -0.4957589496572501915214079952
ER8 = 0.1664377182454986536961530415e+1
ER9 = -0.3503288487499736816886487290
ER10 = 0.3341791187130174790297318841
ER11 = 0.8192320648511571246570742613e-1
ER12 = -0.2235530786388629525884427845e-1

# The order-3 estimator: the weights B less the embedded weights BHH.
E31 = B1 - BHH1
E39 = B9 - BHH2
E312 = B12 - BHH3

# Extra stages of the dense output; stage 13 is f at the step's end.
A141 = 5.61675022830479523392909219681e-2
A147 = 2.53500210216624811088794765333e-1
A148 = -2.46239037470802489917441475441e-1
A149 = -1.24191423263816360469010140626e-1
A1410 = 1.5329179827876569731206322685e-1
A1411 = 8.20105229563468988491666602057e-3
A1412 = 7.56789766054569976138603589584e-3
A1413 = -8.298e-3
A151 = 3.18346481635021405060768473261e-2
A156 = 2.83009096723667755288322961402e-2
A157 = 5.35419883074385676223797384372e-2
A158 = -5.49237485713909884646569340306e-2
A1511 = -1.08347328697249322858509316994e-4
A1512 = 3.82571090835658412954920192323e-4
A1513 = -3.40465008687404560802977114492e-4
A1514 = 1.41312443674632500278074618366e-1
A161 = -4.28896301583791923408573538692e-1
A166 = -4.69762141536116384314449447206
A167 = 7.68342119606259904184240953878
A168 = 4.06898981839711007970213554331
A169 = 3.56727187455281109270669543021e-1
A1613 = -1.39902416515901462129418009734e-3
A1614 = 2.9475147891527723389556272149
A1615 = -9.15095847217987001081870187138

D41 = -0.84289382761090128651353491142e+1
D46 = 0.56671495351937776962531783590
D47 = -0.30689499459498916912797304727e+1
D48 = 0.23846676565120698287728149680e+1
D49 = 0.21170345824450282767155149946e+1
D410 = -0.87139158377797299206789907490
D411 = 0.22404374302607882758541771650e+1
D412 = 0.63157877876946881815570249290
D413 = -0.88990336451333310820698117400e-1
D414 = 0.18148505520854727256656404962e+2
D415 = -0.91946323924783554000451984436e+1
D416 = -0.44360363875948939664310572000e+1
D51 = 0.10427508642579134603413151009e+2
D56 = 0.24228349177525818288430175319e+3
D57 = 0.16520045171727028198505394887e+3
D58 = -0.37454675472269020279518312152e+3
D59 = -0.22113666853125306036270938578e+2
D510 = 0.77334326684722638389603898808e+1
D511 = -0.30674084731089398182061213626e+2
D512 = -0.93321305264302278729567221706e+1
D513 = 0.15697238121770843886131091075e+2
D514 = -0.31139403219565177677282850411e+2
D515 = -0.93529243588444783865713862664e+1
D516 = 0.35816841486394083752465898540e+2
D61 = 0.19985053242002433820987653617e+2
D66 = -0.38703730874935176555105901742e+3
D67 = -0.18917813819516756882830838328e+3
D68 = 0.52780815920542364900561016686e+3
D69 = -0.11573902539959630126141871134e+2
D610 = 0.68812326946963000169666922661e+1
D611 = -0.10006050966910838403183860980e+1
D612 = 0.77771377980534432092869265740
D613 = -0.27782057523535084065932004339e+1
D614 = -0.60196695231264120758267380846e+2
D615 = 0.84320405506677161018159903784e+2
D616 = 0.11992291136182789328035130030e+2
D71 = -0.25693933462703749003312586129e+2
D76 = -0.15418974869023643374053993627e+3
D77 = -0.23152937917604549567536039109e+3
D78 = 0.35763911791061412378285349910e+3
D79 = 0.93405324183624310003907691704e+2
D710 = -0.37458323136451633156875139351e+2
D711 = 0.10409964950896230045147246184e+3
D712 = 0.29840293426660503123344363579e+2
D713 = -0.43533456590011143754432175058e+2
D714 = 0.96324553959188282948394950600e+2
D715 = -0.39177261675615439165231486172e+2
D716 = -0.14972683625798562581422125276e+3


def _norm2(v: list) -> float:
    """Euclidean norm of a list of complex numbers."""
    return math.sqrt(sum([z.real * z.real + z.imag * z.imag for z in v]))


class DOP853:
    """One DOP853 run of y' = fun(t, y) forward from t0.

    fun(t, y) takes a float and a list of complex and returns a list of
    complex.  ``t_bound`` is the end of the current span: no step passes it,
    and a caller may move it further once ``t`` has reached it, which
    continues the run with the step size it proposes there.  ``blocks``
    partitions the components into (start, stop) ranges whose norms are
    taken apart; None is one block of all.

    ``times``, increasing and past t0, are output times: row j of ``dense``
    becomes the state at times[j], read from the interpolant of the first
    step whose end is at or past it.  The steps that hold output times are
    kept and their interpolants evaluated together, every BATCH of them and
    at the step that reaches the last time.  ``nfev`` counts the calls of
    fun, the initial step's two included.
    """

    def __init__(
        self,
        fun: Callable[[float, list], list],
        t0: float,
        y0: Sequence[complex],
        t_bound: float,
        rtol: float,
        atol: float,
        blocks: Sequence[tuple[int, int]] | None = None,
        times: Sequence[float] = (),
    ) -> None:
        if not t0 < t_bound:
            raise ValueError(f"need t0 < t_bound, got [{t0!r}, {t_bound!r}]")
        self._times = np.asarray(times, dtype=float)
        if self._times.size and not t0 < self._times[0]:
            raise ValueError("output times must come after t0")
        self.fun = fun
        self.t = t0
        self.y = list(y0)
        self.t_bound = t_bound
        self.rtol, self.atol = rtol, atol
        self.blocks = [(0, len(self.y))] if blocks is None else list(blocks)
        self.f = fun(t0, self.y)
        self.nfev = 1
        self.h_abs = self._initial_step()
        self.dense = np.empty((self._times.size, len(self.y)), dtype=complex)
        self._time_list = self._times.tolist()  # as Python floats, for bisection
        self._kept = []  # the steps that hold output times, not yet evaluated
        self._filled = self._flushed = 0  # output rows held by kept steps / written

    def _norm(self, v: list) -> float:
        """Largest root-mean-square norm over the blocks."""
        return max(_norm2(v[lo:hi]) / (hi - lo) ** 0.5 for lo, hi in self.blocks)

    def _initial_step(self) -> float:
        """Hairer, Norsett & Wanner's first-step guess (sec. II.4), as scipy takes it."""
        t0, y0, f0 = self.t, self.y, self.f
        interval = self.t_bound - t0
        scale = [self.atol + abs(a) * self.rtol for a in y0]
        d0 = self._norm([a / s for a, s in zip(y0, scale)])
        d1 = self._norm([a / s for a, s in zip(f0, scale)])
        if not math.isfinite(d1):
            raise ConvergenceError(
                f"integration failed at t={t0:g}: the norm of the right-hand side over "
                "the error scale is not finite", t=t0)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = self.fun(t0 + h0, [a + h0 * b for a, b in zip(y0, f0)])
        self.nfev += 1
        d2 = self._norm([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval)

    def _error_norm(self, e5: list, e3: list, h: float) -> float:
        """The combined E3/E5 norm of dop853.f, the largest over the blocks."""
        err = 0.0
        for lo, hi in self.blocks:
            s5 = _norm2(e5[lo:hi]) ** 2
            s3 = _norm2(e3[lo:hi]) ** 2
            if s5 or s3:
                err = max(err, abs(h) * s5 / math.sqrt((s5 + 0.01 * s3) * (hi - lo)))
        return err

    def step(self) -> None:
        """Take one accepted step towards ``t_bound``.

        Raises ConvergenceError, carrying the time, when the step size
        falls below the smallest step.
        """
        fun, t, y, k1 = self.fun, self.t, self.y, self.f
        rtol, atol = self.rtol, self.atol
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ConvergenceError(
                    f"integration failed at t={t:g}: step size below the spacing of "
                    "floating-point numbers", t=t)
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)

            k2 = fun(t + C2 * h, [a + A21 * b1 * h for a, b1 in zip(y, k1)])
            k3 = fun(t + C3 * h, [a + (A31 * b1 + A32 * b2) * h
                                  for a, b1, b2 in zip(y, k1, k2)])
            k4 = fun(t + C4 * h, [a + (A41 * b1 + A43 * b3) * h
                                  for a, b1, b3 in zip(y, k1, k3)])
            k5 = fun(t + C5 * h, [a + (A51 * b1 + A53 * b3 + A54 * b4) * h
                                  for a, b1, b3, b4 in zip(y, k1, k3, k4)])
            k6 = fun(t + C6 * h, [a + (A61 * b1 + A64 * b4 + A65 * b5) * h
                                  for a, b1, b4, b5 in zip(y, k1, k4, k5)])
            k7 = fun(t + C7 * h, [a + (A71 * b1 + A74 * b4 + A75 * b5 + A76 * b6) * h
                                  for a, b1, b4, b5, b6 in zip(y, k1, k4, k5, k6)])
            k8 = fun(t + C8 * h, [a + (A81 * b1 + A84 * b4 + A85 * b5 + A86 * b6 + A87 * b7) * h
                                  for a, b1, b4, b5, b6, b7 in zip(y, k1, k4, k5, k6, k7)])
            k9 = fun(t + C9 * h, [a + (A91 * b1 + A94 * b4 + A95 * b5 + A96 * b6 + A97 * b7
                                       + A98 * b8) * h
                                  for a, b1, b4, b5, b6, b7, b8 in zip(y, k1, k4, k5, k6, k7, k8)])
            k10 = fun(t + C10 * h, [a + (A101 * b1 + A104 * b4 + A105 * b5 + A106 * b6 + A107 * b7
                                         + A108 * b8 + A109 * b9) * h
                                    for a, b1, b4, b5, b6, b7, b8, b9
                                    in zip(y, k1, k4, k5, k6, k7, k8, k9)])
            k11 = fun(t + C11 * h, [a + (A111 * b1 + A114 * b4 + A115 * b5 + A116 * b6 + A117 * b7
                                         + A118 * b8 + A119 * b9 + A1110 * b10) * h
                                    for a, b1, b4, b5, b6, b7, b8, b9, b10
                                    in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
            k12 = fun(t + C12 * h, [a + (A121 * b1 + A124 * b4 + A125 * b5 + A126 * b6 + A127 * b7
                                         + A128 * b8 + A129 * b9 + A1210 * b10 + A1211 * b11) * h
                                    for a, b1, b4, b5, b6, b7, b8, b9, b10, b11
                                    in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
            y_new = [a + h * (B1 * b1 + B6 * b6 + B7 * b7 + B8 * b8 + B9 * b9 + B10 * b10
                              + B11 * b11 + B12 * b12)
                     for a, b1, b6, b7, b8, b9, b10, b11, b12
                     in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)]
            k13 = fun(t + h, y_new)
            self.nfev += 12

            scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
            e5 = [(ER1 * b1 + ER6 * b6 + ER7 * b7 + ER8 * b8 + ER9 * b9 + ER10 * b10
                   + ER11 * b11 + ER12 * b12) / s
                  for s, b1, b6, b7, b8, b9, b10, b11, b12
                  in zip(scale, k1, k6, k7, k8, k9, k10, k11, k12)]
            e3 = [(E31 * b1 + B6 * b6 + B7 * b7 + B8 * b8 + E39 * b9 + B10 * b10
                   + B11 * b11 + E312 * b12) / s
                  for s, b1, b6, b7, b8, b9, b10, b11, b12
                  in zip(scale, k1, k6, k7, k8, k9, k10, k11, k12)]
            error_norm = self._error_norm(e5, e3, h)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        self.t, self.y, self.f, self.h_abs = t_new, y_new, k13, h_abs
        filled = bisect.bisect_right(self._time_list, t_new, self._filled)
        if filled > self._filled:
            self._kept.append((filled, t, t_new, y, y_new, k1, k6, k7, k8, k9, k10, k11, k12, k13))
            self._filled = filled
            if len(self._kept) == BATCH or filled == len(self._time_list):
                self._flush()

    def _flush(self) -> None:
        """Fill ``dense`` for the output times of the kept steps, and forget them.

        Runs the three extra stages of every kept step, builds the
        coefficients F0..F6 of each step's interpolant as (steps x
        components) arrays and evaluates the interpolants by Horner's rule,
        BATCH output rows at a time.
        """
        stops, t, t_new, *arrays = zip(*self._kept)
        self._kept = []
        y, y_new, k1, k6, k7, k8, k9, k10, k11, k12, k13 = np.array(arrays, dtype=complex)
        t = np.array(t)
        h = np.array(t_new) - t
        hh = h[:, None]
        k14 = self._rows(t + C14 * h, y + (A141 * k1 + A147 * k7 + A148 * k8 + A149 * k9
                                           + A1410 * k10 + A1411 * k11 + A1412 * k12
                                           + A1413 * k13) * hh)
        k15 = self._rows(t + C15 * h, y + (A151 * k1 + A156 * k6 + A157 * k7 + A158 * k8
                                           + A1511 * k11 + A1512 * k12 + A1513 * k13
                                           + A1514 * k14) * hh)
        k16 = self._rows(t + C16 * h, y + (A161 * k1 + A166 * k6 + A167 * k7 + A168 * k8
                                           + A169 * k9 + A1613 * k13 + A1614 * k14
                                           + A1615 * k15) * hh)

        f0 = y_new - y
        f1 = hh * k1 - f0
        f2 = 2 * f0 - hh * (k13 + k1)
        f3 = hh * (D41 * k1 + D46 * k6 + D47 * k7 + D48 * k8 + D49 * k9 + D410 * k10 + D411 * k11
                   + D412 * k12 + D413 * k13 + D414 * k14 + D415 * k15 + D416 * k16)
        f4 = hh * (D51 * k1 + D56 * k6 + D57 * k7 + D58 * k8 + D59 * k9 + D510 * k10 + D511 * k11
                   + D512 * k12 + D513 * k13 + D514 * k14 + D515 * k15 + D516 * k16)
        f5 = hh * (D61 * k1 + D66 * k6 + D67 * k7 + D68 * k8 + D69 * k9 + D610 * k10 + D611 * k11
                   + D612 * k12 + D613 * k13 + D614 * k14 + D615 * k15 + D616 * k16)
        f6 = hh * (D71 * k1 + D76 * k6 + D77 * k7 + D78 * k8 + D79 * k9 + D710 * k10 + D711 * k11
                   + D712 * k12 + D713 * k13 + D714 * k14 + D715 * k15 + D716 * k16)

        # Rows up to stops[j] belong to kept step j: the first whose end is at
        # or past their time.
        start = self._flushed
        step_of = np.repeat(np.arange(len(stops)), np.diff(stops, prepend=start))
        for lo in range(start, stops[-1], BATCH):
            hi = min(lo + BATCH, stops[-1])
            i = step_of[lo - start:hi - start]
            x = ((self._times[lo:hi] - t[i]) / h[i])[:, None]
            x1 = 1 - x
            self.dense[lo:hi] = ((((((f6[i] * x + f5[i]) * x1 + f4[i]) * x + f3[i]) * x1 + f2[i])
                                   * x + f1[i]) * x1 + f0[i]) * x + y[i]
        self._flushed = stops[-1]

    def _rows(self, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        """fun on each row of y at its time in t, one call per row."""
        out = np.empty_like(y)
        # One row is a list at a time, so few Python objects live whatever BATCH is.
        for i, s in enumerate(t.tolist()):
            out[i] = self.fun(s, y[i].tolist())
        self.nfev += len(out)
        return out
