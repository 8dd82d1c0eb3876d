"""Reference evaluations in 256-bit arithmetic, shared by the test modules."""

import mpmath as mp


def mp_entropy_coefficient(v, params):
    """256-bit direct evaluation of the count-v weight for entropy."""
    with mp.workprec(256):
        t = mp.mpf(params.t_at(v))
        rate = mp.mpf(params.rate)
        r = params.r
        total = mp.mpf(0)
        for u in range(1, min(params.u_max, v) + 1):
            p = u / (rate * t)
            if p > 1:
                p = mp.mpf(1)
            f = -p * mp.log(p) if p > 0 else mp.mpf(0)
            tail = 1 - mp.exp(-mp.mpf(r)) * mp.fsum(
                mp.mpf(r) ** j / mp.factorial(j) for j in range(v + u + 1)
            )
            total += (
                f
                * t**u
                * (t - 1) ** (v - u)
                * mp.binomial(v, u)
                * (-1) ** (v - u)
                * tail
            )
        return float(total)
