"""Variable-generation (VG) functions: SimSQL's randomized table-valued UDFs.

A VG function receives one or more parameter tables (as lists of rows)
and emits output rows.  In SimSQL these are C++ plug-ins; the cost model
therefore charges their internal work at C++ rates while charging the
*output tuples* at relational per-tuple rates — the imbalance the paper
highlights for the HMM/LDA super-vertex codes (Section 7.6).

The library functions here mirror the ones the paper names: Dirichlet,
Normal (multivariate), InvWishart, InvGamma, InvGaussian, Categorical.
Model implementations add bespoke ones (e.g. ``multinomial_membership``
for the GMM) in :mod:`repro.impls.simsql`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.stats import (
    Categorical,
    Dirichlet,
    InverseGamma,
    InverseGaussian,
    InverseWishart,
    MultivariateNormal,
)


class VGFunction:
    """Base class: subclasses define ``output_columns`` and ``invoke``.

    A subclass may also define ``invoke_batch(rng, grouped)``, one batched
    invocation over every group of one VG call.  ``grouped`` is the
    executor's ``(key, rows_by_param)`` list; the batch returns the flat
    output-row list with group keys prepended — exactly what the
    per-group ``invoke`` loop builds — or ``None`` to decline, in which
    case the executor records the decline and runs that loop.  Batches
    must consume the draw stream bitwise like the sequential invokes
    (``tests/test_kernel_equivalence.py`` gates each one), so simulated
    results are identical with the host fast path on or off.
    """

    name: str = "vg"
    output_columns: tuple[str, ...] = ()

    #: Optional batched invocation; see the class docstring.
    invoke_batch: Callable | None = None

    def invoke(self, rng: np.random.Generator, params: dict[str, list[tuple]]) -> list[tuple]:
        raise NotImplementedError

    def flops_per_invocation(self, params: dict[str, list[tuple]]) -> float:
        """Rough internal FLOP count of one invocation, for the cost model."""
        return 50.0

    @staticmethod
    def _require(params: dict[str, list[tuple]], name: str) -> list[tuple]:
        if name not in params:
            raise KeyError(f"VG function missing parameter table {name!r} (have {sorted(params)})")
        return params[name]


class DirichletVG(VGFunction):
    """``Dirichlet(select id, alpha ...)`` -> rows ``(out_id, prob)``."""

    name = "Dirichlet"
    output_columns = ("out_id", "prob")

    def invoke(self, rng, params):
        rows = sorted(self._require(params, "alpha"))
        ids = [r[0] for r in rows]
        alpha = np.array([r[1] for r in rows], dtype=float)
        probs = Dirichlet(alpha).sample(rng)
        return list(zip(ids, probs.tolist()))

    def flops_per_invocation(self, params):
        return 20.0 * len(params.get("alpha", ()))


class CategoricalVG(VGFunction):
    """``Categorical(select id, weight ...)`` -> one row ``(choice,)``."""

    name = "Categorical"
    output_columns = ("choice",)

    def invoke(self, rng, params):
        rows = sorted(self._require(params, "weights"))
        ids = [r[0] for r in rows]
        weights = np.array([r[1] for r in rows], dtype=float)
        choice = Categorical(weights).sample(rng)
        return [(ids[choice],)]

    def flops_per_invocation(self, params):
        return 5.0 * len(params.get("weights", ()))


class NormalVG(VGFunction):
    """Multivariate ``Normal(mean query, cov query)`` -> ``(dim_id, value)``.

    ``mean`` rows are ``(dim_id, value)``; ``cov`` rows are
    ``(dim_id1, dim_id2, value)``.
    """

    name = "Normal"
    output_columns = ("dim_id", "value")

    def invoke(self, rng, params):
        mean_rows = sorted(self._require(params, "mean"))
        dims = [r[0] for r in mean_rows]
        index = {d: i for i, d in enumerate(dims)}
        mean = np.array([r[1] for r in mean_rows], dtype=float)
        cov = np.zeros((len(dims), len(dims)))
        for d1, d2, value in self._require(params, "cov"):
            cov[index[d1], index[d2]] = value
        draw = MultivariateNormal(mean, cov).sample(rng)
        return list(zip(dims, draw.tolist()))

    def flops_per_invocation(self, params):
        d = max(1, len(params.get("mean", ())))
        return float(d**3 + 2 * d**2)  # Cholesky + transform


class InvWishartVG(VGFunction):
    """``InvWishart(scale query, df query)`` -> ``(dim_id1, dim_id2, value)``."""

    name = "InvWishart"
    output_columns = ("dim_id1", "dim_id2", "value")

    def invoke(self, rng, params):
        scale_rows = self._require(params, "scale")
        dims = sorted({r[0] for r in scale_rows} | {r[1] for r in scale_rows})
        index = {d: i for i, d in enumerate(dims)}
        scale = np.zeros((len(dims), len(dims)))
        for d1, d2, value in scale_rows:
            scale[index[d1], index[d2]] = value
        (df,), = self._require(params, "df")
        draw = InverseWishart(float(df), scale).sample(rng)
        return [
            (d1, d2, float(draw[index[d1], index[d2]]))
            for d1 in dims
            for d2 in dims
        ]

    def flops_per_invocation(self, params):
        d = max(1, int(np.sqrt(len(params.get("scale", (1,))))))
        return float(3 * d**3)


class InvGammaVG(VGFunction):
    """``InvGamma(shape query, scale query)`` -> one row ``(value,)``."""

    name = "InvGamma"
    output_columns = ("value",)

    def invoke(self, rng, params):
        (shape,), = self._require(params, "shape")
        (scale,), = self._require(params, "scale")
        return [(float(InverseGamma(float(shape), float(scale)).sample(rng)),)]


class InvGaussianVG(VGFunction):
    """``InvGaussian(mu query, lambda query)`` -> one row ``(value,)``.

    The Bayesian Lasso's ``tau`` update (paper Section 6.2) invokes this
    once per regressor.
    """

    name = "InvGaussian"
    output_columns = ("value",)

    def invoke(self, rng, params):
        (mu,), = self._require(params, "mu")
        (lam,), = self._require(params, "lam")
        return [(float(InverseGaussian(float(mu), float(lam)).sample(rng)),)]
