"""Extrapolate-step strategies.

Step 3 of the framework maps the threshold identified on the sample back to
the full input.  For share-type thresholds (a percentage of vertices or of
work volume) the mapping is the identity — a share is scale free.  For the
scale-free case study's row-density threshold the mapping is a *law* the
paper fits offline ("we use an off-line best-fit strategy ... we find that
``t_A = t_s x t_s``"); :class:`OfflineBestFitExtrapolator` reproduces that
procedure by choosing among candidate function families on training pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.util.errors import ValidationError


class Extrapolator:
    """Base class: maps a sample threshold to a full-input threshold.

    ``context`` carries problem-specific scale information (e.g. the full
    and sample dimensions) supplied by the framework.
    """

    def extrapolate(self, sample_threshold: float, context: dict | None = None) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class IdentityExtrapolator(Extrapolator):
    """``t = t'`` — correct whenever the threshold is a scale-free share.

    Used by the CC (Section III-A.3) and spmm (Section IV-A.c) studies.
    """

    def extrapolate(self, sample_threshold: float, context: dict | None = None) -> float:
        return float(sample_threshold)


class SquareLawExtrapolator(Extrapolator):
    """``t = t'**2`` — the law the paper reports for the scale-free study."""

    def extrapolate(self, sample_threshold: float, context: dict | None = None) -> float:
        return float(sample_threshold) ** 2


class ScaleExtrapolator(Extrapolator):
    """``t = factor * t'`` with a fixed factor, or one read from context.

    With ``factor=None`` the factor is taken from
    ``context["dimension_ratio"]`` (full dimension / sample dimension) —
    the physically motivated law for a row-density threshold under
    element-thinning samplers: densities shrink by the sampling ratio, so
    the threshold grows back by it.
    """

    def __init__(self, factor: float | None = None) -> None:
        if factor is not None and factor <= 0:
            raise ValidationError("factor must be positive")
        self.factor = factor

    def extrapolate(self, sample_threshold: float, context: dict | None = None) -> float:
        factor = self.factor
        if factor is None:
            if not context or "dimension_ratio" not in context:
                raise ValidationError(
                    "ScaleExtrapolator without a fixed factor needs "
                    "context['dimension_ratio']"
                )
            factor = float(context["dimension_ratio"])
        return float(sample_threshold) * factor

    def describe(self) -> str:
        return f"ScaleExtrapolator(factor={self.factor or 'dimension_ratio'})"


class SaturationExtrapolator(Extrapolator):
    """Invert the column-folding density compression: ``t = -s ln(1 - t'/s)``.

    The Section V sampler folds ``n`` columns onto ``s``; a row with ``d``
    nonzeros keeps about ``s (1 - e^{-d/s})`` distinct columns (the
    occupancy of ``d`` balls in ``s`` bins).  A density threshold ``t'``
    identified on the sample therefore corresponds to the full-input
    density whose folded image is ``t'`` — this extrapolator inverts the
    occupancy map.  Needs ``context["sample_dimension"]``.
    """

    def extrapolate(self, sample_threshold: float, context: dict | None = None) -> float:
        if not context or "sample_dimension" not in context:
            raise ValidationError(
                "SaturationExtrapolator needs context['sample_dimension']"
            )
        s = float(context["sample_dimension"])
        if s <= 1:
            raise ValidationError("sample_dimension must exceed 1")
        t = float(sample_threshold)
        if t <= 0:
            return 0.0
        # Clamp below saturation: a threshold at or above s maps to "infinity";
        # cap the argument so extrapolation stays finite.
        t = min(t, s - 1.0)
        return -s * float(np.log(1.0 - t / s))


def _saturation(t: float, ctx: dict) -> float:
    s = float(ctx.get("sample_dimension", 0) or 0)
    if s <= 1:
        return t
    t = min(max(t, 0.0), s - 1.0)
    return -s * float(np.log(1.0 - t / s)) if t > 0 else 0.0


@dataclass(frozen=True)
class _Law:
    name: str
    apply: Callable[[float, dict], float]


_CANDIDATE_LAWS: tuple[_Law, ...] = (
    _Law("identity", lambda t, ctx: t),
    _Law("square", lambda t, ctx: t * t),
    _Law("dimension-scale", lambda t, ctx: t * ctx.get("dimension_ratio", 1.0)),
    _Law("sqrt-dimension-scale", lambda t, ctx: t * np.sqrt(ctx.get("dimension_ratio", 1.0))),
    _Law("saturation", _saturation),
)


class OfflineBestFitExtrapolator(Extrapolator):
    """Pick the law minimizing relative error on offline training pairs.

    The paper studies the sample-to-full threshold relation "offline on a
    sample dataset" and then applies the fitted relation to any input.
    :meth:`fit` takes ``(sample_threshold, full_threshold, context)``
    triples — produced by running the oracle on a training suite — and
    selects among the candidate laws (identity, square, dimension scaling,
    √-dimension scaling).  Until fitted, it behaves as the identity.
    """

    def __init__(self) -> None:
        self._law: _Law = _CANDIDATE_LAWS[0]
        self._fitted = False

    def fit(
        self, training: Sequence[tuple[float, float, dict]]
    ) -> str:
        """Choose the best law; returns its name."""
        if not training:
            raise ValidationError("need at least one training pair")
        best_err = float("inf")
        best = self._law
        for law in _CANDIDATE_LAWS:
            errs = []
            for t_sample, t_full, ctx in training:
                if t_full == 0:
                    continue
                pred = law.apply(float(t_sample), dict(ctx))
                errs.append(abs(pred - t_full) / abs(t_full))
            if not errs:
                continue
            err = float(np.mean(errs))
            if err < best_err:
                best_err, best = err, law
        self._law = best
        self._fitted = True
        return best.name

    def extrapolate(self, sample_threshold: float, context: dict | None = None) -> float:
        return float(self._law.apply(float(sample_threshold), dict(context or {})))

    def describe(self) -> str:
        state = self._law.name if self._fitted else "unfitted(identity)"
        return f"OfflineBestFitExtrapolator(law={state})"
